import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import grflab
from conftest import sparse_rows
from grflab import deformations, linalg
from grflab.deformations import (MU, Deformation, NotEigenfunction,
                                 PreconditionFailed, _jet_u_part, canonical_igsd,
                                 equivalence_check, igsd_kernel,
                                 integrability_report, integral_identities,
                                 jet_second_variation_check, obstruction,
                                 parallel_from_invariant_forms, round_geometry)
from grflab.frames import BadIndex
from grflab.harmonics import canonical_space, harmonic_basis
from grflab.poly import IntegralValue, JetScalar, Polynomial, integrate_s3
from grflab.tensors import Geometry, antisym, contract, is_zero, obj_array

X = [Polynomial.variable(i) for i in (1, 2, 3, 4)]


def test_parallel_deformations():
    geo = round_geometry()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            d = parallel_from_invariant_forms(i, j)
            assert is_zero(geo.mixed_covd(d.gamma))
            u, v = geo.twisted_divergence(d.gamma)
            assert is_zero(u) and is_zero(v)
    with pytest.raises(BadIndex):
        parallel_from_invariant_forms(0, 1)


def test_parallel_h_and_k_coupling():
    # (div h)_l = 1/2 K_mk H_mkl and d*K = 0 for the parallel tensors
    geo = round_geometry()
    import numpy as np
    for i in (1, 2, 3):
        d = parallel_from_invariant_forms(i, (i % 3) + 1)
        h, K = d.h, d.K
        dh = geo.covd(h, geo.gamma)
        div_h = np.einsum("mnl,mn->l", dh, geo.ginv)
        want = Fraction(1, 2) * np.einsum("ma,ab,mkl,kb->l",
                                          K, geo.ginv, geo.H, geo.ginv)
        # reindex: 1/2 K_mk H_mkl with indices raised by the round metric
        want = Fraction(1, 2) * np.einsum("mk,mkl->l", K, geo.H)
        assert is_zero(div_h - want)
        assert is_zero(geo.dstar(K))


def test_canonical_deformation():
    assert is_zero(canonical_igsd(Polynomial.zero()).gamma)
    d = canonical_igsd(X[0] * X[1])
    geo = round_geometry()
    assert not is_zero(d.gamma)
    assert is_zero(geo.mixed_covd(d.gamma))
    with pytest.raises(NotEigenfunction):
        canonical_igsd(X[0])
    with pytest.raises(NotEigenfunction):
        canonical_igsd(X[0] * X[0])


def test_span_equality_parallel_vs_canonical():
    space = canonical_space(2)
    par = [parallel_from_invariant_forms(i, j).gamma
           for i in (1, 2, 3) for j in (1, 2, 3)]
    can = [canonical_igsd(u).gamma for u in harmonic_basis(2)]
    rows_par = [[c for p in t.reshape(-1) for c in space.coords(p)] for t in par]
    rows_can = [[c for p in t.reshape(-1) for c in space.coords(p)] for t in can]
    assert linalg.rank(sparse_rows(rows_par)) == 9
    assert linalg.rank(sparse_rows(rows_can)) == 9
    assert linalg.rank(sparse_rows(rows_par + rows_can)) == 9


def test_igsd_kernel_equations_in_degree_k_coordinates(monkeypatch):
    # B(t) and the divergence pair have 15 components, each in harmonic_basis(k) alone
    harmonic_basis(2)
    shapes = []
    kernel_basis = linalg.kernel_basis

    def recording(rows, ncols):
        shapes.append((len(rows), ncols))
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(linalg, "kernel_basis", recording)
    assert len(igsd_kernel(2)) == 9
    assert shapes == [(15, 9), (60, 36), (135, 81)]


def test_igsd_kernel_is_nine_dimensional_through_degree_4():
    kernel = igsd_kernel(4)
    assert len(kernel) == 9
    assert all(d.provenance.startswith("kernel(k=2,") for d in kernel)


def test_equivalence_four_ways():
    geo = round_geometry()
    rep = equivalence_check(parallel_from_invariant_forms(2, 3).gamma)
    assert rep["agree"] and rep["parallel"]
    # gamma = g is consistent too: the mixed connection moves g by the torsion,
    # so all four conditions fail together
    rep_g = equivalence_check(geo.g)
    assert rep_g["agree"]
    assert not rep_g["parallel"] and not rep_g["kernel_of_B"]
    assert is_zero(geo.mixed_covd(geo.g) - geo.H)
    # a sampled non-kernel direction fails all four consistently
    bad = obj_array([[X[0] * X[1], 0, 0], [0, 0, 0], [0, 0, 0]])
    rep_bad = equivalence_check(bad)
    assert rep_bad["agree"]
    assert not rep_bad["parallel"]


def test_integral_identities_values():
    d = parallel_from_invariant_forms(1, 1)
    rep = integral_identities(d.gamma)
    assert rep["chain_holds"] and rep["gradient_norms_equal"] and rep["ricci_identity_holds"]
    assert rep["ring_h"] == IntegralValue(Fraction(-2, 3))
    assert rep["div_h_sq"] == IntegralValue(Fraction(4, 3))
    c = canonical_igsd(X[0] * X[0] - X[1] * X[1])
    rep2 = integral_identities(c.gamma)
    assert rep2["chain_holds"] and rep2["gradient_norms_equal"] and rep2["ricci_identity_holds"]
    with pytest.raises(PreconditionFailed):
        integral_identities(obj_array([[X[0], 0, 0], [0, 0, 0], [0, 0, 0]]))


# each verdict of integral_identities and one integral it compares
_VERDICT_OPERANDS = {"chain_holds": "ring_h", "gradient_norms_equal": "grad_h_sq",
                     "ricci_identity_holds": "ricci_hh"}


@pytest.mark.parametrize("verdict, operand", _VERDICT_OPERANDS.items())
def test_integral_identities_see_a_planted_fault(monkeypatch, verdict, operand):
    # integral_identities takes its integrals in the order of its report's first
    # keys; pi^2 added to the one integral that is the operand breaks its identity
    gamma = parallel_from_invariant_forms(1, 1).gamma
    clean = integral_identities(gamma)
    target = list(clean).index(operand)
    real, index = deformations.integrate_s3, itertools.count()

    def planted(*args):
        value = real(*args)
        return value + IntegralValue(1) if next(index) == target else value

    monkeypatch.setattr(deformations, "integrate_s3", planted)
    rep = integral_identities(gamma)
    assert rep[operand] == clean[operand] + IntegralValue(1)
    assert rep[verdict] is False
    assert all(rep[v] for v in _VERDICT_OPERANDS if v != verdict)


def test_obstruction_values():
    u = X[0] * X[0] - X[1] * X[1]
    w = X[0] * X[0] - X[2] * X[2]
    # oracle: the moment formulas give int u^2 w = pi^2 / 12
    assert integrate_s3(u * u * w) == IntegralValue(Fraction(1, 12))
    assert obstruction(u, w) == IntegralValue(-1)
    for s in (1, -1):
        assert integrability_report(X[0] * X[1] + s * X[2] * X[3])[1]
    pairings, integrable = integrability_report(u)
    assert not integrable
    assert pairings == {i: obstruction(u, w) for i, w in enumerate(harmonic_basis(2))}
    with pytest.raises(NotEigenfunction):
        obstruction(X[0], X[0] * X[1])


def test_obstruction_bilinearity():
    u = X[0] * X[1]
    w = X[0] * X[0] - X[1] * X[1]
    w2 = X[1] * X[2]
    assert obstruction(u, 2 * w) == 2 * obstruction(u, w)
    assert obstruction(u, w + w2) == obstruction(u, w) + obstruction(u, w2)
    assert obstruction(3 * u, w) == 9 * obstruction(u, w)


@pytest.mark.parametrize("u", [X[0] * X[1], X[0] * X[0] - X[1] * X[1]])
def test_jet_formulas_componentwise(u):
    res = jet_second_variation_check(u, X[0] * X[0] - X[2] * X[2])
    assert res["all_formulas_match"], res["checks"]
    assert res["residual"].is_zero


def test_jet_pairing_matches_obstruction_sample():
    rng = random.Random(0)
    basis = harmonic_basis(2)
    for _ in range(4):
        u = basis[rng.randrange(9)]
        w = basis[rng.randrange(9)]
        res = jet_second_variation_check(u, w)
        assert res["residual"].is_zero
        assert res["pairing"] == obstruction(u, w)


def test_jet_check_builds_no_curvature_and_reuses_u_part(monkeypatch):
    # Rc, R and the Bakry-Emery tensor of the jet geometry are traced without
    # forming a curvature endomorphism, and a second w with the same u reuses
    # the whole u part, its one jet Geometry included
    round_geometry()
    calls, jet_geometries = [], []
    curvature, init = Geometry.curvature, Geometry.__init__

    def counting(self, conn):
        calls.append(conn)
        return curvature(self, conn)

    def recording(self, g, *args, **kwargs):
        init(self, g, *args, **kwargs)
        if isinstance(self.g[0, 0], JetScalar):
            jet_geometries.append(self)

    monkeypatch.setattr(Geometry, "curvature", counting)
    monkeypatch.setattr(Geometry, "__init__", recording)
    u = X[0] * X[1]
    _jet_u_part.cache_clear()
    res = jet_second_variation_check(u, X[2] * X[3])
    assert res["all_formulas_match"] and res["residual"].is_zero
    assert calls == [] and len(jet_geometries) == 1
    w = X[0] * X[0] - X[2] * X[2]
    warm = jet_second_variation_check(u, w)
    assert len(jet_geometries) == 1
    _jet_u_part.cache_clear()
    cold = jet_second_variation_check(u, w)
    assert calls == [] and len(jet_geometries) == 2
    assert warm["pairing"] == cold["pairing"] == obstruction(u, w)
    assert warm == cold


def test_cold_jet_u_part_makes_few_sums_and_jet_products(monkeypatch):
    # counts are deterministic, so this guard cannot flake as a timing gate
    # would. Before Rc was the trace of the curvature endomorphism, object
    # contractions went pairwise, d*H and Hess f were cached per Geometry and
    # zero jets returned at once, this made 25,084 Polynomial sums and 4,998
    # jet products; then 3,598 and 1,893, and since Rc and div trace before
    # R_ijk^l and nabla T are formed, 2,314 and 1,191
    u = X[0] * X[1]
    _jet_u_part(u)  # warms round_geometry and canonical_space(4)
    _jet_u_part.cache_clear()
    counts = {"add": 0, "jet_mul": 0}
    add, jet_mul = Polynomial.__add__, JetScalar.__mul__

    def counting_add(self, other):
        counts["add"] += 1
        return add(self, other)

    def counting_jet_mul(self, other):
        counts["jet_mul"] += 1
        return jet_mul(self, other)

    for name in ("__add__", "__radd__"):
        monkeypatch.setattr(Polynomial, name, counting_add)
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(JetScalar, name, counting_jet_mul)
    checks, _ = _jet_u_part(u)
    assert all(checks.values())
    assert counts["add"] <= 2892 and counts["jet_mul"] <= 1488  # 1.25 x today's counts


def test_cold_jet_dstar_h_makes_few_jet_products(monkeypatch):
    # d*H of the jet geometry of u = x1 x2: 810 jet products while it built
    # the whole nabla H before tracing it, 351 since g^-1 meets the symbols first
    u = X[0] * X[1]
    geo0 = round_geometry()
    g = obj_array([[JetScalar(geo0.g[i, j], u * geo0.g[i, j], 0) for j in range(3)]
                   for i in range(3)])
    H = obj_array([[[JetScalar(geo0.H[i, j, k], 2 * u * geo0.H[i, j, k], 0)
                     for k in range(3)] for j in range(3)] for i in range(3)])
    geo = Geometry(g, H)
    calls = []
    jet_mul = JetScalar.__mul__

    def counting(self, other):
        calls.append(1)
        return jet_mul(self, other)

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(JetScalar, name, counting)
    dstar_h = geo.dstar_H
    monkeypatch.undo()
    assert len(calls) <= 438  # 1.25 x today's count
    assert is_zero(dstar_h + contract("mn...,mn->...", geo.covd(geo.H), geo.ginv))
    assert not is_zero(dstar_h)


def test_jet_cache_keys_u_by_its_terms():
    # x1 x2 - x3 x4 built in two term orders is one polynomial, one cache entry
    a = Polynomial({(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    b = Polynomial({(0, 0, 1, 1): -1, (1, 1, 0, 0): 1})
    assert list(a.terms) != list(b.terms) and a == b and hash(a) == hash(b)
    w = X[0] * X[0] - X[1] * X[1]
    _jet_u_part.cache_clear()
    jet_second_variation_check(a, w)
    jet_second_variation_check(b, w)
    info = _jet_u_part.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_jet_report_edits_do_not_reach_the_cache():
    u, w = X[0] * X[1], X[2] * X[3]
    first = jet_second_variation_check(u, w)
    first["checks"]["d2 Rc"] = False
    first["checks"].clear()
    second = jet_second_variation_check(u, w)
    assert len(second["checks"]) == 12 and all(second["checks"].values())
    assert second["all_formulas_match"]


def test_jet_sweep_past_the_cache_size_matches_obstruction():
    # 10 distinct u evict one entry of the 9-entry cache; every pair still
    # pairs to the obstruction, the evicted u included
    basis = harmonic_basis(2)
    us = list(basis) + [basis[0] + basis[4]]
    ws = [basis[2], basis[0] - basis[8]]
    _jet_u_part.cache_clear()
    for u in us + us[:2]:
        for w in ws:
            res = jet_second_variation_check(u, w)
            assert res["all_formulas_match"]
            assert res["pairing"] == obstruction(u, w)
            assert res["residual"].is_zero
    info = _jet_u_part.cache_info()
    assert info.currsize == 9 and info.misses == 12


def test_jet_check_rejects_a_non_eigenfunction_cold_and_warm():
    w = X[0] * X[1]
    for clear in (True, False):
        if clear:
            _jet_u_part.cache_clear()
        else:
            jet_second_variation_check(w, w)
        for bad in (X[0], X[0] * X[0]):
            with pytest.raises(NotEigenfunction):
                jet_second_variation_check(bad, w)
            with pytest.raises(NotEigenfunction):
                jet_second_variation_check(w, bad)


# Counts Polynomial products in a cold igsd_kernel(2): those of two polynomials,
# and those of a nonzero constant polynomial with a nonzero polynomial.
_COUNT_PRODUCTS = """
from grflab.deformations import igsd_kernel
from grflab.poly import Polynomial
mul, counts = Polynomial.__mul__, [0, 0]
def counted(a, b):
    if isinstance(b, Polynomial):
        counts[0] += 1
        if not (a.is_zero or b.is_zero) and (a.is_constant or b.is_constant):
            counts[1] += 1
    return mul(a, b)
Polynomial.__mul__ = Polynomial.__rmul__ = counted
igsd_kernel(2)
print(*counts)
"""


def test_round_point_kernel_multiplies_polynomials_by_numbers():
    # invariant data are Fractions, so the round point's constant-coefficient
    # operators scale polynomials by numbers, and div_f drops the drift term
    # of f = 0: no polynomial is multiplied by a polynomial
    env = dict(os.environ, PYTHONPATH=str(Path(grflab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _COUNT_PRODUCTS], env=env, check=True,
                         capture_output=True, text=True).stdout
    products, constant_products = map(int, out.split())
    assert constant_products == 0
    assert products == 0


def test_igsd_kernel_is_nine_dimensional_at_degree_6():
    kernel = igsd_kernel(6)
    assert len(kernel) == 9
    assert all(d.provenance.startswith("kernel(k=2,") for d in kernel)


def test_gradient_norms_check_sees_a_perturbed_grad_k(monkeypatch):
    gamma = parallel_from_invariant_forms(1, 2).gamma
    K = -antisym(gamma)
    assert not is_zero(K) and integral_identities(gamma)["gradient_norms_equal"]
    covd = Geometry.covd

    def perturbed(self, T, conn=None):
        out = covd(self, T, conn)
        if T.shape == K.shape and is_zero(T - K):
            out = out.copy()
            out[0, 0, 1] = out[0, 0, 1] + 1
        return out

    monkeypatch.setattr(Geometry, "covd", perturbed)
    assert integral_identities(gamma)["gradient_norms_equal"] is False
