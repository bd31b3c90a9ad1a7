import random
from fractions import Fraction

import pytest

from grflab import linalg
from grflab.deformations import (MU, Deformation, NotEigenfunction,
                                 PreconditionFailed, canonical_igsd,
                                 equivalence_check,
                                 integrability_report, integral_identities,
                                 jet_second_variation_check, obstruction,
                                 parallel_from_invariant_forms, round_geometry)
from grflab.frames import BadIndex
from grflab.harmonics import harmonic_basis
from grflab.poly import IntegralValue, Polynomial, integrate_s3
from grflab.tensors import Geometry, is_zero, obj_array
from grflab.variational import TensorSpace

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
    ts = TensorSpace(2)
    par = [parallel_from_invariant_forms(i, j).gamma
           for i in (1, 2, 3) for j in (1, 2, 3)]
    can = [canonical_igsd(u).gamma for u in harmonic_basis(2)]
    rows_par = [ts.coords(t) for t in par]
    rows_can = [ts.coords(t) for t in can]
    assert linalg.rank(rows_par) == 9
    assert linalg.rank(rows_can) == 9
    assert linalg.rank(rows_par + rows_can) == 9


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


def test_obstruction_values():
    u = X[0] * X[0] - X[1] * X[1]
    w = X[0] * X[0] - X[2] * X[2]
    # oracle: the moment formulas give int u^2 w = pi^2 / 12
    assert integrate_s3(u * u * w) == IntegralValue(Fraction(1, 12))
    assert obstruction(u, w) == IntegralValue(-1)
    for s in (1, -1):
        rep = integrability_report(X[0] * X[1] + s * X[2] * X[3])
        assert rep.integrable_order2
    rep_bad = integrability_report(u)
    assert not rep_bad.integrable_order2
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


def test_jet_check_builds_curvature_once(monkeypatch):
    # the jet geometry's Riemann tensor serves Rc, R and the Bakry-Emery tensor
    round_geometry()
    calls = []
    curvature = Geometry.curvature

    def counting(self, conn):
        calls.append(conn)
        return curvature(self, conn)

    monkeypatch.setattr(Geometry, "curvature", counting)
    res = jet_second_variation_check(X[0] * X[1], X[2] * X[3])
    assert res["all_formulas_match"] and res["residual"].is_zero
    assert len(calls) == 1
