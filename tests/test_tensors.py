import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grflab
from grflab.deformations import round_geometry
from grflab.flow import FlowState, run_flow
from grflab.frames import EPS, STRUCTURE, Op, adjoint_matrix, frame_derive, laplacian_scalar
from grflab.poly import JetScalar, Polynomial, as_jet, as_poly, integrate_s3
from grflab.tensors import (BadRank, Geometry, SingularMetric, antisym, christoffel, contract,
                            is_zero, jet_part, leading_minors, obj_array, riemann, sym,
                            zeros)
from grflab.variational import bianchi_contracted_check, curvature_action

X = [Polynomial.variable(i) for i in (1, 2, 3, 4)]
EYE = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]


def volume_form(coeff=1):
    """The invariant 3-form coeff * e^1 ^ e^2 ^ e^3, components coeff*eps_{ijk}."""
    return obj_array(EPS) * Fraction(coeff)


def round_geo():
    return Geometry(EYE, H=2)


def _torsion(geo, conn):
    """Lowered torsion tensor T_{ijk} of a connection symbol array."""
    t = conn - np.transpose(conn, (1, 0, 2)) - np.array(STRUCTURE)
    return np.einsum("ijp,pk->ijk", t, geo.g)


def rand_metric(rng):
    while True:
        m = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                m[i][j] = m[j][i] = Fraction(rng.randint(-1, 1), rng.randint(1, 3))
            m[i][i] += Fraction(rng.randint(2, 4))
        try:
            Geometry(m, H=1)
            return m
        except SingularMetric:
            continue


def rand_tensor(rng, degree=2):
    from grflab.harmonics import canonical_space
    space = canonical_space(degree)
    arr = zeros((3, 3))
    for i in range(3):
        for j in range(3):
            p = Polynomial.zero()
            for b in space.basis:
                if rng.random() < 0.3:
                    p = p + Fraction(rng.randint(-2, 2), rng.randint(1, 2)) * b
            arr[i, j] = p
    return arr


# -- tensor basics ---------------------------------------------------------------

def test_tensor_field_algebra():
    t = obj_array([[X[0], 1, 0], [0, X[1], 0], [0, 0, 2]])
    assert is_zero((t + t) - 2 * t)
    assert is_zero(t - t)
    assert sym(t)[0, 1] == Fraction(1, 2)
    assert antisym(t)[0, 1] == Fraction(1, 2)
    with pytest.raises(BadRank):
        sym(volume_form())
    with pytest.raises(BadRank):
        antisym(volume_form())
    with pytest.raises(BadRank):
        Geometry([[1, 2], [3, 4]])
    with pytest.raises(BadRank):
        Geometry(EYE, H=EYE)


def test_tensor_helpers_on_mixed_entries():
    # one array holding every kind of component: Polynomial, JetScalar, Fraction, int
    j = JetScalar(X[0], X[1] * X[2], 3)
    a = np.array([[X[0], j, Fraction(1, 2)], [2, 0, X[2] - 1], [Fraction(-1, 3), -j, 1]],
                 dtype=object)
    assert is_zero(a) is False
    assert is_zero(a - a) is True
    assert is_zero(np.array([Polynomial.zero(), JetScalar(), Fraction(0), 0],
                            dtype=object)) is True
    assert is_zero(np.array([JetScalar(0, 0, X[3])], dtype=object)) is False
    s, k = sym(a), antisym(a)
    assert is_zero(s - s.T) and is_zero(k + k.T) and is_zero(s + k - a)
    assert s[0, 1] == Fraction(1, 2) * (j + 2) and k[2, 0] == Fraction(-5, 12)
    assert s[1, 2] == Fraction(1, 2) * (X[2] - 1 - j)
    for order, want in ((0, X[0]), (1, X[1] * X[2]), (2, Polynomial.constant(3))):
        part = jet_part(a, order)
        assert part.shape == (3, 3)
        assert all(isinstance(x, Polynomial) for x in part.reshape(-1))
        assert part[0, 1] == want and part[2, 1] == -want
        const = (X[0], Fraction(1, 2), 2, 0, X[2] - 1, Fraction(-1, 3), 1)
        got = (part[0, 0], part[0, 2], part[1, 0], part[1, 1], part[1, 2], part[2, 0], part[2, 2])
        assert got == (const if order == 0 else (0,) * 7)
    with pytest.raises(BadRank):
        sym(np.array([X[0], 1, j], dtype=object))


def test_volume_form():
    v = volume_form(2)
    assert v[0, 1, 2] == 2 and v[1, 0, 2] == -2 and v[0, 0, 1] == 0



def test_is_zero_builds_no_polynomial(monkeypatch):
    # entries are tested by truth value: none is compared with a Polynomial 0
    zero = np.array([[Polynomial.zero(), JetScalar(), Fraction(0)], [0, 0.0, X[0] - X[0]]],
                    dtype=object)
    nonzero = zeros((3, 3))
    nonzero[2, 2] = JetScalar(0, 0, X[3])
    calls = []
    real = Polynomial.__init__
    monkeypatch.setattr(Polynomial, "__init__",
                        lambda self, *a: calls.append(1) or real(self, *a))
    assert is_zero(zero) is True and is_zero(nonzero) is False
    assert calls == []

# -- connections ---------------------------------------------------------------

def test_levi_civita_metric_and_torsion_free():
    rng = random.Random(0)
    for _ in range(5):
        geo = Geometry(rand_metric(rng), H=Fraction(3, 2))
        assert is_zero(geo.covd(geo.g, geo.gamma))
        assert is_zero(_torsion(geo, geo.gamma))


def test_bismut_connections_metric_with_prescribed_torsion():
    rng = random.Random(1)
    for _ in range(5):
        geo = Geometry(rand_metric(rng), H=2)
        assert is_zero(geo.covd(geo.g, geo.gamma_p))
        assert is_zero(geo.covd(geo.g, geo.gamma_m))
        assert is_zero(_torsion(geo, geo.gamma_p) - geo.H)
        assert is_zero(_torsion(geo, geo.gamma_m) + geo.H)


def test_singular_metric_rejected():
    with pytest.raises(SingularMetric):
        Geometry([[1, 1, 0], [1, 1, 0], [0, 0, 1]], H=2)
    with pytest.raises(SingularMetric):
        Geometry([[X[0], 0, 0], [0, 1, 0], [0, 0, 1]], H=0)
    with pytest.raises(SingularMetric):
        Geometry(np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1]]), np.zeros((3, 3, 3)))


# -- curvature of the round critical point -------------------------------------

def test_round_curvature_suite():
    geo = round_geo()
    assert geo.R == 6
    assert np.einsum("jk,jk->", geo.Rc_plus, geo.ginv) == 0
    assert is_zero(geo.Rc - 2 * obj_array(EYE))
    assert is_zero(geo.Rc_plus) and is_zero(geo.Rm_plus)
    assert is_zero(geo.H2 - 8 * obj_array(EYE))
    assert geo.H2_norm == 24
    assert is_zero(geo.dstar(geo.H))
    assert is_zero(geo.covd(geo.H, geo.gamma))
    # constant sectional curvature +1: Rm_ijij = 1 for i != j
    rm = geo.Rm
    assert rm[0, 1, 1, 0] == 1 and rm[0, 1, 0, 1] == -1


def test_generalized_scalar_and_soliton_tensor():
    geo = round_geo()
    assert is_zero(geo.bakry_emery())
    assert as_poly(geo.generalized_scalar()) == 4
    # with potential: hess f enters with coefficient 1
    geo2 = Geometry(EYE, H=2, f=X[0] * X[1])
    assert not is_zero(geo2.hessian(geo2.f))
    d = geo2.bakry_emery() - geo.bakry_emery()
    assert is_zero(d - geo2.hessian(geo2.f) + Fraction(1, 2) * geo2.i_grad(geo2.f, geo2.H))


def test_bismut_curvature_dual_path_randomized():
    rng = random.Random(2)
    for _ in range(8):
        geo = Geometry(rand_metric(rng), H=Fraction(rng.randint(1, 3)))
        assert is_zero(geo.bismut_curvature_rhs() - geo.Rm_plus)
        want = geo.Rc - Fraction(1, 4) * geo.H2 - Fraction(1, 2) * geo.dstar(geo.H)
        assert is_zero(geo.Rc_plus - want)
        rplus = np.einsum("jk,jk->", geo.Rc_plus, geo.ginv)
        assert as_poly(rplus) == as_poly(geo.R) - Fraction(1, 4) * as_poly(geo.H2_norm)


def test_bismut_curvature_dual_path_with_non_parallel_torsion():
    # H = (2 + x1 x2 - x3/3) vol is not parallel, so the nabla H terms of
    # bismut_curvature_rhs enter with their index order
    H = volume_form() * (2 + X[0] * X[1] - Fraction(1, 3) * X[2])
    geo = Geometry(EYE, H=H)
    assert not is_zero(geo.covd(geo.H))
    assert is_zero(geo.bismut_curvature_rhs() - geo.Rm_plus)


def test_covd_matches_index_loop():
    # reference: the component formula E_m(T_idx) - sum_s conn_s[m, i_s, p] T_{idx with p at s}
    def loop_covd(T, conns):
        out = zeros((3,) * (T.ndim + 1))
        for m in range(3):
            for idx in np.ndindex(*T.shape):
                val = frame_derive(T[idx], m + 1)
                for s, conn in enumerate(conns):
                    for p in range(3):
                        val = val - conn[m, idx[s], p] * T[idx[:s] + (p,) + idx[s + 1:]]
                out[(m,) + idx] = val
        return out

    rng = random.Random(8)
    u = X[0] * X[1]
    jet = obj_array([[JetScalar(EYE[i][j], u * EYE[i][j], 0) for j in range(3)]
                     for i in range(3)])
    for geo in (Geometry(rand_metric(rng), H=Fraction(3, 2), f=X[2]), Geometry(jet, H=2)):
        for T in (rand_tensor(rng, 1)[0], rand_tensor(rng, 1),
                  np.array([rand_tensor(rng, 1) for _ in range(3)])):
            for conns in ((geo.gamma,) * T.ndim, (geo.gamma_m, geo.gamma_p, geo.gamma)[:T.ndim]):
                got, want = geo.covd(T, conns), loop_covd(T, conns)
                assert is_zero(got - want)
                assert [type(x) for x in got.reshape(-1)] == [type(x) for x in want.reshape(-1)]


# -- mixed connection suite -----------------------------------------------------

def test_mixed_covd_of_metric_is_torsion():
    geo = round_geo()
    assert is_zero(geo.mixed_covd(geo.g) - geo.H)


def test_mixed_laplacian_dual_path():
    geo = round_geo()
    rng = random.Random(3)
    for _ in range(6):
        t = rand_tensor(rng)
        assert is_zero(geo.mixed_laplacian_formula(t) - geo.mixed_laplacian_definition(t))
    with pytest.raises(BadRank):
        geo.mixed_covd(volume_form())


def test_mixed_laplacian_of_metric():
    geo = round_geo()
    g = geo.g
    assert is_zero(geo.mixed_laplacian_formula(g) - Fraction(-8) * g)


def test_twisted_divergence_adjointness():
    geo = round_geo()
    rng = random.Random(4)
    for _ in range(4):
        gamma = rand_tensor(rng)
        u = obj_array([X[0] * X[1], X[2], X[3] * X[0]])
        v = obj_array([X[1], X[0] * X[2], X[3]])
        du, dv = geo.twisted_divergence(gamma)
        lhs = integrate_s3(as_poly(geo.inner(du, u) + geo.inner(dv, v)))
        rhs = integrate_s3(as_poly(geo.inner(gamma, geo.divergence_adjoint((u, v)))))
        assert lhs == rhs


def test_mixed_laplacian_self_adjoint():
    geo = round_geo()
    rng = random.Random(5)
    a, b = rand_tensor(rng), rand_tensor(rng)
    lhs = integrate_s3(as_poly(geo.inner(geo.mixed_laplacian_formula(a), b)))
    rhs = integrate_s3(as_poly(geo.inner(a, geo.mixed_laplacian_formula(b))))
    assert lhs == rhs


def test_scalar_laplacian_with_drift():
    geo = Geometry(EYE, H=2, f=Fraction(3, 4))  # constant drift has no effect
    u = X[0] * X[1]
    assert as_poly(geo.div_f(geo.covd_scalar(u))) == Fraction(-8) * u
    f = X[0] * X[1]  # non-constant drift on the round metric
    geo = Geometry(EYE, H=2, f=f)
    u = X[0] * X[2] + X[3]
    want = laplacian_scalar(u)
    for i in (1, 2, 3):
        want = want - frame_derive(f, i) * frame_derive(u, i)
    assert as_poly(geo.div_f(geo.covd_scalar(u))) == want


# -- jets through the geometry --------------------------------------------------

def test_jet_metric_inverse():
    u = X[0] * X[1]
    gj = obj_array([[JetScalar(EYE[i][j], u * EYE[i][j], 0) for j in range(3)]
                    for i in range(3)])
    geo = Geometry(gj, H=2)
    prod = np.einsum("ij,jk->ik", geo.ginv, geo.g)
    for i in range(3):
        for j in range(3):
            want = JetScalar(1 if i == j else 0, 0, 0)
            assert prod[i, j] == want
    # dense: constant off-diagonal t=0 part, non-constant c1 and c2 in every entry
    g0 = [[3, 1, Fraction(1, 2)], [1, 2, 0], [Fraction(1, 2), 0, 4]]
    c1 = [[X[0], X[1] * X[2], 1 - X[3]], [X[1] * X[2], X[2], X[0] * X[3]],
          [1 - X[3], X[0] * X[3], X[1] - X[0]]]
    c2 = [[X[3] * X[3], X[0] + 2, X[1] * X[3]], [X[0] + 2, X[0] * X[2], X[2] - 1],
          [X[1] * X[3], X[2] - 1, X[0] * X[1] * X[2]]]
    gj = obj_array([[JetScalar(g0[i][j], c1[i][j], c2[i][j]) for j in range(3)]
                    for i in range(3)])
    geo = Geometry(gj, H=2)
    for prod in (np.einsum("ij,jk->ik", geo.g, geo.ginv),
                 np.einsum("ij,jk->ik", geo.ginv, geo.g)):
        for i in range(3):
            for j in range(3):
                assert prod[i, j] == JetScalar(1 if i == j else 0, 0, 0)
    assert not any(x.c2.is_zero for x in geo.ginv.reshape(-1))


def test_jet_metric_requires_constant_base():
    gj = obj_array([[JetScalar(X[0] * EYE[i][j] if i == j else 0, 0, 0)
                     for j in range(3)] for i in range(3)])
    with pytest.raises(SingularMetric):
        Geometry(gj, H=2)


def test_jet_curvature_first_order_matches_finite_difference():
    # d/dt of R under g_t = (1+tu)g equals -2 lap u - u R at t=0
    u = X[0] * X[1]
    gj = obj_array([[JetScalar(EYE[i][j], u * EYE[i][j], 0) for j in range(3)]
                    for i in range(3)])
    hj = np.empty((3, 3, 3), dtype=object)
    base = Geometry(EYE, H=2)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                hj[i, j, k] = JetScalar(base.H[i, j, k], 0, 0)
    geo = Geometry(gj, hj, 0)
    r = as_poly(0) + geo.R
    assert r.c0 == 6
    assert r.c1 == Fraction(16) * u - 6 * u  # -2 lap u - u R = 16u - 6u


def _three_term_christoffel(g, ginv, dg=None):
    # the structure terms as three contractions, valid for any g
    c = np.array(STRUCTURE)
    a = (np.einsum("mip,pk->mik", c, g) - np.einsum("mkp,ip->mik", c, g)
         - np.einsum("ikp,mp->mik", c, g))
    if dg is not None:
        a = a + dg + np.einsum("imk->mik", dg) - np.einsum("kmi->mik", dg)
    return np.einsum("mik,pk->mip", a * Fraction(1, 2), ginv)


def _three_term_riemann(conn, g, dconn=None):
    coef = (np.einsum("jkm,iml->ijkl", conn, conn) - np.einsum("ikm,jml->ijkl", conn, conn)
            - np.einsum("ijm,mkl->ijkl", np.array(STRUCTURE), conn))
    if dconn is not None:
        coef = coef + dconn - np.einsum("jikl->ijkl", dconn)
    return np.einsum("ijkp,pl->ijkl", coef, g)


def _dense_jet_metric():
    g0 = [[3, 1, Fraction(1, 2)], [1, 2, 0], [Fraction(1, 2), 0, 4]]
    c1 = [[X[0], X[1] * X[2], 1 - X[3]], [X[1] * X[2], X[2], X[0] * X[3]],
          [1 - X[3], X[0] * X[3], X[1] - X[0]]]
    return obj_array([[JetScalar(g0[i][j], c1[i][j], 0) for j in range(3)] for i in range(3)])


def test_fused_structure_contractions_match_three_term_formulas():
    # one structure contraction in christoffel (g symmetric) and one conn.conn
    # contraction in riemann give the three-term values exactly; riemann is
    # the curvature endomorphism, compared lowered by g
    rng = random.Random(17)
    geos = [Geometry(rand_metric(rng), H=Fraction(rng.randint(1, 3))) for _ in range(4)]
    geos.append(Geometry(_dense_jet_metric(), H=2))
    for geo in geos:
        dg = geo._frame_gradient(geo.g)
        assert (dg is None) == (geo is not geos[-1])
        want = _three_term_christoffel(geo.g, geo.ginv, dg)
        for got in (geo.gamma, christoffel(geo.g, geo.ginv, dg)):
            assert got.shape == want.shape and is_zero(got - want)
        for conn, got in ((geo.gamma, geo.Rm), (geo.gamma_p, geo.Rm_plus)):
            dconn = geo._frame_gradient(conn)
            want = _three_term_riemann(conn, geo.g, dconn)
            lowered = contract("ijkp,pl->ijkl", riemann(conn, dconn), geo.g)
            assert is_zero(got - want) and is_zero(lowered - want)
        assert not is_zero(geo.Rm)


def _term_sizes(geo, conn):
    """The three-term formulas for the symbols of geo and for g^il Rm_ijkl of
    conn with every term by its absolute value: the size of the terms that a
    float64 sum of them rounds against."""
    c, g, ginv, conn = (np.abs(x) for x in (np.array(STRUCTURE), geo.g, geo.ginv, conn))
    a = (np.einsum("mip,pk->mik", c, g) + np.einsum("mkp,ip->mik", c, g)
         + np.einsum("ikp,mp->mik", c, g))
    rm = (np.einsum("jkm,iml->ijkl", conn, conn) + np.einsum("ikm,jml->ijkl", conn, conn)
          + np.einsum("ijm,mkl->ijkl", c, conn))
    return np.einsum("mik,pk->mip", a / 2, ginv), np.einsum("ijkp,pl,il->jk", rm, g, ginv)


# a product below the normal float64 range rounds by up to 2^-1075 absolutely,
# whatever the size of the terms
UNDERFLOW = 1e-320


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=9, max_size=9), st.floats(0.1, 10), st.floats(-4, 4))
def test_fused_structure_contractions_match_three_term_formulas_float64(entries, shift, h0):
    # the same fused contractions on dense SPD float64 metrics, as the flow
    # evaluates them: within 1e-13 of the size of the terms they sum, for the
    # symbols and for the Levi-Civita and Bismut Ricci traces
    b = np.array(entries).reshape(3, 3)
    g = b @ b.T + shift * np.eye(3)
    geo = Geometry((g + g.T) / 2, h0)
    want = _three_term_christoffel(geo.g, geo.ginv).astype(float)
    size = _term_sizes(geo, geo.gamma)[0]
    assert np.all(np.abs(geo.gamma - want) <= 1e-13 * size + UNDERFLOW)
    for conn, rc in ((geo.gamma, geo.Rc), (geo.gamma_p, geo.Rc_plus)):
        assert rc.dtype == np.float64
        want = np.einsum("ijkl,il->jk", _three_term_riemann(conn, geo.g), geo.ginv)
        assert np.all(np.abs(rc - want) <= 1e-13 * _term_sizes(geo, conn)[1] + UNDERFLOW)


def test_ricci_is_the_trace_of_the_curvature_endomorphism():
    # Rc = R_ijk^i equals g^il Rm_ijkl: exactly for exact and jet data, to
    # rounding for float64 flow states
    rng = random.Random(23)
    geos = [Geometry(rand_metric(rng), H=Fraction(rng.randint(1, 3), rng.randint(1, 2)))
            for _ in range(4)]
    geos += [Geometry(_dense_jet_metric(), H=2), round_geometry()]
    for geo in geos:
        for rc, rm, endo in ((geo.Rc, geo.Rm, geo.Rm_dddu),
                             (geo.Rc_plus, geo.Rm_plus, geo.Rm_plus_dddu)):
            assert is_zero(rc - contract("ijkl,il->jk", rm, geo.ginv))
            assert is_zero(rc - contract("ijki->jk", endo))
        assert not is_zero(geo.Rc)
    g0 = np.array([[1.2, 0.1, -0.2], [0.1, 0.9, 0.05], [-0.2, 0.05, 1.1]])
    samples = run_flow(FlowState(g=g0, H0_coeff=1.7), 1e-2, 30,
                       sample_every=10)
    assert len(samples) == 4
    for _, state, _, _ in samples:
        geo = state.geometry
        for rc, rm in ((geo.Rc, geo.Rm), (geo.Rc_plus, geo.Rm_plus)):
            assert rc.dtype == np.float64
            assert np.abs(rc - contract("ijkl,il->jk", rm, geo.ginv)).max() <= 1e-13


def _covd_div(geo, T, conn):
    """g^{mn} (nabla T)_{mn...} with the whole nabla T built first."""
    return contract("mn...,mn->...", geo.covd(T, conn), geo.ginv)


def _covd_div_f(geo, T, conn):
    return _covd_div(geo, T, conn) - contract("m,m...->...", geo.grad_up(geo.f), T)


def _torsion_trace(geo):
    """g^{mn} H_mn^p, zero for a 3-form H."""
    return contract("mn,mnp->p", geo.ginv, geo.H_ddu)


def test_trace_first_divergence_matches_covd():
    # div and div_f trace g^-1 into the symbols before they meet T; the old
    # formula builds nabla T and traces it. Exactly equal on dense rational
    # metrics, a dense jet metric and the round point with formal Op tensors
    rng = random.Random(29)
    geos = [Geometry(rand_metric(rng), H=Fraction(rng.randint(1, 3), rng.randint(1, 2)),
                     f=X[rng.randrange(4)] * X[rng.randrange(4)] - Fraction(1, 3) * X[0])
            for _ in range(2)]
    geos.append(Geometry(_dense_jet_metric(), H=2, f=JetScalar(0, X[0], X[1] * X[2])))
    for geo in geos:
        assert is_zero(_torsion_trace(geo)) and not is_zero(geo.gamma_up)
        for rank in (1, 2, 3):
            T = _rand_linear(rng, rank)
            for conn in (geo.gamma, geo.gamma_p, geo.gamma_m):
                assert is_zero(geo.div(T, conn) - _covd_div(geo, T, conn))
                assert is_zero(geo.div_f(T, conn) - _covd_div_f(geo, T, conn))
            assert is_zero(geo.div(T) - _covd_div(geo, T, geo.gamma))
    geo = round_geometry()
    assert is_zero(_torsion_trace(geo))
    for rank in (1, 2, 3):
        for pos in np.ndindex(*(3,) * rank):
            unit = np.full((3,) * rank, Op(), dtype=object)
            unit[pos] = Op(())
            for conn in (geo.gamma, geo.gamma_p, geo.gamma_m):
                got, want = geo.div_f(unit, conn), _covd_div(geo, unit, conn)
                assert all(isinstance(x, Op) for x in np.ravel(got))
                assert is_zero(got - want)


def test_trace_first_divergence_matches_covd_on_flow_states():
    g0 = np.array([[1.2, 0.1, -0.2], [0.1, 0.9, 0.05], [-0.2, 0.05, 1.1]])
    samples = run_flow(FlowState(g=g0, H0_coeff=1.7), 1e-2, 30,
                       sample_every=10)
    rng = np.random.default_rng(31)
    for _, state, _, _ in samples:
        geo = state.geometry
        assert np.abs(_torsion_trace(geo)).max() <= 1e-13
        for rank in (1, 2, 3):
            T = rng.uniform(-2, 2, (3,) * rank)
            for conn in (geo.gamma, geo.gamma_p, geo.gamma_m):
                got, want = geo.div(T, conn), _covd_div(geo, T, conn)
                assert np.asarray(got).dtype == np.float64
                assert np.abs(got - want).max() <= 1e-13
        assert np.abs(geo.dstar_H + _covd_div(geo, geo.H, geo.gamma)).max() <= 1e-13


def _full_gradient_div(geo, T, conn):
    """div as it was before its frame term was derived traced: the frame
    gradient E_m T_{n...} for every (m, n), traced against g^{mn}."""
    conn_up = contract("mn,nap->map", geo.ginv, geo.gamma if conn is None else conn)
    out = -contract("p,p...->...", contract("mmp->p", conn_up), T)
    grad = geo._frame_gradient(T)
    if grad is not None:
        out = out + contract("mn...,mn->...", grad, geo.ginv)
    idx = "abcd"[:T.ndim]
    for s in range(1, T.ndim):
        out = out - contract(f"m{idx[s]}p,m{idx[1:s]}p{idx[s + 1:]}->{idx[1:]}", conn_up, T)
    return out


_DIV_POLYS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4),
                             st.fractions(-3, 3, max_denominator=4), max_size=3).map(Polynomial)


@st.composite
def _div_geometries(draw):
    """The round point, a random constant exact metric with and without a
    polynomial potential, or a jet metric whose c1 part is a drawn symmetric
    matrix of polynomials, so that g^-1 has frame derivatives."""
    kind = draw(st.sampled_from(["round", "constant", "potential", "jet"]))
    if kind == "round":
        return round_geometry()
    if kind == "jet":
        g0 = [[3, 1, Fraction(1, 2)], [1, 2, 0], [Fraction(1, 2), 0, 4]]
        c1 = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                c1[i][j] = c1[j][i] = draw(_DIV_POLYS)
        return Geometry(obj_array([[JetScalar(g0[i][j], c1[i][j], 0) for j in range(3)]
                                   for i in range(3)]), H=2)
    g = rand_metric(random.Random(draw(st.integers(0, 10 ** 6))))
    H = draw(st.fractions(1, 3, max_denominator=3))
    return Geometry(g, H, draw(_DIV_POLYS) if kind == "potential" else 0)


@settings(max_examples=30, deadline=None)
@given(_div_geometries(), st.integers(1, 4), st.sampled_from([None, "gamma_p", "gamma_m"]),
       st.data())
def test_div_matches_the_full_gradient_form(geo, rank, conn, data):
    # at most nine nonzero entries, which keeps a rank-4 T on a jet metric quick
    T = zeros((3,) * rank)
    for pos in data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * rank), max_size=9)):
        T[pos] = data.draw(_DIV_POLYS)
    conn = None if conn is None else getattr(geo, conn)
    want = _full_gradient_div(geo, T, conn)
    assert is_zero(geo.div(T, conn) - want)
    drift = contract("m,m...->...", geo.grad_up(geo.f), T)
    assert is_zero(geo.div_f(T, conn) - (want - drift))


def test_div_of_a_jet_metric_reads_the_frame_divergence_of_ginv():
    geo = Geometry(_dense_jet_metric(), H=2)
    assert not is_zero(geo.ginv_div)
    for data in ((EYE, 2), (EYE, 2, X[0] * X[1])):
        assert Geometry(*data).ginv_div is None
    assert Geometry(np.eye(3), 2.0).ginv_div is None


def test_div_derives_one_polynomial_per_component(monkeypatch):
    import grflab.tensors as tensors
    calls = []

    def counting(p, i, chirality="left"):
        calls.append(i)
        return frame_derive(p, i, chirality)

    monkeypatch.setattr(tensors, "frame_derive", counting)
    geo = round_geo()
    rng = random.Random(33)
    T = _rand_linear(rng, 3) + X[rng.randrange(4)] * X[rng.randrange(4)]
    assert all(isinstance(x, Polynomial) and x for x in T.reshape(-1))
    got = geo.div(T)
    assert len(calls) == 27
    calls.clear()
    assert is_zero(got - _full_gradient_div(geo, T, None)) and len(calls) == 81


def test_leading_minors_decide_positive_definiteness():
    m = obj_array([[2, 1, 0], [1, 3, Fraction(1, 2)], [0, Fraction(1, 2), 1]])
    assert leading_minors(m) == (2, 5, Fraction(9, 2))
    assert Geometry(m).minors == (2, 5, Fraction(9, 2)) and Geometry(m).det == Fraction(9, 2)
    # Sylvester's criterion against the eigenvalues of random symmetric matrices
    rng = np.random.default_rng(9)
    verdicts = set()
    for _ in range(300):
        a = rng.normal(size=(3, 3))
        m = a + a.T + rng.uniform(-1, 4) * np.eye(3)
        verdict = all(d > 0 for d in leading_minors(m))
        assert verdict == (np.linalg.eigvalsh(m).min() > 0)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_curvature_kernel_agrees_in_float_and_exact_dtypes():
    # one Geometry code for both: float64 (g, H) stays float64 throughout
    def to_float(arr):
        return np.array([float(as_poly(x).constant_value()) for x in arr.reshape(-1)],
                        dtype=float).reshape(arr.shape)

    rng = random.Random(21)
    for _ in range(6):
        g = rand_metric(rng)
        s = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        geo = Geometry(g, H=s)
        fgeo = Geometry(np.array(g, dtype=float), to_float(geo.H))
        pairs = [(fgeo.gamma, geo.gamma), (fgeo.ginv, geo.ginv),
                 (fgeo.Rm_plus, geo.Rm_plus), (fgeo.Rc, geo.Rc), (fgeo.H2, geo.H2),
                 (fgeo.Rc_plus, geo.Rc_plus), (fgeo.dstar(fgeo.H), geo.dstar(geo.H))]
        for got, exact in pairs:
            assert got.dtype == np.float64
            assert np.abs(got - to_float(exact)).max() <= 1e-12


def test_geometry_data_kinds():
    # float64 g with a float or an int H: s * vol in float64
    vol = np.array(EPS, dtype=float)
    for s in (2.0, 2):
        geo = Geometry(np.eye(3), s)
        assert geo.H.dtype == np.float64 and np.array_equal(geo.H, 2.0 * vol)
        assert np.abs(geo.Rc - geo.H2 / 4).max() <= 1e-12
    assert np.array_equal(Geometry(np.eye(3)).H, 0.0 * vol)
    # g and H of different kinds are named, not left to fail inside
    for g, H in ((np.eye(3), Fraction(2)), (np.eye(3), volume_form(2)),
                 (EYE, 2.0), (EYE, 2.0 * vol)):
        with pytest.raises(TypeError, match="float64 .* exact|exact .* float64"):
            Geometry(g, H)


# Every invariant tensor a Geometry holds: its metric data, connections,
# curvatures and the raised tensors its operators contract with.
_INVARIANT = ("g", "H", "ginv", "gamma", "gamma_p", "gamma_m", "Rm", "Rm_plus", "Rc",
              "Rc_plus", "H2", "H_ddu", "H_udu", "H_uud", "H2_du", "HH_up", "Rm_up",
              "Rm_plus_up")


def _non_fractions(geo):
    return [name for name in _INVARIANT
            if any(type(x) is not Fraction for x in getattr(geo, name).reshape(-1))]


def test_exact_invariant_data_are_fractions():
    # exact numbers stay numbers, as float64 data stay floats: no constant Polynomials
    assert _non_fractions(round_geometry()) == []
    rng = random.Random(13)
    for _ in range(3):
        s = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert _non_fractions(Geometry(rand_metric(rng), H=s)) == []


def test_invariant_data_have_no_frame_gradient():
    # one rule for exact and float64 data: no Polynomial or JetScalar entry, no derivative
    geo, fgeo = round_geo(), Geometry(np.eye(3), 2.0)
    for arr in (geo.g, geo.H, geo.gamma_p, fgeo.g, fgeo.H, fgeo.gamma_p):
        assert geo._frame_gradient(arr) is None
    # one function entry among numbers: every entry is differentiated, numbers to 0
    t = obj_array([[X[0], 1, 0], [0, Fraction(1, 2), 0], [0, 0, 2]])
    d = geo._frame_gradient(t)
    assert d.shape == (3, 3, 3)
    assert [d[m, 0, 0] for m in range(3)] == [frame_derive(X[0], m) for m in (1, 2, 3)]
    assert is_zero(d[:, 0, 1:]) and is_zero(d[:, 1:, :])


def test_default_potential_is_one_shared_zero():
    assert Geometry(EYE).f is Geometry(EYE, H=1).f
    assert Geometry(EYE).f.is_zero


def _four_operand_h2(geo):
    return contract("ipq,jrs,pr,qs->ij", geo.H, geo.H, geo.ginv, geo.ginv)


def test_h2_of_a_volume_form_is_its_closed_form():
    # H = s vol gives H^2 = 2 s^2 g / det g: exactly, entry type for entry type,
    # on rational metrics with every off-diagonal entry nonzero
    rng = random.Random(38)
    for _ in range(24):
        m = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                m[i][j] = m[j][i] = Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
            m[i][i] = Fraction(rng.randint(5, 9), 2)  # diagonally dominant
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        geo = Geometry(m, H=s)
        assert geo.volume_coeff == s
        got, want = geo.H2, _four_operand_h2(geo)
        assert [type(x) for x in got.flat] == [type(x) for x in want.flat] == [Fraction] * 9
        assert got.tolist() == want.tolist()
    # float64: the same within rounding
    nrng = np.random.default_rng(38)
    for _ in range(24):
        a = nrng.normal(size=(3, 3))
        geo = Geometry(a @ a.T + 0.3 * np.eye(3), float(nrng.uniform(-10, 10)))
        got, want = geo.H2, _four_operand_h2(geo)
        assert got.dtype == np.float64
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # an order-2 jet metric with a number H
    c2 = [[X[3] * X[3], X[0] + 2, X[1]], [X[0] + 2, X[0] * X[2], X[2] - 1], [X[1], X[2] - 1, 1]]
    gj = obj_array([[JetScalar(x.c0, x.c1, c2[i][j]) for j, x in enumerate(row)]
                    for i, row in enumerate(_dense_jet_metric().tolist())])
    geo = Geometry(gj, H=Fraction(3, 2))
    assert geo.H2.tolist() == _four_operand_h2(geo).tolist()
    # an array H keeps the contraction
    geo = Geometry(EYE, H=volume_form(2))
    assert geo.volume_coeff is None and geo.H2.tolist() == (8 * np.array(EYE)).tolist()


def test_cached_attribute_is_computed_once_per_instance(monkeypatch):
    calls = []
    real = Geometry._ricci
    monkeypatch.setattr(Geometry, "_ricci",
                        lambda self, conn: calls.append(self) or real(self, conn))
    a, b = round_geo(), round_geo()
    assert a.Rc is a.Rc and b.Rc is b.Rc and a.Rc is not b.Rc
    assert len(calls) == 2 and calls[0] is a and calls[1] is b
    assert a.__dict__["Rc"] is a.Rc
    assert Geometry.Rc.__doc__ == Geometry.Rc.func.__doc__
    state = FlowState(g=np.eye(3), H0_coeff=2.0)
    assert state.geometry is state.geometry and "geometry" in state.__dict__


# -- raised tensors against the many-operand contractions -----------------------

def _old_mixed_laplacian_formula(geo, gamma):
    G, H = geo.ginv, geo.H
    d = geo.covd(gamma)
    t2 = -np.einsum("ajb,ma,kb,mik->ij", H, G, G, d)
    t3 = np.einsum("aib,ma,kb,mkj->ij", H, G, G, d)
    t4 = -(np.einsum("jl,la,ia->ij", geo.H2, G, gamma)
           + np.einsum("il,la,aj->ij", geo.H2, G, gamma)) * Fraction(1, 4)
    t5 = -Fraction(1, 2) * np.einsum("abj,cdi,ef,ac,bf,de->ij", H, H, gamma, G, G, G)
    return geo.div_f(d) + t2 + t3 + t4 + t5


def _old_mixed_laplacian_definition(geo, gamma):
    G, H = geo.ginv, geo.H
    T = geo.mixed_covd(gamma)
    out = -geo.div_f(T)
    out = out + Fraction(1, 2) * np.einsum("abi,ac,bd,cdj->ij", H, G, G, T)
    out = out - Fraction(1, 2) * np.einsum("abj,ac,bd,cid->ij", H, G, G, T)
    return -out


def _old_curvature_action(geo, gamma, bismut):
    rm = geo.Rm_plus if bismut else geo.Rm
    return np.einsum("ijkl,ia,lb,ab->jk", rm, geo.ginv, geo.ginv, gamma)


def _old_bianchi_contracted_check(geo):
    s = geo.Rc - Fraction(1, 4) * geo.H2 + geo.hessian(geo.f)
    grad_r = geo.covd_scalar(geo.generalized_scalar())
    dsf = geo.dstar_f(geo.H)
    hterm = np.einsum("ab,lcd,ac,bd->l", dsf, geo.H, geo.ginv, geo.ginv)
    return geo.div_f(s) - grad_r * Fraction(1, 2) - hterm * Fraction(1, 4)


def _old_inner(geo, A, B):
    letters, letters2 = "ijkl"[:A.ndim], "pqrs"[:A.ndim]
    spec = (letters + "," + letters2 + ","
            + ",".join(x + y for x, y in zip(letters, letters2)) + "->")
    return np.einsum(spec, A, B, *([geo.ginv] * A.ndim))


def _rand_rank3(rng):
    """A general 3-tensor: no antisymmetry, a few zero entries."""
    return obj_array([[[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
                       for _ in range(3)] for _ in range(3)])


def _rand_linear(rng, rank):
    """A general tensor of the given rank with entries of degree <= 1."""
    return (_rand_rank3(rng) * X[rng.randrange(4)] + _rand_rank3(rng))[(0,) * (3 - rank)]


def _oracle_geometries():
    """Dense rational metrics off the round point (g^-1 != I), with H = s vol
    and with a general rank-3 H, and a degree-1 potential."""
    rng = random.Random(1101)
    out = []
    for _ in range(2):
        g = rand_metric(rng)
        f = sum((Fraction(rng.randint(-2, 2), 3) * x for x in X), Polynomial.zero())
        s = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        out += [Geometry(g, s, f), Geometry(g, _rand_rank3(rng), f)]
    return rng, out


def test_raised_contractions_match_many_operand_einsums():
    rng, geos = _oracle_geometries()
    for geo in geos:
        assert not is_zero(geo.ginv - obj_array(EYE))
        gamma = rand_tensor(rng, 1)
        assert is_zero(geo.mixed_laplacian_formula(gamma)
                       - _old_mixed_laplacian_formula(geo, gamma))
        assert is_zero(geo.mixed_laplacian_definition(gamma)
                       - _old_mixed_laplacian_definition(geo, gamma))
        for bismut in (True, False):
            assert is_zero(curvature_action(geo, gamma, bismut)
                           - _old_curvature_action(geo, gamma, bismut))
        assert is_zero(bianchi_contracted_check(geo) - _old_bianchi_contracted_check(geo))
    # the general H is not closed, so the Bianchi residual compared above is not zero
    assert not is_zero(_old_bianchi_contracted_check(geos[1]))


def test_inner_matches_many_operand_einsum():
    rng, geos = _oracle_geometries()
    for geo in geos:
        fgeo = Geometry(np.array([[float(as_poly(x).constant_value()) for x in row]
                                  for row in geo.g]), 1.5)
        for rank in (1, 2, 3):
            A, B = _rand_linear(rng, rank), _rand_linear(rng, rank)
            assert geo.inner(A, B) == _old_inner(geo, A, B)
            fa = np.array([rng.uniform(-2, 2) for _ in range(3 ** rank)]).reshape((3,) * rank)
            fb = np.array([rng.uniform(-2, 2) for _ in range(3 ** rank)]).reshape((3,) * rank)
            got = fgeo.inner(fa, fb)
            assert isinstance(got, float)
            assert abs(got - _old_inner(fgeo, fa, fb)) <= 1e-12


# Every spec that src/ hands to contract: the literal ones, then covd's for T
# of rank 1 to 3, div's slot terms for T of rank 2 to 4 and raised's for T of
# rank 1 to 4; "ijkl,il->jk" is g^il Rm_ijkl and "ijki->jk" the trace of the
# curvature endomorphism, which the tests check Rc against, and "mn...,mn->..."
# the full-gradient frame term that the divergence oracles trace.
CONTRACT_SPECS = (
    "mikpq,pq,rk->mir", "mikpq,pq->mik", "imk->mik", "kmi->mik", "mik,pk->mip",
    "jkm,iml->ijkl", "ijm,mkl->ijkl", "jikl->ijkl", "ijkp,pl->ijkl",
    "mn,n->m", "mn,n...->m...", "mn...,mn->...", "m,m...->...", "ijkl,il->jk", "ijki->jk",
    "jk,jk->",
    "mn,nap->map", "mmp->p", "p,p...->...", "jkm,m->jk", "ikm,jmi->jk",
    "iki->k", "mbp,mp->b", "mbp,mpc->bc", "mcp,mbp->bc", "mbp,mpcd->bcd", "mcp,mbpd->bcd",
    "mdp,mbcp->bcd",
    "ipq,jrs,pr,qs->ij", "ij,ij->", "cfj,cei->ijef", "ila,jkb,ab->ijkl",
    "jla,ikb,ab->ijkl", "m,m->", "mjk,mik->ij", "mik,mkj->ij", "ja,ia->ij", "ia,aj->ij",
    "ijef,ef->ij", "cdi,cdj->ij", "cdj,cid->ij", "lcd,cd->l", "mib,jb->mij",
    "mjb,ib->mij", "ij,ja,ib,ab->", "i,j->ij",
    "map,p->ma", "map,pb->mab", "mbp,ap->mab", "map,pbc->mabc", "mbp,apc->mabc",
    "mcp,abp->mabc",
    "pa,a->p", "pa,ab->pb", "pb,ab->ap", "pa,abc->pbc", "pb,abc->apc", "pc,abc->abp",
    "pa,abcd->pbcd", "pb,abcd->apcd", "pc,abcd->abpd", "pd,abcd->abcp",
)


def test_contract_specs_cover_src():
    src = Path(grflab.__file__).parent
    literal = {node.args[0].value
               for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "contract"
               and isinstance(node.args[0], ast.Constant)}
    assert literal and literal <= set(CONTRACT_SPECS)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), _small, max_size=3).map(Polynomial)
_ENTRIES = {
    "fraction": st.one_of(st.just(Fraction(0)), _small),
    # Fraction(float) has a power-of-two denominator up to 2^1074, as cmd_lambda's data
    "float_fraction": st.one_of(st.just(0.0), st.floats(-4, 4)).map(Fraction),
    "polynomial": _polys,
    "mixed": st.one_of(st.just(Fraction(0)), _small, _polys),
    "jet": st.builds(JetScalar, _polys, _polys, _polys),
    "int64": st.integers(-2, 2),
    "float64": st.floats(-4, 4),
}
_DTYPES = {"int64": np.int64, "float64": np.float64}


def _assert_same_result(got, want):
    """Equal values, equal entry types and the same scalar or array kind."""
    assert isinstance(got, np.ndarray) == isinstance(want, np.ndarray)
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.shape == want.shape and got.dtype == want.dtype
        pairs = zip(got.reshape(-1), want.reshape(-1))
    else:
        pairs = [(got, want)]
    for a, b in pairs:
        assert type(a) is type(b) and a == b


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONTRACT_SPECS), st.data())
def test_contract_matches_einsum(spec, data):
    inputs = spec.split("->")[0].split(",")
    extra = data.draw(st.integers(0, 2)) if "..." in spec else 0
    floats = data.draw(st.booleans(), label="float64 data")
    operands = []
    for sub in inputs:
        shape = (3,) * (len(sub.replace("...", "")) + extra * ("..." in sub))
        kind = "float64" if floats else data.draw(
            st.sampled_from(["fraction", "float_fraction", "polynomial", "mixed", "jet", "int64"]))
        entries = data.draw(st.lists(_ENTRIES[kind], min_size=3 ** len(shape),
                                     max_size=3 ** len(shape)), label=kind)
        arr = np.empty(len(entries), dtype=_DTYPES.get(kind, object))
        arr[:] = entries
        operands.append(arr.reshape(shape))
    _assert_same_result(contract(spec, *operands), np.einsum(spec, *operands))


_ZERO_JETS = st.sampled_from([JetScalar(), JetScalar(0, 0, 0), JetScalar(Polynomial.zero())])


def _leibniz(a, b):
    """a * b of two jets by the order-2 Leibniz rule, every product formed."""
    return JetScalar(a.c0 * b.c0, a.c0 * b.c1 + a.c1 * b.c0,
                     a.c0 * b.c2 + 2 * (a.c1 * b.c1) + a.c2 * b.c0)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_ENTRIES["jet"], _ZERO_JETS),
       st.one_of(_ENTRIES["jet"], _ZERO_JETS, _ENTRIES["polynomial"], _ENTRIES["fraction"],
                 st.sampled_from([0, 2, -1])))
def test_jet_products_and_sums_match_leibniz(a, b):
    # zero operands return at once, with the same values and types as the Leibniz path
    jb = as_jet(b)
    sum_want = JetScalar(a.c0 + jb.c0, a.c1 + jb.c1, a.c2 + jb.c2)
    for got, want in ((a * b, _leibniz(a, jb)), (b * a, _leibniz(jb, a)),
                      (a + b, sum_want), (b + a, sum_want)):
        assert type(got) is JetScalar and got == want
    if not a or not b:
        assert a * b is b * a is JetScalar() * 0
    if not b:
        assert a + b is a
    elif not a and isinstance(b, JetScalar):
        assert a + b is b


def test_contract_lifts_float_fractions_against_int64_structure():
    # the flow's exact lambda sample: 2^52 denominators against the int64
    # structure constants, contracted as Python ints with no int64 overflow
    rng = np.random.default_rng(7)
    g = obj_array([[Fraction(float(x)) for x in row] for row in rng.uniform(0.5, 2.0, (3, 3))])
    structure = np.array(STRUCTURE)
    assert max(x.denominator for x in g.flat) >= 2**50
    for spec in ("mip,pk->mik", "mkp,ip->mik", "ikp,mp->mik"):
        _assert_same_result(contract(spec, structure, g), np.einsum(spec, structure, g))
    assert contract("ij,ij->", g, g) == np.einsum("ij,ij->", g, g)


def test_dense_geometry_curvature_builds_few_fractions(monkeypatch):
    import fractions
    g = [[Fraction(7, 2), Fraction(1, 3), Fraction(-2, 5)],
         [Fraction(1, 3), Fraction(9, 4), Fraction(3, 7)],
         [Fraction(-2, 5), Fraction(3, 7), Fraction(11, 3)]]
    built = []
    new = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    geo = Geometry(g, H=Fraction(5, 3))
    values = (geo.Rc_plus, geo.Rc, geo.H2, geo.bismut_curvature_rhs())
    monkeypatch.undo()
    # contracting the Fractions themselves, a Fraction per product and per
    # sum, builds 15,178 here; integer numerators build 2,650
    assert len(built) <= 2700
    assert not is_zero(geo.ginv - obj_array(EYE))
    assert is_zero(values[0] - (values[1] - Fraction(1, 4) * values[2]
                                - Fraction(1, 2) * geo.dstar(geo.H)))
    assert is_zero(values[3] - geo.Rm_plus)
