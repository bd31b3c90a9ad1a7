import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grflab.flow import (FlowBlowup, FlowState, dual_path_residual, flow_lambda, grf_rhs,
                         run_flow, soliton_residual, step_rk4)
from grflab import flow, tensors
from grflab.frames import STRUCTURE
from grflab.poly import JetScalar
from grflab.tensors import Geometry, SingularMetric, jet_part, obj_array
from grflab.variational import lambda_min


def round_state(eps=0.0, h0=2.0):
    return FlowState(g=np.diag([1.0 + eps, 1.0, 1.0]), b=np.zeros((3, 3)),
                     H0_coeff=h0)


def test_fixed_point():
    dg, db = grf_rhs(round_state())
    assert np.abs(dg).max() == 0.0
    assert np.abs(db).max() == 0.0
    assert soliton_residual(round_state()) == 0.0


def test_invariant_two_forms_are_closed():
    # (db)_{ijk} = -c^m_{ij} b_{mk} + c^m_{ik} b_{mj} - c^m_{jk} b_{mi} vanishes,
    # which is why the flow keeps H = H0 vol
    c = np.array(STRUCTURE, dtype=float)
    rng = np.random.default_rng(0)
    for _ in range(5):
        b = rng.normal(size=(3, 3))
        b = b - b.T
        db = (-np.einsum("ijm,mk->ijk", c, b) + np.einsum("ikm,mj->ijk", c, b)
              - np.einsum("jkm,mi->ijk", c, b))
        assert np.abs(db).max() < 1e-14


def test_torsion_free_reduction():
    dg, db = grf_rhs(round_state(h0=0.0))
    # plain Ricci flow of the round sphere: dg = -2 Rc = -4 g
    assert np.allclose(dg, -4.0 * np.eye(3))
    assert np.abs(db).max() == 0.0


@pytest.mark.parametrize("a, b", [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)])
def test_linearisation_at_fixed_point(a, b):
    # along g = I + tE with H = 2 vol, d/dt (-2 Rc + H^2/2) at t = 0 is -8 E
    # for each symmetric unit direction E: exactly, and by grf_rhs's central
    # difference
    e = np.zeros((3, 3), dtype=int)
    e[a, b] = e[b, a] = 1
    g = obj_array([[JetScalar(int(i == j), int(e[i, j])) for j in range(3)] for i in range(3)])
    geo = Geometry(g, H=2)
    assert jet_part(-2 * geo.Rc + Fraction(1, 2) * geo.H2, 1).tolist() == (-8 * e).tolist()

    def rhs(h):
        return grf_rhs(FlowState(g=np.eye(3) + h * e, b=np.zeros((3, 3)), H0_coeff=2.0))[0]

    assert np.abs((rhs(1e-5) - rhs(-1e-5)) / 2e-5 + 8 * e).max() <= 1e-8


def test_residual_decays_like_exp_minus_8t():
    # criterion 12's run: the linearisation at (I, 2 vol) is -8 I, so between
    # consecutive samples of t in [0.5, 2] the residual falls like e^(-8t)
    samples = run_flow(round_state(eps=0.01), 1e-3, 2000, sample_every=500)
    late = [(t, r) for t, _, _, r in samples if t >= 0.5 - 1e-9 and r > 1e-9]
    slopes = [math.log(r2 / r1) / (t2 - t1) for (t1, r1), (t2, r2) in zip(late, late[1:])]
    assert len(slopes) == 3
    assert all(abs(s + 8) < 1e-2 for s in slopes), slopes


def test_dual_path_identity_random_states():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = 1.0 + rng.uniform(-0.4, 0.8, 3)
        b = rng.normal(size=(3, 3)) * 0.2
        b = b - b.T
        s = FlowState(g=np.diag(d), b=b, H0_coeff=rng.uniform(0.5, 2.5))
        assert dual_path_residual(s) < 1e-12


def test_rhs_builds_no_curvature_endomorphism(monkeypatch):
    # Rc is traced before R_ijk^l is formed, and the Bismut Ricci tensor is
    # only built when the dual-path check asks for it
    calls, built = [], []
    real = tensors.riemann
    monkeypatch.setattr(tensors, "riemann", lambda *a: calls.append(1) or real(*a))

    class Recording(Geometry):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(flow, "Geometry", Recording)
    dg, db = grf_rhs(round_state(eps=0.1))
    assert calls == [] and len(built) == 1
    cached = built[0].__dict__
    assert "Rc" in cached and "dstar_H" in cached
    assert not {"Rc_plus", "gamma_p", "Rm_dddu", "Rm_plus_dddu"} & cached.keys()
    assert np.array_equal(db, -cached["dstar_H"])
    dual_path_residual(round_state(eps=0.1))
    assert calls == [] and "Rc_plus" in built[1].__dict__


def test_float_g_rate_makes_five_contractions(monkeypatch):
    # one table contraction for the symbols, the trace and two products of
    # Rc (the structure term rides in conn.conn) and one for H^2
    specs = []
    real = tensors.contract
    monkeypatch.setattr(tensors, "contract",
                        lambda spec, *ops: specs.append(spec) or real(spec, *ops))
    for s in [round_state(eps=0.1)] + full_states(6, count=2):
        specs.clear()
        flow._g_rate(s.g, s.H0_coeff)
        assert len(specs) == 5, specs


def test_singular_metric():
    with pytest.raises(SingularMetric):
        grf_rhs(FlowState(g=np.diag([1.0, -1.0, 1.0]), b=np.zeros((3, 3)),
                          H0_coeff=2.0))


def test_rk4_order_by_step_halving():
    def integrate(dt, n):
        s = round_state(eps=0.2)
        for _ in range(n):
            s = step_rk4(s, dt)
        return s.g

    ref = integrate(0.0025, 80)
    e1 = np.abs(integrate(0.01, 20) - ref).max()
    e2 = np.abs(integrate(0.005, 40) - ref).max()
    assert e1 / e2 > 12  # fourth order: ratio near 16 (reference error shrinks it)


def test_berger_run_monotone():
    samples = run_flow(round_state(eps=0.01), 1e-3, 3000, sample_every=300)
    lams = [s[2] for s in samples]
    res = [s[3] for s in samples]
    assert all(b >= a - 1e-8 for a, b in zip(lams, lams[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(res[1:], res[2:]))
    assert res[-1] < res[0]
    assert abs(lams[-1] - 4.0) < 1e-6
    times = [s[0] for s in samples]
    assert times == sorted(times)


def exact_lambda(g, h0):
    """The reference for flow_lambda: lambda of the float64 entries of (g, h0)
    read as exact Fractions and rounded once, with max(1, |R|, |H|^2/12), the
    size of the terms of V = R - |H|^2/12."""
    geo = Geometry([[Fraction(float(x)) for x in row] for row in g], Fraction(h0))
    return float(lambda_min(geo)), max(1.0, abs(float(geo.R)), float(geo.H2_norm) / 12)


def dense_metric(entries, shift):
    b = np.array(entries).reshape(3, 3)
    m = b @ b.T + shift * np.eye(3)
    return (m + m.T) / 2


METRICS = st.one_of(
    st.lists(st.floats(0.1, 10), min_size=3, max_size=3).map(np.diag),
    st.builds(dense_metric, st.lists(st.floats(-1, 1), min_size=9, max_size=9),
              st.floats(0.1, 10)))


@settings(max_examples=60, deadline=None)
@given(METRICS, st.floats(-10, 10))
def test_flow_lambda_is_the_exact_potential_rounded(g, h0):
    # V is a difference, so its float64 error is relative to the size of its terms
    want, scale = exact_lambda(g, h0)
    assert abs(flow_lambda(FlowState(g=g, b=np.zeros((3, 3)), H0_coeff=h0)) - want) \
        <= 1e-12 * scale


def test_blowup_detected():
    # torsion-free round sphere collapses in finite time under plain Ricci flow
    with pytest.raises(FlowBlowup) as exc:
        run_flow(round_state(h0=0.0), 1e-3, 400, sample_every=100)
    assert exc.value.samples  # the samples before the blowup are kept


def test_bad_dt():
    with pytest.raises(ValueError):
        run_flow(round_state(), -1.0, 10)


def full_states(seed, count=6):
    """Seeded states with dense symmetric positive definite g and nonzero b."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = rng.normal(size=(3, 3)) * 0.25
        g = np.eye(3) + a + a.T
        if np.linalg.eigvalsh(g).min() < 0.3:
            continue
        b = rng.normal(size=(3, 3)) * 0.3
        out.append(FlowState(g=g, b=b - b.T, H0_coeff=rng.uniform(0.5, 2.5)))
    return out


def reference_rk4(state, dt):
    """Classical RK4 on the pair (g, b), both rates from grf_rhs."""
    def rhs(g, b):
        return grf_rhs(state.copy_with(g, b, state.t))

    g0, b0 = state.g, state.b
    k1g, k1b = rhs(g0, b0)
    k2g, k2b = rhs(g0 + dt / 2 * k1g, b0 + dt / 2 * k1b)
    k3g, k3b = rhs(g0 + dt / 2 * k2g, b0 + dt / 2 * k2b)
    k4g, k4b = rhs(g0 + dt * k3g, b0 + dt * k3b)
    return (g0 + dt / 6 * (k1g + 2 * k2g + 2 * k3g + k4g),
            b0 + dt / 6 * (k1b + 2 * k2b + 2 * k3b + k4b))


def test_invariant_torsion_is_coclosed_on_full_metrics():
    # d*H = -div H vanishes for every invariant H, so RK4 may carry b as it is
    for s in full_states(3):
        assert not np.array_equal(s.g, np.diag(np.diag(s.g)))
        dg, db = grf_rhs(s)
        assert np.abs(dg).max() > 1e-3
        assert np.abs(db).max() <= 1e-13


def test_step_rk4_integrates_g_and_carries_b():
    for dt in (1e-3, 0.02):
        for s in full_states(4):
            b = s.b.copy()
            nxt = step_rk4(s, dt)
            g_ref, b_ref = reference_rk4(s, dt)
            assert np.abs(nxt.g - g_ref).max() <= 1e-12
            assert np.abs(nxt.b - b_ref).max() <= 1e-12
            assert np.array_equal(nxt.b, b) and np.array_equal(s.b, b)
            assert nxt.t == s.t + dt and nxt.H0_coeff == s.H0_coeff


@pytest.mark.parametrize("g", [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, -1.0, 1.0]),
                               np.diag([1.0, 1.0, -1.0]),
                               np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])],
                         ids=["minor2", "g00", "det", "dense"])
def test_each_leading_minor_rejects_an_indefinite_stage(g):
    # diag(1, -1, -1) has det 1 and diag(-1, -1, 1) a positive 2x2 minor:
    # each leading minor alone decides one of these metrics
    s = FlowState(g=g, b=np.zeros((3, 3)), H0_coeff=2.0)
    for call in (grf_rhs, dual_path_residual, lambda st: step_rk4(st, 1e-3)):
        with pytest.raises(SingularMetric, match="not positive definite"):
            call(s)


# symmetric, as a fault in Rc; antisymmetric, as a fault in the 2-form d*H
PLANTED = np.array([[0.0, 3e-3, 0.0], [3e-3, 0.0, 0.0], [0.0, 0.0, -1e-3]])
PLANTED_FORM = np.array([[0.0, 2e-3, -1e-3], [-2e-3, 0.0, 4e-3], [1e-3, -4e-3, 0.0]])


def test_residuals_see_a_planted_curvature_fault(monkeypatch):
    # Rc feeds dg and the soliton tensor, but not Rc+: the dual path is off
    # by -2 dRc, the soliton residual by |dRc|
    states = [round_state()] + full_states(5, count=3)
    assert all(dual_path_residual(s) <= 1e-12 for s in states)
    assert soliton_residual(states[0]) == 0.0
    real = tensors.Geometry.Rc.func
    monkeypatch.setattr(tensors.Geometry, "Rc", property(lambda self: real(self) + PLANTED))
    for s in states:
        assert dual_path_residual(s) == pytest.approx(2 * 3e-3, rel=1e-6)
    assert soliton_residual(states[0]) == pytest.approx(np.linalg.norm(PLANTED), rel=1e-9)


def test_residuals_see_a_planted_torsion_divergence(monkeypatch):
    # a nonzero d*H = -div H enters db, so both residuals must report it
    state = round_state()
    real = tensors.Geometry.div
    monkeypatch.setattr(tensors.Geometry, "div", lambda self, T, conn=None: (
        real(self, T, conn) + (PLANTED_FORM if T.ndim == 3 else 0)))
    assert np.array_equal(grf_rhs(state)[1], PLANTED_FORM)
    assert dual_path_residual(state) == pytest.approx(4e-3, rel=1e-9)
    assert soliton_residual(state) == pytest.approx(np.linalg.norm(PLANTED_FORM), rel=1e-9)


def test_dual_path_reads_d_star_h_with_the_sign_of_db(monkeypatch):
    # Rc+ = Rc - H^2/4 - d*H/2, so a fault F in the cached d*H that Rc+ carries
    # as -F/2 keeps dg - db + 2 Rc+ = 0 with db = -d*H; read with the wrong
    # sign, the dual path would be off by 2F
    states = [round_state()] + full_states(5, count=2)
    real_dstar, real_rc_plus = tensors.Geometry.dstar_H.func, tensors.Geometry.Rc_plus.func
    monkeypatch.setattr(tensors.Geometry, "dstar_H",
                        property(lambda self: real_dstar(self) + PLANTED_FORM))
    monkeypatch.setattr(tensors.Geometry, "Rc_plus",
                        property(lambda self: real_rc_plus(self) - PLANTED_FORM / 2))
    for s in states:
        assert dual_path_residual(s) <= 1e-12
        assert np.abs(grf_rhs(s)[1] + PLANTED_FORM).max() <= 1e-12
