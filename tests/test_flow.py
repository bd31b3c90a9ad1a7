import math
from fractions import Fraction

import numpy as np
import pytest

from grflab.flow import (FlowBlowup, FlowState, dual_path_residual, grf_rhs,
                         run_flow, soliton_residual, step_rk4)
from grflab import tensors
from grflab.frames import STRUCTURE
from grflab.poly import JetScalar
from grflab.tensors import Geometry, SingularMetric, jet_part, obj_array


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


def test_rhs_builds_one_riemann_tensor(monkeypatch):
    # the Bismut Ricci tensor is only built when the dual-path check asks for it
    calls = []
    real = tensors.riemann
    monkeypatch.setattr(tensors, "riemann", lambda *a: calls.append(1) or real(*a))
    grf_rhs(round_state(eps=0.1))
    assert len(calls) == 1


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


def test_blowup_detected():
    # torsion-free round sphere collapses in finite time under plain Ricci flow
    with pytest.raises(FlowBlowup) as exc:
        run_flow(round_state(h0=0.0), 1e-3, 400, sample_every=100)
    assert exc.value.samples  # the samples before the blowup are kept


def test_bad_dt():
    with pytest.raises(ValueError):
        run_flow(round_state(), -1.0, 10)
