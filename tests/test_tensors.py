import random
from fractions import Fraction

import numpy as np
import pytest

from grflab.frames import adjoint_matrix, frame_derive, laplacian_scalar
from grflab.poly import JetScalar, Polynomial, as_poly, integrate_s3
from grflab.tensors import (BadRank, Geometry, SingularMetric, TensorField,
                            obj_array, tensor, volume_form, zeros)

X = [Polynomial.variable(i) for i in (1, 2, 3, 4)]
EYE = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]


def round_geo():
    return Geometry(EYE, H=2)


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
    return TensorField(arr)


# -- TensorField basics -------------------------------------------------------

def test_tensor_field_algebra():
    t = tensor([[X[0], 1, 0], [0, X[1], 0], [0, 0, 2]])
    assert (t + t) == 2 * t
    assert (t - t).is_zero
    assert t.sym().comps[0, 1] == Fraction(1, 2)
    assert t.antisym().comps[0, 1] == Fraction(1, 2)
    with pytest.raises(BadRank):
        volume_form().sym()
    with pytest.raises(BadRank):
        TensorField([[1, 2], [3, 4]])


def test_volume_form():
    v = volume_form(2)
    assert v[0, 1, 2] == 2 and v[1, 0, 2] == -2 and v[0, 0, 1] == 0


# -- connections ---------------------------------------------------------------

def test_levi_civita_metric_and_torsion_free():
    rng = random.Random(0)
    for _ in range(5):
        geo = Geometry(rand_metric(rng), H=Fraction(3, 2))
        assert geo.covd(geo.g, geo.gamma).is_zero
        assert geo.torsion(geo.gamma).is_zero


def test_bismut_connections_metric_with_prescribed_torsion():
    rng = random.Random(1)
    for _ in range(5):
        geo = Geometry(rand_metric(rng), H=2)
        assert geo.covd(geo.g, geo.gamma_p).is_zero
        assert geo.covd(geo.g, geo.gamma_m).is_zero
        assert geo.torsion(geo.gamma_p) == TensorField(geo.H)
        assert geo.torsion(geo.gamma_m) == -TensorField(geo.H)


def test_singular_metric_rejected():
    with pytest.raises(SingularMetric):
        Geometry([[1, 1, 0], [1, 1, 0], [0, 0, 1]], H=2)
    with pytest.raises(SingularMetric):
        Geometry([[X[0], 0, 0], [0, 1, 0], [0, 0, 1]], H=0)


# -- curvature of the round critical point -------------------------------------

def test_round_curvature_suite():
    geo = round_geo()
    s = geo.curvature_suite()
    assert s["R"] == 6
    assert s["R+"] == 0
    assert s["Rc"] == 2 * TensorField(EYE)
    assert s["Rc+"].is_zero and s["Rm+"].is_zero
    assert s["H2"] == 8 * TensorField(EYE)
    assert geo.norm_h_squared() == 24
    assert s["dstarH"].is_zero
    assert geo.covd(geo.H, geo.gamma).is_zero
    # constant sectional curvature +1: Rm_ijij = 1 for i != j
    rm = s["Rm"]
    assert rm[0, 1, 1, 0] == 1 and rm[0, 1, 0, 1] == -1


def test_generalized_scalar_and_soliton_tensor():
    geo = round_geo()
    assert geo.bakry_emery().is_zero
    assert geo.bakry_emery(soliton_normalization=False).is_zero
    assert as_poly(geo.generalized_scalar()) == 4
    # with potential: hessian coefficient differs between normalizations
    geo2 = Geometry(EYE, H=2, f=X[0] * X[1])
    d = geo2.bakry_emery(True) - geo2.bakry_emery(False)
    assert d == Fraction(1, 2) * geo2.hessian(geo2.f)


def test_bismut_curvature_dual_path_randomized():
    rng = random.Random(2)
    for _ in range(8):
        geo = Geometry(rand_metric(rng), H=Fraction(rng.randint(1, 3)))
        s = geo.curvature_suite()
        assert geo.bismut_curvature_rhs() == s["Rm+"]
        want = s["Rc"] - Fraction(1, 4) * s["H2"] - Fraction(1, 2) * s["dstarH"]
        assert s["Rc+"] == want
        rplus = geo.scalar_curvature(s["Rc+"])
        assert as_poly(rplus) == as_poly(s["R"]) - Fraction(1, 4) * as_poly(geo.norm_h_squared())


# -- mixed connection suite -----------------------------------------------------

def test_mixed_covd_of_metric_is_torsion():
    geo = round_geo()
    assert geo.mixed_covd(geo.g) == TensorField(geo.H)


def test_mixed_laplacian_dual_path():
    geo = round_geo()
    rng = random.Random(3)
    for _ in range(6):
        t = rand_tensor(rng)
        assert geo.mixed_laplacian_formula(t) == geo.mixed_laplacian_definition(t)
    with pytest.raises(BadRank):
        geo.mixed_covd(volume_form())


def test_mixed_laplacian_of_metric():
    geo = round_geo()
    g = TensorField(geo.g)
    assert geo.mixed_laplacian_formula(g) == Fraction(-8) * g


def test_twisted_divergence_adjointness():
    geo = round_geo()
    rng = random.Random(4)
    for _ in range(4):
        gamma = rand_tensor(rng)
        u = TensorField(obj_array([X[0] * X[1], X[2], X[3] * X[0]]))
        v = TensorField(obj_array([X[1], X[0] * X[2], X[3]]))
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
    assert as_poly(geo.laplacian_f(u)) == Fraction(-8) * u
    f = X[0] * X[1]  # non-constant drift on the round metric
    geo = Geometry(EYE, H=2, f=f)
    u = X[0] * X[2] + X[3]
    want = laplacian_scalar(u)
    for i in (1, 2, 3):
        want = want - frame_derive(f, i) * frame_derive(u, i)
    assert as_poly(geo.laplacian_f(u)) == want


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
    r = as_poly(0) + geo.scalar_curvature(geo.ricci(geo.curvature(geo.gamma)))
    assert r.c0 == 6
    assert r.c1 == Fraction(16) * u - 6 * u  # -2 lap u - u R = 16u - 6u


def test_curvature_kernel_agrees_in_float_and_exact_dtypes():
    from grflab.flow import curvature_quantities
    from grflab.frames import STRUCTURE
    from grflab.tensors import EPS, christoffel, riemann

    def to_float(arr):
        return np.array([float(as_poly(x).constant_value()) for x in arr.reshape(-1)],
                        dtype=float).reshape(arr.shape)

    c = np.array(STRUCTURE, dtype=float)
    vol = to_float(EPS)
    rng = random.Random(21)
    for _ in range(6):
        g = rand_metric(rng)
        s = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        geo = Geometry(g, H=s)
        suite = geo.curvature_suite()
        gf = np.array(g, dtype=float)
        ginv = np.linalg.inv(gf)
        gamma = christoffel(c, gf, ginv)
        rm_plus = riemann(c, gamma + np.einsum("mik,pk->mip", float(s) * vol, ginv) / 2, gf)
        q = curvature_quantities(gf, float(s) * vol)
        pairs = [(gamma, geo.gamma), (rm_plus, suite["Rm+"].comps),
                 (q["Rc"], suite["Rc"].comps), (q["H2"], suite["H2"].comps),
                 (q["Rc+"], suite["Rc+"].comps)]
        for got, exact in pairs:
            assert got.dtype == np.float64
            assert np.abs(got - to_float(exact)).max() <= 1e-12
