import math
import random
from fractions import Fraction

import numpy as np
import pytest

from grflab.harmonics import canonical_space, harmonic_basis
from grflab.poly import IntegralValue, Polynomial, as_poly, integrate_s3
from grflab.tensors import Geometry, is_zero, obj_array, zeros
from grflab.variational import (InconsistentSource, bianchi_contracted_check,
                                first_variation, lambda_min, operator_A, operator_B,
                                phi_operator, phi_relation_check,
                                second_variation_form, second_variation_matrix,
                                slice_tangent_basis)

X = [Polynomial.variable(i) for i in (1, 2, 3, 4)]
EYE = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]


def round_geo():
    return Geometry(EYE, H=2)


def rand_tensor(rng, degree=2):
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


# -- lambda --------------------------------------------------------------------

def test_lambda_at_critical_point():
    r = lambda_min(EYE, 2, 2)
    assert abs(r.value - 4.0) < 1e-9
    assert r.residual < 1e-10
    assert r.f.is_constant
    # normalized minimizer: exp(-f) * Vol = 1
    assert float(r.f.constant_value()) == pytest.approx(math.log(2 * math.pi ** 2))


def test_lambda_torsion_free():
    r = lambda_min(EYE, 0, 2)
    assert abs(r.value - 6.0) < 1e-9


def test_lambda_spectral_shift():
    # scaling the torsion coefficient shifts the constant potential
    r1 = lambda_min(EYE, 2, 2)
    r2 = lambda_min(EYE, 1, 2)
    # |H|^2 = 24 s^2 / 4 -> potential 6 - 2 s^2
    assert r2.value - r1.value == pytest.approx((6 - 0.5) - 4.0, abs=1e-9)
    assert r2.f.is_constant


def test_lambda_degree_zero_is_constant_potential():
    r = lambda_min(EYE, 2, 0)
    assert abs(r.value - 4.0) < 1e-12


# -- first variation ------------------------------------------------------------

def test_first_variation_zero_at_critical_point():
    for a in range(3):
        for b in range(3):
            gamma = obj_array([[1 if (i, j) == (a, b) else 0 for j in range(3)]
                               for i in range(3)])
            assert first_variation(EYE, 2, Fraction(0), gamma) == 0.0


def test_first_variation_negative_along_soliton_tensor():
    g = [[Fraction(3, 2), 0, 0], [0, 1, 0], [0, 0, 1]]
    geo = Geometry(g, H=2)
    gamma = geo.bakry_emery()
    assert not is_zero(gamma)
    assert first_variation(g, 2, Fraction(0), gamma) < 0


def test_first_variation_matches_finite_difference():
    # oracle: central differences of lambda_min along a homogeneous direction
    h = 1e-4
    direction = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]

    def lam(t):
        g = [[Fraction(1 + t * direction[i][j]) if i == j or direction[i][j]
              else Fraction(EYE[i][j]) for j in range(3)] for i in range(3)]
        g[0][0] = Fraction(1) + Fraction(t)
        return lambda_min(g, 2, 0).value

    base = [[Fraction(11, 10), 0, 0], [0, 1, 0], [0, 0, 1]]

    def lam2(t):
        g = [[base[i][j] for j in range(3)] for i in range(3)]
        g[0][0] = g[0][0] + Fraction(t)
        return lambda_min(g, 2, 0).value

    fd = (lam2(Fraction(1, 10000)) - lam2(Fraction(-1, 10000))) / 2e-4
    gamma = obj_array(direction)
    # normalize the weight so that int e^{-f} dV_g = 1
    vol = 2 * math.pi ** 2 * math.sqrt(1.1)
    got = first_variation(base, 2, Fraction(math.log(vol)), gamma)
    assert got == pytest.approx(fd, abs=1e-5)


# -- operators -------------------------------------------------------------------

def test_operator_b_on_metric():
    geo = round_geo()
    g = geo.g
    assert is_zero(operator_B(g, geo) - 4 * g)
    assert is_zero(operator_A(g, geo) - 4 * g)


def test_operator_b_energy_identity():
    # (B(gamma), gamma) = 1/2 ||mixed covd gamma||^2 - (curvature action, gamma)
    # with vanishing Bismut curvature on the round critical point
    geo = round_geo()
    rng = random.Random(0)
    gamma = rand_tensor(rng)
    lhs = integrate_s3(as_poly(geo.inner(operator_B(gamma, geo), gamma)))
    nb = geo.mixed_covd(gamma)
    rhs = Fraction(1, 2) * integrate_s3(as_poly(geo.inner(nb, nb)))
    assert lhs == rhs


def test_operator_a_self_adjoint():
    geo = round_geo()
    rng = random.Random(1)
    for _ in range(3):
        a, b = rand_tensor(rng), rand_tensor(rng)
        lhs = integrate_s3(as_poly(geo.inner(operator_A(a, geo), b)))
        rhs = integrate_s3(as_poly(geo.inner(a, operator_A(b, geo))))
        assert lhs == rhs


def test_operator_a_equals_b_on_slice():
    geo = round_geo()
    basis = slice_tangent_basis(geo, 1)
    for gamma in basis[:5]:
        assert is_zero(operator_A(gamma, geo) - operator_B(gamma, geo))


def test_operator_b_builds_bismut_curvature_once(monkeypatch):
    calls = []
    curvature = Geometry.curvature

    def counting(self, conn):
        calls.append(conn)
        return curvature(self, conn)

    monkeypatch.setattr(Geometry, "curvature", counting)
    geo = round_geo()
    gamma = rand_tensor(random.Random(6), 1)
    assert is_zero(operator_B(gamma, geo) - operator_B(gamma, geo))
    assert len(calls) == 1


# -- Bianchi and Phi --------------------------------------------------------------

def test_contracted_bianchi_randomized():
    rng = random.Random(2)
    space = canonical_space(2)
    for _ in range(5):
        g = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                g[i][j] = g[j][i] = Fraction(rng.randint(-1, 1), 2)
            g[i][i] += Fraction(rng.randint(2, 4))
        f = Polynomial.zero()
        for b in space.basis:
            if rng.random() < 0.4:
                f = f + Fraction(rng.randint(-2, 2), rng.randint(1, 3)) * b
        res = bianchi_contracted_check(g, Fraction(rng.randint(1, 3)), f)
        assert is_zero(res)


def test_bianchi_on_divergence_free():
    geo = round_geo()
    basis = slice_tangent_basis(geo, 1)
    u, v = geo.twisted_divergence(basis[0])
    assert is_zero(u) and is_zero(v)


def test_phi_relation_randomized():
    geo = round_geo()
    rng = random.Random(3)
    for _ in range(4):
        r1, r2 = phi_relation_check(rand_tensor(rng), geo)
        assert is_zero(r1) and is_zero(r2)


def test_phi_without_torsion_is_half_laplacian():
    geo = Geometry(EYE, H=0)
    u = np.array([X[0], X[1] * X[2], X[3]], dtype=object)
    p1, p2 = phi_operator((u, u), geo)
    want = Fraction(-1, 2) * geo.rough_laplacian_f(u)
    assert is_zero(p1 - want) and is_zero(p2 - want)


# -- second variation --------------------------------------------------------------

def test_second_variation_scaling_and_symmetry():
    geo = round_geo()
    rng = random.Random(4)
    a, b = rand_tensor(rng, 1), rand_tensor(rng, 1)
    q_ab = second_variation_form(a, b, geo)
    q_ba = second_variation_form(b, a, geo)
    assert q_ab == q_ba
    q3 = second_variation_form(3 * a, 3 * a, geo)
    assert q3 == 9 * second_variation_form(a, a, geo)


def test_second_variation_equals_gradient_energy_on_slice():
    geo = round_geo()
    for gamma in slice_tangent_basis(geo, 1)[:6]:
        nb = geo.mixed_covd(gamma)
        want = Fraction(-1, 2) * integrate_s3(as_poly(geo.inner(nb, nb)))
        assert second_variation_form(gamma, gamma, geo) == want


def test_second_variation_matrix_stability():
    geo = round_geo()
    basis = slice_tangent_basis(geo, 1)
    m = second_variation_matrix(basis, geo)
    assert m.is_symmetric
    eig = m.eigenvalues()
    assert eig.max() <= 1e-9


def test_inconsistent_source_cannot_happen_but_raises():
    geo = round_geo()
    from grflab.variational import _poisson_solve_f
    with pytest.raises(InconsistentSource):
        _poisson_solve_f(geo, Polynomial.constant(1))
