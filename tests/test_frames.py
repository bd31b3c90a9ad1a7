from fractions import Fraction

import pytest

from grflab.frames import (LEFT, RIGHT, STRUCTURE, BadIndex, adjoint_matrix, apply_vector,
                           frame_derive, laplacian_scalar, validate_structure)
from grflab.poly import JetScalar, Polynomial, integrate_s3

X = [Polynomial.variable(i) for i in (1, 2, 3, 4)]
NORM = sum((x * x for x in X), Polynomial.zero())


def vector_bracket(v, w):
    """Bracket [v, w] of two ambient polynomial vector fields (4 components each)."""
    return tuple(apply_vector(v, w[mu]) - apply_vector(w, v[mu]) for mu in range(4))


def test_frames_are_tangent():
    # every frame field annihilates |x|^2, so it is tangent to the sphere
    raw_norm = Polynomial({(2, 0, 0, 0): 1, (0, 2, 0, 0): 1,
                           (0, 0, 2, 0): 1}, reduce=False) + Polynomial({(0, 0, 0, 2): 1}, reduce=False)
    for rows in (LEFT, RIGHT):
        for coeffs in rows:
            val = Polynomial.zero()
            for mu in range(4):
                val = val + coeffs[mu] * raw_norm.diff(mu + 1)
            assert val.is_zero


def test_frames_euclidean_orthonormal():
    for rows in (LEFT, RIGHT):
        for i in range(3):
            for j in range(3):
                dot = sum((rows[i][mu] * rows[j][mu] for mu in range(4)),
                          Polynomial.zero())
                assert dot == (NORM if i == j else Polynomial.zero())


def test_bracket_structure_constants():
    # oracle: brute-force commutator of the ambient vector fields
    for i in range(3):
        for j in range(3):
            br = vector_bracket(LEFT[i], LEFT[j])
            for mu in range(4):
                want = Polynomial.zero()
                for k in range(3):
                    want = want + STRUCTURE[i][j][k] * LEFT[k][mu]
                # bracket coefficients agree modulo the sphere relation
                assert br[mu] * NORM == want


def test_left_and_right_frames_commute():
    for i in range(3):
        for j in range(3):
            br = vector_bracket(LEFT[i], RIGHT[j])
            for mu in range(4):
                assert (br[mu] * NORM).is_zero or br[mu].is_zero


def test_validate_structure_flags_violations():
    assert validate_structure(STRUCTURE) == []
    bad = (((0, 1), (1, 0)), ((0, 0), (0, 0)))
    assert any("antisymmetry" in v for v in validate_structure(bad))


def test_frame_derive_basics():
    assert frame_derive(X[0], 1) == X[3]  # E_1 x1 = x4
    with pytest.raises(BadIndex):
        frame_derive(X[0], 4)
    with pytest.raises(ValueError):
        frame_derive(X[0], 1, "middle")
    j = frame_derive(JetScalar(X[0], X[1], 0), 1)
    assert j.c0 == X[3]


def test_laplacian_spectrum_on_coordinates():
    for x in X:
        assert laplacian_scalar(x) == Fraction(-3) * x
    assert laplacian_scalar(X[0] * X[1]) == Fraction(-8) * (X[0] * X[1])
    assert laplacian_scalar(Polynomial.constant(5)).is_zero


def test_stokes_frame_derivatives_integrate_to_zero():
    p = X[0] * X[1] * X[2] + X[3] * X[3] * X[0]
    for i in (1, 2, 3):
        assert integrate_s3(frame_derive(p, i)).is_zero
        assert integrate_s3(frame_derive(p, i, "right")).is_zero


def test_integration_by_parts():
    p, q = X[0] * X[1], X[2] + X[0] * X[0]
    for i in (1, 2, 3):
        lhs = integrate_s3(frame_derive(p, i) * q)
        rhs = -integrate_s3(p * frame_derive(q, i))
        assert lhs == rhs


def test_adjoint_matrix_is_orthogonal():
    A = adjoint_matrix()
    for i in range(3):
        for j in range(3):
            dot = sum((A[i][a] * A[j][a] for a in range(3)), Polynomial.zero())
            assert dot == (Polynomial.constant(1) if i == j else Polynomial.zero())

