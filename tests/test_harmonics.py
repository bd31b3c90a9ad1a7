from fractions import Fraction

import pytest

from grflab.frames import laplacian_scalar
from grflab.harmonics import (canonical_space, harmonic_basis, is_eigenfunction)
from grflab.poly import Polynomial, integrate_s3

X = [Polynomial.variable(i) for i in (1, 2, 3, 4)]


def test_dimensions():
    assert [len(harmonic_basis(k)) for k in range(5)] == [1, 4, 9, 16, 25]


@pytest.mark.parametrize("k", range(5))
def test_eigenvalue_property(k):
    for p in harmonic_basis(k):
        assert laplacian_scalar(p) == Fraction(-k * (k + 2)) * p
        assert is_eigenfunction(p, k)


def test_orthogonality_across_degrees():
    for p in harmonic_basis(2):
        for q in harmonic_basis(3):
            assert integrate_s3(p * q).is_zero
        assert integrate_s3(p).is_zero


def test_canonical_space_roundtrip():
    space = canonical_space(3)
    p = X[0] * X[1] * X[2] - 2 * X[3] + Fraction(1, 5)
    assert space.from_coords(space.coords(p)) == p
    assert len(space.basis) == 1 + 4 + 9 + 16
    with pytest.raises(ValueError):
        space.coords(X[0] * X[0] * X[0] * X[0])


def test_canonical_space_roundtrip_every_monomial_degree_8():
    # coords reads the columns of the inverse: a transposed inverse fails here
    space = canonical_space(8)
    assert len(space.exps) == 285
    for e in space.exps:
        monomial = Polynomial({e: 1})
        assert space.from_coords(space.coords(monomial)) == monomial


def test_poisson_solve():
    space = canonical_space(4)
    x1_4 = X[0] * X[0] * X[0] * X[0]
    rhs = X[0] * X[1] + (x1_4 - integrate_s3(x1_4).coeff / integrate_s3(1).coeff)
    u = space.poisson_solve(rhs)
    assert laplacian_scalar(u) == rhs
    assert integrate_s3(u).is_zero
    with pytest.raises(ValueError):
        space.poisson_solve(Polynomial.constant(1))


def test_spectral_completeness():
    # harmonics of degree <= d span exactly the canonical polynomials of degree <= d
    space = canonical_space(2)
    count = sum(1 for e in space.exps)
    assert count == len(space.basis) == 14
