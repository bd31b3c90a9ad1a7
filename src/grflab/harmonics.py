"""Laplace eigenspaces on S^3 and exact coordinates in the harmonic basis."""

from fractions import Fraction
from functools import lru_cache

from . import linalg
from .frames import INV_LAPLACIAN, frame_derive, laplacian_scalar
from .poly import Polynomial, as_poly, monomial_key


def _homogeneous_exponents(k):
    out = []
    for a1 in range(k + 1):
        for a2 in range(k + 1 - a1):
            for a3 in range(k + 1 - a1 - a2):
                out.append((a1, a2, a3, k - a1 - a2 - a3))
    return out


@lru_cache(maxsize=None)
def harmonic_basis(k):
    """Basis of the eigenspace for eigenvalue k(k+2), as canonical polynomials.

    Computed as the kernel of the ambient R^4 Laplacian on homogeneous
    degree-k polynomials, then restricted to the sphere. Size (k+1)^2.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    exps = _homogeneous_exponents(k)
    lower_index = {e: i for i, e in enumerate(_homogeneous_exponents(k - 2))}
    rows = [{} for _ in lower_index]
    for col, e in enumerate(exps):
        for mu, a in enumerate(e):
            if a >= 2:
                rows[lower_index[e[:mu] + (a - 2,) + e[mu + 1:]]][col] = a * (a - 1)
    basis = [Polynomial({exps[j]: c for j, c in vec.items()})
             for vec in linalg.kernel_basis(rows, len(exps))]
    if len(basis) != (k + 1) ** 2:
        raise RuntimeError(f"degree-{k} eigenspace has dimension {len(basis)}, not {(k + 1) ** 2}")
    return tuple(basis)


def _canonical_exponents(d):
    """All canonical monomial exponents of total degree <= d (x4-power <= 1)."""
    out = []
    for k in range(d + 1):
        for e in _homogeneous_exponents(k):
            if e[3] <= 1:
                out.append(e)
    return out


class CanonicalSpace:
    """Exact coordinates on the span of harmonic_basis(0..d).

    That span equals the full canonical polynomial space of degree <= d,
    so the change-of-basis matrix is square and invertible.
    """

    def __init__(self, d):
        self.d = d
        self.basis = []
        self.eigenvalue = []
        for k in range(d + 1):
            for p in harmonic_basis(k):
                self.basis.append(p)
                self.eigenvalue.append(Fraction(-k * (k + 2)))
        self.exps = _canonical_exponents(d)
        # the index of each monomial key, as a Polynomial's numerators are keyed
        self.exp_index = {monomial_key(e): i for i, e in enumerate(self.exps)}
        if len(self.exps) != len(self.basis):
            raise RuntimeError(f"{len(self.exps)} canonical monomials but {len(self.basis)} "
                               f"harmonics of degree <= {d}")
        # M^T: the basis over self.exps; the rows of (M^T)^-1 are the columns of
        # M^-1, kept as integer numerators over one denominator
        rows = [{self.exp_index[k]: Fraction(n, p.den) for k, n in p.num.items()}
                for p in self.basis]
        self._inv_columns, self._inv_den = linalg.numerators(linalg.mat_inv(rows))

    def coords(self, p):
        """Exact coordinate vector of p in the harmonic basis: the inverse's
        integer columns of p's monomials, weighted by p's integer numerators,
        over the product of the two denominators."""
        p = as_poly(p)
        vec = []
        for e, n in p.num.items():
            idx = self.exp_index.get(e)
            if idx is None:
                raise ValueError(f"polynomial degree exceeds truncation d={self.d}")
            vec.append((idx, n))
        den = p.den * self._inv_den
        return [Fraction(x, den) if x else x for x in
                linalg.mat_vec(self._inv_columns, vec, len(self.exps))]

    def from_coords(self, vec):
        out = Polynomial.zero()
        for c, p in zip(vec, self.basis):
            if c != 0:
                out = out + c * p
        return out

    def poisson_solve(self, rhs):
        """Exact mean-zero solution u of (sum_i E_iE_i) u = rhs.

        The right side must have zero mean (no harmonic-degree-0 component).
        """
        c = self.coords(rhs)
        u = [Fraction(0)] * len(c)
        for i, (ci, ev) in enumerate(zip(c, self.eigenvalue)):
            if ev == 0:
                if ci != 0:
                    raise ValueError("right side has a nonzero mean component")
                continue
            u[i] = ci / ev
        return self.from_coords(u)


@lru_cache(maxsize=None)
def canonical_space(d):
    return CanonicalSpace(d)


@lru_cache(maxsize=None)
def word_matrix(k, word):
    """The exact matrix of the Op word E_{w_1} ... E_{w_n} on harmonic_basis(k),
    as (columns, D): its columns {row: int}, one per basis element, are
    numerators over the one denominator D.

    A frame field E_m keeps each harmonic degree, so its matrix D_m holds the
    degree-k coordinates of E_m phi; a longer word is D_{w_1} times the matrix
    of the rest, over the product of their denominators. INV_LAPLACIAN acts on
    degree k as -1/(k(k+2)): it negates the numerators and multiplies D by
    k(k+2). At k = 0 it must meet a zero source, or ValueError is raised.
    """
    n = (k + 1) ** 2
    if not word:
        return tuple({j: 1} for j in range(n)), 1
    letter, rest = word[0], word[1:]
    if letter == INV_LAPLACIAN:
        tail, dt = word_matrix(k, rest)
        if k == 0:
            if any(tail):
                raise ValueError("right side has a nonzero mean component")
            return tail, dt
        return tuple({i: -x for i, x in col.items()} for col in tail), dt * k * (k + 2)
    if rest:
        (head, dh), (tail, dt) = word_matrix(k, (letter,)), word_matrix(k, rest)
        return tuple({i: x for i, x in enumerate(linalg.mat_vec(head, col.items(), n)) if x}
                     for col in tail), dh * dt
    space = canonical_space(k)
    cols, den = linalg.numerators([
        {i: x for i, x in enumerate(space.coords(frame_derive(phi, letter))[-n:]) if x}
        for phi in harmonic_basis(k)])
    return tuple(cols), den


def is_eigenfunction(u, k):
    """True iff laplacian(u) = -k(k+2) u exactly."""
    u = as_poly(u)
    return laplacian_scalar(u) == Fraction(-k * (k + 2)) * u
