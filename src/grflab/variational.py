"""The lambda functional, its first variation, the linearization operators
A and B, the Bianchi and Phi operators, and the second-variation form."""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from . import linalg
from .harmonics import canonical_space, harmonic_basis
from .poly import Polynomial, as_poly, integrate_s3
from .tensors import Geometry, TensorField, zeros


class SolverError(RuntimeError):
    pass


class InconsistentSource(RuntimeError):
    pass


@dataclass
class LambdaResult:
    value: float
    f: Polynomial
    residual: float


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _as_geometry(g, H, f=0):
    if isinstance(g, Geometry):
        return g
    return Geometry(g, H, f)


def schrodinger_potential(geo):
    """The scalar potential R - |H|^2 / 12 of the lambda eigenproblem."""
    suite_r = geo.scalar_curvature(geo.ricci(geo.curvature(geo.gamma)))
    return as_poly(suite_r) - Fraction(1, 12) * as_poly(geo.norm_h_squared())


def pairing_matrix(xs, ys, pair):
    """The exact matrix [[int_{S^3} pair(x, y) dV for y in ys] for x in xs],
    entries as coefficients of pi^2."""
    return [[integrate_s3(as_poly(pair(x, y))).coeff for y in ys] for x in xs]


def kernel_span(basis, image):
    """Exact basis of the kernel of a linear map on the span of basis.

    image(t) is the coordinate vector of the map's value on one basis
    element; the columns are turned into equations, and each kernel vector
    comes back as the matching combination of the basis elements.
    """
    eqs = list(zip(*(image(t) for t in basis)))
    out = []
    for vec in linalg.kernel_basis(eqs):
        arr = zeros(basis[0].comps.shape)
        for c, t in zip(vec, basis):
            if c != 0:
                arr = arr + t.comps * c
        out.append(TensorField(arr))
    return out


def _float_matrix(entries):
    try:
        return np.array([[float(x) for x in row] for row in entries])
    except OverflowError as exc:
        raise SolverError("matrix entry does not fit in a float64") from exc


def lambda_min(g, H, degree=2):
    """Smallest eigenvalue of -4 lap_g + (R - |H|^2/12) on polynomials of degree <= d.

    The matrix of the operator in the harmonic basis is assembled exactly;
    only the final symmetric generalized eigensolve is floating point. The
    minimizer is returned as f = -log(psi^2) for the normalized ground state
    psi, expanded to second order around its mean (exact when psi is constant).
    """
    geo = _as_geometry(g, H)
    space = canonical_space(degree)
    V = schrodinger_potential(geo)
    ops = [Fraction(-4) * as_poly(geo.div(geo.covd_scalar(phi))) + V * phi
           for phi in space.basis]
    A = _float_matrix(pairing_matrix(ops, space.basis, operator.mul))
    M = _float_matrix(pairing_matrix(space.basis, space.basis, operator.mul))
    A = (A + A.T) / 2
    M = (M + M.T) / 2
    try:
        w, vecs = scipy.linalg.eigh(A, M)
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(str(exc)) from exc
    lam = float(w[0])
    c = vecs[:, 0]
    residual = float(np.linalg.norm(A @ c - lam * (M @ c)) / np.linalg.norm(c))
    # normalize int psi^2 dV_g = 1 and fix the overall sign
    detg = _det3([[float(x.constant_value()) for x in row] for row in geo.g])
    vol_factor = math.sqrt(detg) * math.pi**2
    norm2 = float(c @ (M @ c)) * vol_factor
    c = c / math.sqrt(norm2)
    if sum(c) < 0:
        c = -c
    # the normalized coefficients scale as det(g)^(-1/4); cut relative to that
    c = np.where(np.abs(c) * detg**0.25 < 1e-12, 0.0, c)
    psi = Polynomial.zero()
    for ci, phi in zip(c, space.basis):
        if ci != 0.0:
            psi = psi + Fraction(float(ci)) * phi
    psi2 = psi * psi
    mean = Fraction(0)
    rest = {}
    for e, cf in psi2.terms.items():
        if sum(e) == 0:
            mean = cf
        else:
            rest[e] = cf
    if mean <= 0:
        raise SolverError("ground state has nonpositive mean square")
    q = Polynomial(rest) * (Fraction(1) / mean)
    f = Polynomial.constant(Fraction(-math.log(float(mean)))) - q + q * q * Fraction(1, 2)
    return LambdaResult(value=lam, f=f, residual=residual)


def first_variation(g, H, f, gamma):
    """d lambda / dt along gamma: the pairing -int <gamma, Rc^{H,f}> e^{-f} dV_g.

    The weight e^{-f} is exact for constant f and a fourth-order series
    around the constant term of f otherwise.
    """
    geo = _as_geometry(g, H, f)
    rchf = geo.bakry_emery(soliton_normalization=True)
    s = geo.inner(gamma, rchf)
    c = geo.f.terms.get((0, 0, 0, 0), Fraction(0))
    phi = geo.f - Polynomial.constant(c)
    w = Polynomial.constant(1)
    term = Polynomial.constant(1)
    for k in range(1, 5):
        term = term * phi * Fraction(-1, k)
        w = w + term
    detg = _det3([[x.constant_value() for x in row] for row in geo.g])
    scale = math.exp(-float(c)) * math.sqrt(float(detg))
    return float(integrate_s3(as_poly(s) * w).coeff) * (-math.pi**2) * scale


def curvature_action(geo, gamma, bismut=True):
    """R-ring action: (R(gamma))_{jk} = R_{ijkl} gamma^{il} with Rm or Rm+."""
    rm = geo.curvature(geo.gamma_p if bismut else geo.gamma).comps
    arr = gamma.comps if isinstance(gamma, TensorField) else gamma
    return TensorField(np.einsum("ijkl,ia,lb,ab->jk", rm, geo.ginv, geo.ginv, arr))


def operator_B(gamma, geo):
    """B(gamma) = -1/2 mixed Laplacian - Bismut curvature action."""
    return (Fraction(-1, 2) * geo.mixed_laplacian_formula(gamma)
            - curvature_action(geo, gamma, bismut=True))


def _poisson_solve_f(geo, rhs):
    """Mean-zero u with laplacian u = rhs; constant f only (drift term vanishes)."""
    if not geo.f.is_constant:
        raise ValueError("the u-solve is implemented for constant f")
    rhs = as_poly(rhs)
    try:
        return canonical_space(rhs.degree()).poisson_solve(rhs)
    except ValueError as exc:  # the space holds rhs, so only a nonzero mean is left
        raise InconsistentSource(str(exc)) from exc


def operator_A(gamma, geo):
    """A(gamma) = B(gamma) - 1/2 div*_f div_f gamma - 1/2 (nabla+)^2 u.

    u is the exact mean-zero solution of laplacian_f u = pair divergence of
    the twisted divergence of gamma.
    """
    pair = geo.twisted_divergence(gamma)
    out = operator_B(gamma, geo)
    out = out - Fraction(1, 2) * geo.divergence_adjoint(pair)
    rhs = geo.pair_divergence(pair)
    u = _poisson_solve_f(geo, rhs)
    out = out - Fraction(1, 2) * geo.hessian(u, geo.gamma_p)
    return out


def bianchi_contracted_check(g, H, f):
    """Residual of div_f(Rc - H^2/4 + hess f) - grad(R^{H,f})/2 - <d*_f H, H>/4.

    Must vanish identically for every (g, H, f); returned as a rank-1 field.
    """
    geo = _as_geometry(g, H, f)
    rc = geo.ricci(geo.curvature(geo.gamma))
    s = rc - Fraction(1, 4) * geo.h_squared() + geo.hessian(geo.f)
    lhs = geo.div_f(s)
    grad_r = geo.covd_scalar(geo.generalized_scalar()).comps
    dsf = geo.dstar_f(geo.H).comps
    hterm = np.einsum("ab,lcd,ac,bd->l", dsf, geo.H, geo.ginv, geo.ginv)
    return TensorField(lhs - grad_r * Fraction(1, 2) - hterm * Fraction(1, 4))


def phi_operator(pair, geo):
    """Phi(u, v) = (-1/2 lap+_f u, -1/2 lap-_f v) on 1-form pairs."""
    u, v = pair

    def lap_pm(w, sign):
        arr = w.comps if isinstance(w, TensorField) else w
        d = geo.covd(arr).comps
        base = geo.div_f(d)
        t1 = np.einsum("abl,am,bk,mk->l", geo.H, geo.ginv, geo.ginv, d)
        h2 = geo.h_squared().comps
        t2 = np.einsum("jl,ja,a->l", h2, geo.ginv, arr)
        return TensorField(base + sign * t1 - Fraction(1, 4) * t2)

    return (Fraction(-1, 2) * lap_pm(u, 1), Fraction(-1, 2) * lap_pm(v, -1))


def phi_relation_check(gamma, geo):
    """Residual pair of the identity Bianchi(B(gamma)) = Phi(twisted divergence)."""
    lhs = geo.twisted_divergence(operator_B(gamma, geo))
    rhs = phi_operator(geo.twisted_divergence(gamma), geo)
    return (lhs[0] - rhs[0], lhs[1] - rhs[1])


def second_variation_form(gamma1, gamma2, geo):
    """The quadratic form -(gamma1, A gamma2), an exact multiple of pi^2.

    Computed with the unweighted round measure; geo.f must be constant (the
    constant weight rescales the form without changing kernel or sign).
    """
    a2 = operator_A(gamma2, geo)
    return -integrate_s3(as_poly(geo.inner(gamma1, a2)))


@dataclass
class OperatorMatrix:
    basis: list
    entries: list  # exact Fractions, coefficients of pi^2

    @property
    def dim(self):
        return len(self.basis)

    @property
    def is_symmetric(self):
        e = self.entries
        return all(e[i][j] == e[j][i] for i in range(self.dim) for j in range(self.dim))

    def eigenvalues(self):
        m = _float_matrix(self.entries)
        return np.linalg.eigvalsh((m + m.T) / 2)


class TensorSpace:
    """Exact coordinates on tensors with coefficients of degree <= d: each
    component in the harmonic basis of canonical_space(d)."""

    def __init__(self, d):
        self.space = canonical_space(d)

    def basis(self, degree=None):
        """Rank-2 basis tensors in (a, b, harmonic index) order: of the whole
        space, or of the harmonic degree-`degree` block only."""
        polys = self.space.basis if degree is None else harmonic_basis(degree)
        out = []
        for a in range(3):
            for b in range(3):
                for phi in polys:
                    arr = zeros((3, 3))
                    arr[a, b] = phi
                    out.append(TensorField(arr))
        return out

    def coords(self, *tensors):
        """Coordinates of the components of rank-1 or rank-2 tensors, each in
        row-major order, concatenated."""
        out = []
        for t in tensors:
            for p in t.comps.reshape(-1):
                out.extend(self.space.coords(p))
        return out


def second_variation_matrix(basis, geo):
    """Exact Gram matrix of the second-variation form -(x, A y) on the given basis."""
    images = [-operator_A(b, geo) for b in basis]
    return OperatorMatrix(basis=basis, entries=pairing_matrix(basis, images, geo.inner))


def slice_tangent_basis(geo, d):
    """Exact basis of {gamma : twisted divergence = 0} at degree <= d."""
    ts = TensorSpace(d)
    return kernel_span(ts.basis(), lambda t: ts.coords(*geo.twisted_divergence(t)))
