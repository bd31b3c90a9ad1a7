"""The lambda functional, its first variation, the linearization operators
A and B, the Bianchi and Phi operators, and the second-variation form."""

import math
from fractions import Fraction

import numpy as np

from . import linalg
from .frames import INV_LAPLACIAN, Op
from .harmonics import canonical_space, harmonic_basis, word_matrix
from .poly import IntegralValue, Polynomial, as_poly, integrate_s3
from .tensors import contract, zeros


class SolverError(RuntimeError):
    pass


class InconsistentSource(RuntimeError):
    pass


def schrodinger_potential(geo):
    """The scalar potential R - |H|^2 / 12 of the lambda eigenproblem."""
    return as_poly(geo.R) - Fraction(1, 12) * as_poly(geo.H2_norm)


def _entries(x):
    return x.reshape(-1) if isinstance(x, np.ndarray) else (x,)


def pairing_matrix(xs, ys):
    """The exact matrix [[int_{S^3} sum_e x_e y_e dV for y in ys] for x in xs],
    entries as coefficients of pi^2. x and y are both polynomials or both
    arrays of one shape, paired entry by entry, so a column y that is a raised
    tensor gives the pointwise inner product <x, y>_g."""
    xs, ys = [_entries(x) for x in xs], [_entries(y) for y in ys]
    return [[sum(integrate_s3(a, b).coeff for a, b in zip(x, y, strict=True)) for y in ys]
            for x in xs]


def _float_matrix(entries):
    """(m + m^T) / 2 of the exact matrix m, rejected unless every entry is a finite float64."""
    try:
        m = np.array([[float(x) for x in row] for row in entries])
    except OverflowError as exc:
        raise SolverError("matrix entry does not fit in a float64") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        m = (m + m.T) / 2
    if not np.isfinite(m).all():
        raise SolverError("symmetrized second-variation matrix does not fit in a float64")
    return m


def _float_det(geo):
    """det g of a constant metric as a float64, which must be finite and positive."""
    try:
        det = float(as_poly(geo.det).constant_value())
    except OverflowError:
        det = math.inf
    if not 0 < det < math.inf:
        raise SolverError(f"det g = {det} is not a finite positive float64")
    return det


def lambda_min(geo):
    """(lambda, f): the smallest eigenvalue of -4 lap_g + V, V = R - |H|^2/12,
    and its minimizer, for a constant V.

    -lap_g >= 0 vanishes only on constants, so the ground state is constant and
    lambda is V itself, a Fraction. f is the constant log Vol_g =
    log(2 pi^2 sqrt(det g)), so that int e^{-f} dV_g = 1. geo.f is not read.
    """
    detg = _float_det(geo)
    V = schrodinger_potential(geo)
    if not V.is_constant:
        raise ValueError("lambda is implemented for a constant potential")
    lam = V.constant_value()
    try:
        float(lam)
    except OverflowError as exc:
        raise SolverError("lambda does not fit in a float64") from exc
    return lam, Polynomial.constant(Fraction(math.log(2 * math.pi**2 * math.sqrt(detg))))


def first_variation(geo, gamma):
    """d lambda / dt along gamma: the pairing -int <gamma, Rc^{H,f}> e^{-f} dV_g,
    for a constant f, whose weight e^{-f} is a number."""
    if not geo.f.is_constant:
        raise ValueError("the first variation is implemented for constant f")
    s = geo.inner(gamma, geo.bakry_emery())
    scale = math.exp(-float(geo.f.constant_value())) * math.sqrt(_float_det(geo))
    return float(integrate_s3(s).coeff) * (-math.pi**2) * scale


def curvature_action(geo, gamma, bismut=True):
    """R-ring action: (R(gamma))_{jk} = R_{ijkl} gamma^{il} with Rm or Rm+."""
    rm_up = geo.Rm_plus_up if bismut else geo.Rm_up
    return contract("ijkl,il->jk", rm_up, gamma)


def operator_B(gamma, geo):
    """B(gamma) = -1/2 mixed Laplacian - Bismut curvature action."""
    return (Fraction(-1, 2) * geo.mixed_laplacian_formula(gamma)
            - curvature_action(geo, gamma, bismut=True))


def _poisson_solve_f(geo, rhs):
    """Mean-zero u with laplacian u = rhs; constant f only (drift term vanishes).
    An Op source gives the Op INV_LAPLACIAN o rhs."""
    if not geo.f.is_constant:
        raise ValueError("the u-solve is implemented for constant f")
    if isinstance(rhs, Op):
        return rhs.prepend(INV_LAPLACIAN)
    rhs = as_poly(rhs)
    try:
        return canonical_space(rhs.degree()).poisson_solve(rhs)
    except ValueError as exc:  # the space holds rhs, so only a nonzero mean is left
        raise InconsistentSource(str(exc)) from exc


def operator_A(gamma, geo):
    """A(gamma) = B(gamma) - 1/2 div*_f div_f gamma - 1/2 (nabla+)^2 u.

    u is the exact mean-zero solution of div_f(grad u) = pair divergence of
    the twisted divergence of gamma.
    """
    pair = geo.twisted_divergence(gamma)
    out = operator_B(gamma, geo)
    out = out - Fraction(1, 2) * geo.divergence_adjoint(pair)
    rhs = geo.pair_divergence(pair)
    u = _poisson_solve_f(geo, rhs)
    out = out - Fraction(1, 2) * geo.hessian(u, geo.gamma_p)
    return out


def bianchi_contracted_check(geo):
    """Residual of div_f(Rc - H^2/4 + hess f) - grad(R^{H,f})/2 - <d*_f H, H>/4.

    Must vanish identically for every (g, H, f); returned as a rank-1 array.
    """
    s = geo.Rc - Fraction(1, 4) * geo.H2 + geo.hess_f
    lhs = geo.div_f(s)
    grad_r = geo.covd_scalar(geo.generalized_scalar())
    dsf = geo.dstar_f(geo.H)
    hterm = contract("lcd,cd->l", geo.H, geo.raised(dsf, 0, 1))
    return lhs - grad_r * Fraction(1, 2) - hterm * Fraction(1, 4)


def phi_operator(pair, geo):
    """Phi(u, v) = (-1/2 lap+_f u, -1/2 lap-_f v) on 1-form pairs.

    lap+-_f is the rough f-Laplacian of the Bismut connection nabla+-: both
    derivatives, and the drift (grad f)^m (nabla+- w)_m, are taken along nabla+-.
    """
    u, v = pair
    return (Fraction(-1, 2) * geo.rough_laplacian_f(u, geo.gamma_p),
            Fraction(-1, 2) * geo.rough_laplacian_f(v, geo.gamma_m))


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
    minus_a2 = geo.raised(-operator_A(gamma2, geo), 0, 1)
    return IntegralValue(pairing_matrix([gamma1], [minus_a2])[0][0])


def _symbol(image):
    """The symbol of a linear map on rank-2 tensors with constant coefficients
    in the frame, as ({word w: [(r, s, c)]}, number of image components): the
    map sends e_ab (x) phi, (a, b) the s-th slot in frame order, to the sum of
    c E_w phi in its r-th image component. image(t) is the tuple of tensors the
    map sends t to. It runs once on each formal unit tensor e_ab (x) Op(()), so
    it must be built from frame derivatives, contractions and numbers.
    """
    words = {}
    for s, (a, b) in enumerate(np.ndindex(3, 3)):
        unit = np.full((3, 3), Op(), dtype=object)
        unit[a, b] = Op(())
        try:
            comps = np.concatenate([x.reshape(-1) for x in image(unit)])
            if not all(isinstance(x, Op) for x in comps):
                raise TypeError("an image component is not an Op")
        except TypeError as exc:
            raise ValueError("map is not a constant-coefficient frame operator, so it need "
                             f"not keep harmonic degree: {exc}") from exc
        for r, x in enumerate(comps):
            for w, c in x.words.items():
                words.setdefault(w, []).append((r, s, c))
    return words, len(comps)


def _block(symbol, k):
    """The degree-k block sum_w C^w (x) D_w of a symbol, as its 9 n columns
    {row: Fraction}, n = (k+1)^2: column s n + j is e_ab (x) phi_j, (a, b) the
    s-th slot and phi_j the j-th element of harmonic_basis(k), and row r n + i
    coordinate i of image component r."""
    n = (k + 1) ** 2
    cols = [{} for _ in range(9 * n)]
    for w, entries in symbol[0].items():
        try:
            d = word_matrix(k, w)
        except ValueError as exc:  # the inverse Laplacian met a nonzero mean
            raise InconsistentSource(str(exc)) from exc
        for r, s, c in entries:
            for j, dcol in enumerate(d):
                col = cols[s * n + j]
                for i, x in dcol.items():
                    col[r * n + i] = col.get(r * n + i, 0) + c * x
    return cols


def degree_kernels(d, image):
    """Exact kernel of a linear map on rank-2 tensors, one list per harmonic
    degree k = 0..d, solved on the 9 (k+1)^2 tensors with one entry in
    harmonic_basis(k). image(t) is the tuple of tensors the map sends t to.
    The map must have constant coefficients in the frame, as every operator
    at the round point has: it keeps each degree, and its degree-k matrix is
    read off its symbol (see ``_symbol``), so image runs 9 times in all.
    """
    symbol = _symbol(image)
    out = []
    for k in range(d + 1):
        cols = _block(symbol, k)
        mat = [[col.get(i, 0) for col in cols] for i in range(symbol[1] * (k + 1) ** 2)]
        out.append([_tensor(vec, k) for vec in linalg.kernel_basis(mat)])
    return out


def _tensor(vec, k):
    """The tensor with coordinates vec in ``_block``'s columns of degree k."""
    n = (k + 1) ** 2
    out = zeros((3, 3))
    for s, (a, b) in enumerate(np.ndindex(3, 3)):
        for c, phi in zip(vec[s * n:(s + 1) * n], harmonic_basis(k)):
            if c != 0:
                out[a, b] = out[a, b] + phi * c
    return out


def _coordinates(t, k):
    """The coordinates {column: Fraction} of a tensor of harmonic degree k in
    ``_block``'s columns of degree k; ValueError for any other tensor."""
    space, n = canonical_space(k), (k + 1) ** 2
    out = {}
    for s, p in enumerate(t.reshape(-1)):
        c = space.coords(p)
        if any(c[:-n]):
            raise ValueError(f"tensor is not of harmonic degree {k}")
        out.update((s * n + j, x) for j, x in enumerate(c[-n:]) if x)
    return out


def second_variation_matrix(blocks, geo):
    """Exact Gram matrix of the second-variation form -(x, A y), one square
    block of coefficients of pi^2 per harmonic degree k = 0, 1, ...: A keeps
    each degree, and distinct degrees are L2-orthogonal. The block is
    Z^T (I_9 (x) G_k) R_k Z: R_k is the degree-k block of the symbol of
    y -> -A y with both slots raised, G_k the Gram matrix of harmonic_basis(k)
    and Z the coordinates of the block's tensors."""
    symbol = _symbol(lambda t: (geo.raised(-operator_A(t, geo), 0, 1),))
    out = []
    for k, b in enumerate(blocks):
        n = (k + 1) ** 2
        r, gram = _block(symbol, k), pairing_matrix(harmonic_basis(k), harmonic_basis(k))
        z = [_coordinates(t, k) for t in b]
        gy = []  # (I_9 (x) G_k) R_k z per column z of Z
        for col in z:
            y = linalg.mat_vec(r, col.items(), 9 * n)
            gy.append([sum(g * y[s + q] for q, g in enumerate(row) if g and y[s + q])
                       for s in range(0, 9 * n, n) for row in gram])
        out.append([[sum((x * v[i] for i, x in zx.items()), Fraction(0)) for v in gy]
                    for zx in z])
    return out


def block_eigenvalues(blocks):
    """The sorted float64 eigenvalues of a list of exact symmetric blocks."""
    return np.sort(np.concatenate([
        np.linalg.eigvalsh(_float_matrix(e))
        for e in blocks]))


def slice_tangent_basis(geo, d):
    """Exact basis of {gamma : twisted divergence = 0} at degree <= d, one
    block per harmonic degree, for constant (g, H, f)."""
    return degree_kernels(d, geo.twisted_divergence)
