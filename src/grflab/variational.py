"""The lambda functional, its first variation, the linearization operators
A and B, the Bianchi and Phi operators, and the second-variation form."""

import math
from fractions import Fraction

import numpy as np

from . import linalg
from .frames import INV_LAPLACIAN, Op
from .harmonics import canonical_space, harmonic_basis, word_matrix
from .poly import Polynomial, as_poly, integrate_s3
from .tensors import contract, obj_array, zeros


class SolverError(RuntimeError):
    pass


class InconsistentSource(RuntimeError):
    pass


def schrodinger_potential(geo):
    """The scalar potential R - |H|^2 / 12 of the lambda eigenproblem: a
    Fraction on exact invariant data, a float64 on float64 data and a
    Polynomial otherwise."""
    return geo.R - Fraction(1, 12) * geo.H2_norm


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


def _float(x):
    """A float64 or an exact constant as a float64, +-inf beyond its range."""
    if not isinstance(x, float):
        x = as_poly(x).constant_value()
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _float_det(geo):
    """det g of a constant metric as a float64, which must be finite and positive."""
    det = _float(geo.det)
    if not 0 < det < math.inf:
        raise SolverError(f"det g = {det} is not a finite positive float64")
    return det


def lambda_min(geo):
    """lambda: the smallest eigenvalue of -4 lap_g + V, V = R - |H|^2/12, for a
    constant V.

    -lap_g >= 0 vanishes only on constants, so the ground state is constant and
    lambda is V itself: a Fraction on exact invariant data, a float64 on
    float64 data. geo.f is not read.
    """
    _float_det(geo)
    lam = schrodinger_potential(geo)
    if isinstance(lam, Polynomial):
        if not lam.is_constant:
            raise ValueError("lambda is implemented for a constant potential")
        lam = lam.constant_value()
    if not math.isfinite(_float(lam)):
        raise SolverError("lambda does not fit in a float64")
    return lam


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


def _symbol(image):
    """The symbol of a linear map on rank-2 tensors with constant coefficients
    in the frame, as ({word w: {(r, s): c}}, number of image components): the
    map sends e_ab (x) phi, (a, b) the s-th slot in frame order, to the sum of
    c E_w phi in its r-th image component. image(t) is the tuple of tensors the
    map sends t to. It runs once, on the formal tensor whose (a, b) entry is
    Op((-1 - s,)), the slot letter of slot s, so it must be built from frame
    derivatives, contractions and numbers. Those only prepend letters, so each
    image word ends in the slot letter it came from, which is stripped.
    """
    formal = obj_array([[Op((-1 - 3 * a - b,)) for b in range(3)] for a in range(3)])
    try:
        comps = np.concatenate([x.reshape(-1) for x in image(formal)])
        if not all(isinstance(x, Op) for x in comps):
            raise TypeError("an image component is not an Op")
    except TypeError as exc:
        raise ValueError("map is not a constant-coefficient frame operator, so it need "
                         f"not keep harmonic degree: {exc}") from exc
    words = {}
    for r, x in enumerate(comps):
        for w, c in x.words.items():
            if not w or w[-1] >= 0:
                raise ValueError(f"map is not linear: image word {w} has no slot letter")
            words.setdefault(w[:-1], {})[r, -1 - w[-1]] = c
    return words, len(comps)


def _block(symbol, k):
    """The degree-k block sum_w C^w (x) D_w of a symbol, as (columns, D): its
    9 n columns {row: int}, n = (k+1)^2, are numerators over the one
    denominator D, the lcm of the denominators of the symbol's coefficients
    times the lcm of those of its word matrices, so each word is scaled to D
    as it is read. Column s n + j is e_ab (x) phi_j, (a, b) the s-th slot and
    phi_j the j-th element of harmonic_basis(k), and row r n + i coordinate i
    of image component r."""
    n = (k + 1) ** 2
    try:
        mats = [word_matrix(k, w) for w in symbol[0]]
    except ValueError as exc:  # the inverse Laplacian met a nonzero mean
        raise InconsistentSource(str(exc)) from exc
    coeffs, dc = linalg.numerators(list(symbol[0].values()))
    dx = math.lcm(*(dw for _, dw in mats))
    cols = [{} for _ in range(9 * n)]
    for coeff, (d, dw) in zip(coeffs, mats):
        scale = dx // dw  # the word's numerators over dx
        for (r, s), c in coeff.items():
            base, c = r * n, c * scale
            for j, dcol in enumerate(d):
                col = cols[s * n + j]
                for i, x in dcol.items():
                    col[base + i] = col.get(base + i, 0) + c * x
    return cols, dc * dx


def degree_kernels(d, image):
    """Exact kernel of a linear map on rank-2 tensors, one list of coordinate
    vectors {column: Fraction} per harmonic degree k = 0..d, in ``_block``'s
    columns of degree k (``coordinate_tensor`` reads one as a tensor), solved
    on the 9 (k+1)^2 tensors with one entry in harmonic_basis(k).
    image(t) is the tuple of tensors the map sends t to.
    The map must have constant coefficients in the frame, as every operator
    at the round point has: it keeps each degree, and its degree-k matrix is
    read off its symbol (see ``_symbol``), so image runs once in all. The
    kernel is solved on the block's integer numerators, handed over as sparse
    rows: scaling by 1/D does not change it, and its reduced echelon basis is
    unique.
    """
    symbol = _symbol(image)
    out = []
    for k in range(d + 1):
        cols = _block(symbol, k)[0]
        rows = [{} for _ in range(symbol[1] * (k + 1) ** 2)]
        for j, col in enumerate(cols):
            for i, x in col.items():
                rows[i][j] = x
        out.append(linalg.kernel_basis(rows, len(cols)))
    return out


def coordinate_tensor(vec, k):
    """The tensor with coordinates vec {column: Fraction} in ``_block``'s
    columns of degree k."""
    n, basis = (k + 1) ** 2, harmonic_basis(k)
    out = zeros((3, 3))
    for col, c in vec.items():
        s, j = divmod(col, n)
        ab = divmod(s, 3)
        out[ab] = out[ab] + basis[j] * c
    return out


def second_variation_numerators(blocks, geo):
    """Exact Gram matrix of the second-variation form -(x, A y), one square
    block per harmonic degree k = 0, 1, ...: A keeps each degree, and distinct
    degrees are L2-orthogonal. The block is Z^T (I_9 (x) G_k) R_k Z: R_k is the
    degree-k block of the symbol of y -> -A y with both slots raised, G_k the
    Gram matrix of harmonic_basis(k) and Z the block's coordinate vectors, as
    ``degree_kernels`` returns them. The product runs on integer numerators of
    R_k, G_k and Z over D_R, D_G and D_Z, and each block comes back as
    (integer numerators, D): every entry over the one D = D_R D_G D_Z^2."""
    symbol = _symbol(lambda t: (geo.raised(-operator_A(t, geo), 0, 1),))
    out = []
    for k, b in enumerate(blocks):
        n = (k + 1) ** 2
        r, dr = _block(symbol, k)
        gram = pairing_matrix(harmonic_basis(k), harmonic_basis(k))
        gram, dg = linalg.numerators([{q: g for q, g in enumerate(row) if g} for row in gram])
        z, dz = linalg.numerators(b)
        gy = []  # (I_9 (x) G_k) R_k z per column z of Z
        for col in z:
            y = linalg.mat_vec(r, col.items(), 9 * n)
            gy.append([sum(g * y[s + q] for q, g in row.items())
                       for s in range(0, 9 * n, n) for row in gram])
        den = dr * dg * dz * dz
        out.append(([[sum(x * v[i] for i, x in zx.items()) for v in gy] for zx in z], den))
    return out


def second_variation_matrix(blocks, geo):
    """``second_variation_numerators`` divided out: one block of exact
    coefficients of pi^2 per harmonic degree."""
    return [[[Fraction(x, den) for x in row] for row in block]
            for block, den in second_variation_numerators(blocks, geo)]


def block_eigenvalues(blocks):
    """The sorted float64 eigenvalues of a list of exact symmetric blocks."""
    return np.sort(np.concatenate([
        np.linalg.eigvalsh(np.array(e, dtype=float)) for e in blocks]))


def slice_tangent_basis(geo, d):
    """Exact basis of {gamma : twisted divergence = 0} at degree <= d, for
    constant (g, H, f): one block of coordinate vectors per harmonic degree,
    as ``degree_kernels`` returns them."""
    return degree_kernels(d, geo.twisted_divergence)
