"""The SU(2) frame data: the epsilon symbol, the structure constants and the
explicit invariant polynomial frame fields on S^3 = SU(2)."""

from itertools import product

from .poly import JetScalar, Polynomial, as_poly


class BadIndex(IndexError):
    pass


# eps[i][j][k], the Levi-Civita symbol on frame indices 0..2
EPS = tuple(tuple(tuple((i - j) * (j - k) * (k - i) // 2 for k in range(3))
                  for j in range(3)) for i in range(3))

# c^k_{ij} = 2 eps_{ijk} in [E_i, E_j] = c^k_{ij} E_k, so H_123 = 2
STRUCTURE = tuple(tuple(tuple(2 * e for e in row) for row in plane) for plane in EPS)

# The point (x1,x2,x3,x4) is the unit quaternion x4 + x1 i + x2 j + x3 k.
# LEFT[i][mu] is the coefficient of d/dx_{mu+1} in the left-invariant field
# E_{i+1} (right multiplication by the i-th imaginary unit), RIGHT[i][mu]
# the same for the right-invariant field F_{i+1} (left multiplication).
_X1, _X2, _X3, _X4 = (Polynomial.variable(i) for i in (1, 2, 3, 4))
LEFT = ((_X4, _X3, -_X2, -_X1),
        (-_X3, _X4, _X1, -_X2),
        (_X2, -_X1, _X4, -_X3))
RIGHT = ((_X4, -_X3, _X2, -_X1),
         (_X3, _X4, -_X1, -_X2),
         (-_X2, _X1, _X4, -_X3))


def validate_structure(c):
    """Check antisymmetry, Jacobi, and ad-invariance of the identity metric for
    structure constants c[i][j][k] = c^k_{ij}. Returns violation strings."""
    r = range(len(c))
    out = []
    for i, j, k in product(r, repeat=3):
        if c[i][j][k] != -c[j][i][k]:
            out.append(f"antisymmetry: c^{k+1}_{{{i+1}{j+1}}} != -c^{k+1}_{{{j+1}{i+1}}}")
    for i, j, k, l in product(r, repeat=4):
        s = sum(c[i][j][p] * c[p][k][l] + c[j][k][p] * c[p][i][l]
                + c[k][i][p] * c[p][j][l] for p in r)
        if s != 0:
            out.append(f"jacobi: indices ({i+1},{j+1},{k+1},{l+1})")
    for i, j, k in product(r, repeat=3):
        if c[i][j][k] + c[i][k][j] != 0:
            out.append(f"ad-invariance: indices ({i+1},{j+1},{k+1})")
    return out


def apply_vector(coeffs, p):
    """Apply the ambient vector field sum_mu coeffs[mu] d/dx_{mu+1} to p."""
    out = Polynomial.zero()
    for mu in range(4):
        if not coeffs[mu].is_zero:
            out = out + coeffs[mu] * p.diff(mu + 1)
    return out


def frame_derive(p, i, chirality="left"):
    """Directional derivative E_i(p) (or F_i(p)) for i in 1..3."""
    if i not in (1, 2, 3):
        raise BadIndex(f"frame index {i} out of range 1..3")
    if chirality == "left":
        coeffs = LEFT[i - 1]
    elif chirality == "right":
        coeffs = RIGHT[i - 1]
    else:
        raise ValueError("chirality must be 'left' or 'right'")
    if isinstance(p, JetScalar):
        return JetScalar(
            apply_vector(coeffs, p.c0),
            apply_vector(coeffs, p.c1),
            apply_vector(coeffs, p.c2),
        )
    return apply_vector(coeffs, as_poly(p))


def laplacian_scalar(p):
    """Sum_i E_i E_i (p) in the left-invariant orthonormal frame (negative spectrum)."""
    total = None
    for i in (1, 2, 3):
        term = frame_derive(frame_derive(p, i), i)
        total = term if total is None else total + term
    return total


def adjoint_matrix():
    """The 3x3 matrix A[j][a] = <E_a, F_j> of quadratic polynomials.

    Row j is the expansion of the right-invariant coframe form on the left
    frame; both frames are Euclidean-orthonormal on the tangent space, so
    the entry is the ambient dot product of the frame coefficient rows.
    """
    out = []
    for j in range(3):
        row = []
        for a in range(3):
            s = Polynomial.zero()
            for mu in range(4):
                s = s + RIGHT[j][mu] * LEFT[a][mu]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)
