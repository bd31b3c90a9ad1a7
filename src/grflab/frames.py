"""Lie-group frame data: structure constants, bi-invariant metrics, torsion
3-forms, and the explicit invariant polynomial frame fields on S^3 = SU(2)."""

from dataclasses import dataclass
from fractions import Fraction

from .poly import JetScalar, Polynomial, as_poly


class BadIndex(IndexError):
    pass


class NotBiInvariant(ValueError):
    pass


@dataclass(frozen=True)
class LieGroupModel:
    """Lie algebra data in a fixed frame.

    c[i][j][k] is the structure constant c^k_{ij} in [e_i, e_j] = c^k_{ij} e_k,
    g0 is the metric matrix in the same frame.
    """

    n: int
    c: tuple
    g0: tuple

    def to_json(self):
        return {
            "n": self.n,
            "c": [[[str(x) for x in row] for row in plane] for plane in self.c],
            "g0": [[str(x) for x in row] for row in self.g0],
        }

    @classmethod
    def from_json(cls, data):
        n = int(data["n"])
        c = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in plane)
            for plane in data["c"]
        )
        g0 = tuple(tuple(Fraction(x) for x in row) for row in data["g0"])
        return cls(n=n, c=c, g0=g0)


@dataclass(frozen=True)
class FrameTable:
    """Ambient R^4 coefficients of the invariant frames on S^3.

    left[i][mu] is the coefficient of d/dx_{mu+1} in the left-invariant field
    E_{i+1}; right[i][mu] the same for the right-invariant field F_{i+1}.
    """

    left: tuple
    right: tuple


def validate_structure(m):
    """Check antisymmetry, Jacobi, and ad-invariance. Returns violation strings."""
    n = m.n
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if m.c[i][j][k] != -m.c[j][i][k]:
                    out.append(f"antisymmetry: c^{k+1}_{{{i+1}{j+1}}} != -c^{k+1}_{{{j+1}{i+1}}}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s = Fraction(0)
                    for p in range(n):
                        s += (m.c[i][j][p] * m.c[p][k][l]
                              + m.c[j][k][p] * m.c[p][i][l]
                              + m.c[k][i][p] * m.c[p][j][l])
                    if s != 0:
                        out.append(f"jacobi: indices ({i+1},{j+1},{k+1},{l+1})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = Fraction(0)
                for p in range(n):
                    s += m.c[i][j][p] * m.g0[p][k] + m.c[i][k][p] * m.g0[j][p]
                if s != 0:
                    out.append(f"ad-invariance: indices ({i+1},{j+1},{k+1})")
    return out


def torsion_form(m):
    """H_{ijk} = g([e_i,e_j], e_k) as a nested tuple, checked totally antisymmetric."""
    n = m.n
    H = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = Fraction(0)
                for p in range(n):
                    s += m.c[i][j][p] * m.g0[p][k]
                H[i][j][k] = s
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if H[i][j][k] != -H[j][i][k] or H[i][j][k] != -H[i][k][j]:
                    raise NotBiInvariant("torsion 3-form is not totally antisymmetric")
    return tuple(tuple(tuple(row) for row in plane) for plane in H)


def _x(i):
    return Polynomial.variable(i)


def _linear(c1, c2, c3, c4):
    # shorthand: c1*x1 + c2*x2 + c3*x3 + c4*x4
    return c1 * _x(1) + c2 * _x(2) + c3 * _x(3) + c4 * _x(4)


def su2_model(orientation=1):
    """Unit-S^3 model: orthonormal invariant frames from quaternion translation.

    The point (x1,x2,x3,x4) is the unit quaternion x4 + x1 i + x2 j + x3 k;
    E_a is right multiplication by the a-th imaginary unit, F_a left
    multiplication. Brackets: [E_i,E_j] = 2 eps_{ijk} E_k, so H_123 = 2.
    orientation=-1 flips the sign of E_3 and F_3, negating H.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    c = tuple(
        tuple(
            tuple(Fraction(2 * orientation * eps.get((i, j, k), 0)) for k in range(3))
            for j in range(3)
        )
        for i in range(3)
    )
    g0 = tuple(tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3))
    model = LieGroupModel(n=3, c=c, g0=g0)

    left = [
        (_linear(0, 0, 0, 1), _linear(0, 0, 1, 0), _linear(0, -1, 0, 0), _linear(-1, 0, 0, 0)),
        (_linear(0, 0, -1, 0), _linear(0, 0, 0, 1), _linear(1, 0, 0, 0), _linear(0, -1, 0, 0)),
        (_linear(0, 1, 0, 0), _linear(-1, 0, 0, 0), _linear(0, 0, 0, 1), _linear(0, 0, -1, 0)),
    ]
    right = [
        (_linear(0, 0, 0, 1), _linear(0, 0, -1, 0), _linear(0, 1, 0, 0), _linear(-1, 0, 0, 0)),
        (_linear(0, 0, 1, 0), _linear(0, 0, 0, 1), _linear(-1, 0, 0, 0), _linear(0, -1, 0, 0)),
        (_linear(0, -1, 0, 0), _linear(1, 0, 0, 0), _linear(0, 0, 0, 1), _linear(0, 0, -1, 0)),
    ]
    if orientation == -1:
        left[2] = tuple(-p for p in left[2])
        right[2] = tuple(-p for p in right[2])
    frame = FrameTable(left=tuple(tuple(r) for r in left),
                       right=tuple(tuple(r) for r in right))
    return model, frame


_SU2_MODEL, _SU2_FRAME = su2_model()


def default_model():
    return _SU2_MODEL


def default_frame():
    return _SU2_FRAME


def apply_vector(coeffs, p):
    """Apply the ambient vector field sum_mu coeffs[mu] d/dx_{mu+1} to p."""
    out = Polynomial.zero()
    for mu in range(4):
        if not coeffs[mu].is_zero:
            out = out + coeffs[mu] * p.diff(mu + 1)
    return out


def vector_bracket(v, w):
    """Bracket [v, w] of two ambient polynomial vector fields (4 components each)."""
    return tuple(apply_vector(v, w[mu]) - apply_vector(w, v[mu]) for mu in range(4))


def frame_derive(p, i, chirality="left"):
    """Directional derivative E_i(p) (or F_i(p)) for i in 1..3."""
    if i not in (1, 2, 3):
        raise BadIndex(f"frame index {i} out of range 1..3")
    if chirality == "left":
        coeffs = _SU2_FRAME.left[i - 1]
    elif chirality == "right":
        coeffs = _SU2_FRAME.right[i - 1]
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
                s = s + _SU2_FRAME.right[j][mu] * _SU2_FRAME.left[a][mu]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)
