"""The SU(2) frame data: the epsilon symbol, the structure constants, the
explicit invariant polynomial frame fields on S^3 = SU(2), and the formal
scalar ``Op`` of constant-coefficient frame operators."""

from fractions import Fraction
from itertools import product

from .poly import JetScalar, Polynomial, _canonicalize, as_poly, exponents, monomial_key


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


# The letter of the inverse Laplacian (sum_i E_i E_i)^-1 on mean-zero functions
# in an Op word. It commutes with every E_i, as the Casimir does.
INV_LAPLACIAN = 0


class Op:
    """A formal scalar: the constant-coefficient frame operator
    sum_w c_w E_{w_1} E_{w_2} ... E_{w_n}, stored as ``words`` {word: Fraction or int}
    without zero coefficients. Op(word) is one word with coefficient 1, Op(())
    the identity and Op() zero. Letters 1..3 are the frame fields E_i,
    INV_LAPLACIAN is the inverse Laplacian, and the negative slot letters
    mark the entry of a formal tensor that a word came from.

    Run through the tensor calculus in place of functions, Ops read off the
    symbol of a linear operator with constant coefficients in the frame. So Ops
    add and subtract, scale by numbers (a constant Polynomial by its value) and
    never multiply each other; a zero number or polynomial adds as zero.
    """

    __slots__ = ("words",)

    def __init__(self, word=None):
        self.words = {} if word is None else {tuple(word): 1}

    @classmethod
    def _of(cls, words):
        out = cls.__new__(cls)
        out.words = words
        return out

    def prepend(self, letter):
        """The operator letter o self: each word with letter in front."""
        return Op._of({(letter,) + w: c for w, c in self.words.items()})

    def __bool__(self):
        return bool(self.words)

    def __add__(self, other):
        if not isinstance(other, Op):
            # the int 0 that einsum starts each sum from, or a zero polynomial
            zero = isinstance(other, (int, Fraction, Polynomial)) and not other
            return self if zero else NotImplemented
        new = dict(self.words)
        for w, c in other.words.items():
            new[w] = new.get(w, 0) + c
        return Op._of({w: c for w, c in new.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return Op._of({w: -c for w, c in self.words.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, Polynomial) and other.is_constant:
            other = other.constant_value()
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Op._of({w: c * other for w, c in self.words.items()} if other else {})

    __rmul__ = __mul__


def _signed_coordinates(row):
    """A frame row as (mu, d, s): the coefficient of d/dx_{mu+1} is one signed
    coordinate s * x_{nu+1}, which moves a monomial key by the difference d of
    the keys of x_{nu+1} and x_{mu+1}."""
    return tuple((mu, key - monomial_key([int(k == mu) for k in range(4)]), s)
                 for mu, coeff in enumerate(row) for key, s in coeff.num.items())


_SIGNED = {"left": tuple(map(_signed_coordinates, LEFT)),
           "right": tuple(map(_signed_coordinates, RIGHT))}

# the canonical image of each monomial derived so far, per (chirality, index);
# an image depends only on its monomial and table, so every caller shares them
_IMAGES = {(c, i): {} for c in _SIGNED for i in (1, 2, 3)}


def _image(table, key):
    """sum_mu s x_nu d/dx_mu of the monomial x^e of key as canonical integer
    numerators: x^e goes to s e_mu x^(e + e_nu - e_mu), reduced once."""
    e = exponents(key)
    raw = {}
    for mu, d, s in table:
        a = e[mu]
        if a:
            raw[key + d] = raw.get(key + d, 0) + s * a
    return _canonicalize(raw)


def _derive(table, images, p):
    """The derivative of p: p's integer numerators summed against the canonical
    images of its monomials, each image computed the first time its monomial
    is derived. A sum of canonical numerators is canonical, so nothing is
    reduced again."""
    out = {}
    for e, c in p.num.items():
        image = images.get(e)
        if image is None:
            image = images[e] = _image(table, e)
        for k, n in image.items():
            out[k] = out.get(k, 0) + c * n
    return Polynomial._of({k: n for k, n in out.items() if n}, p.den)


def frame_derive(p, i, chirality="left"):
    """Directional derivative E_i(p) (or F_i(p)) for i in 1..3; of an Op, the
    operator E_i o p."""
    if i not in (1, 2, 3):
        raise BadIndex(f"frame index {i} out of range 1..3")
    if chirality not in ("left", "right"):
        raise ValueError("chirality must be 'left' or 'right'")
    if isinstance(p, Op):
        if chirality != "left":
            raise ValueError("an Op is a word in the left-invariant frame fields")
        return p.prepend(i)
    table, images = _SIGNED[chirality][i - 1], _IMAGES[chirality, i]
    if isinstance(p, JetScalar):
        return JetScalar._of(*(_derive(table, images, c) for c in (p.c0, p.c1, p.c2)))
    return _derive(table, images, as_poly(p))


def laplacian_scalar(p):
    """Sum_i E_i E_i (p) in the left-invariant orthonormal frame (negative spectrum)."""
    e11, e22, e33 = (frame_derive(frame_derive(p, i), i) for i in (1, 2, 3))
    return e11 + e22 + e33


def adjoint_matrix():
    """The 3x3 matrix A[j][a] = <E_a, F_j> of quadratic polynomials.

    Row j is the expansion of the right-invariant coframe form on the left
    frame; both frames are Euclidean-orthonormal on the tangent space, so
    the entry is the ambient dot product of the frame coefficient rows.
    """
    return tuple(tuple(sum((RIGHT[j][mu] * LEFT[a][mu] for mu in range(4)), Polynomial.zero())
                       for a in range(3)) for j in range(3))
