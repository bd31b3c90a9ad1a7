"""Exact polynomial calculus on the unit 3-sphere in R^4.

Functions on S^3 are represented by polynomial representatives in the
ambient coordinates x1..x4, reduced to a canonical form modulo the sphere
relation x4^2 = 1 - x1^2 - x2^2 - x3^2 (so the exponent of x4 is always
0 or 1). Coefficients are exact rationals, stored as integer numerators
over one reduced denominator, so arithmetic builds no Fraction per term;
``Polynomial.terms`` is the rational view. Integrals over S^3 of such
representatives are exact rational multiples of pi^2.
"""

import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import index, or_


def _double_factorial(n):
    # (-1)!! = 1 by convention
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# Monomial keys. x1^a1 x2^a2 x3^a3 x4^a4 is keyed by the one int
# a1 + a2 2^W + a3 2^(2W) + a4 2^(3W): x1, x2 and x3 in W-bit fields, x4 on
# top. A canonical exponent is below EXPONENT_BOUND = 2^(W-2), so a field of
# a sum of two keys, plus the 2 of an x4^2 reduction, stays below 2^W and a
# product adds keys with no carry between fields; a result with a field at or
# past the bound is refused. With x4 <= 2 every key is one 30-bit int digit.
_W = 9
EXPONENT_BOUND = 1 << (_W - 2)
_FIELD = (1 << _W) - 1
_X4 = 1 << (3 * _W)  # the key of x4
_X4_SQUARED = 2 * _X4
_LOW = _X4 - 1  # the x1..x3 fields
# the bits of a field value at or past EXPONENT_BOUND, in each of x1..x3
_PAST_BOUND = sum((_FIELD & ~(EXPONENT_BOUND - 1)) << (_W * i) for i in range(3))
# the lowest bit of each of the four exponents
_PARITY = sum(1 << (_W * i) for i in range(4))
_ONE = 0  # the key of the constant term
_SQUARES = (2, 2 << _W, 2 << (2 * _W))  # the keys of x1^2, x2^2 and x3^2


def monomial_key(exp):
    """The key of the exponent (a1, a2, a3, a4); ValueError unless each is an
    integer with 0 <= a < EXPONENT_BOUND."""
    exp = tuple(map(index, exp))
    if len(exp) != 4 or not all(0 <= a < EXPONENT_BOUND for a in exp):
        raise ValueError(f"exponent {exp} is not four integers in [0, {EXPONENT_BOUND})")
    a1, a2, a3, a4 = exp
    return a1 | a2 << _W | a3 << (2 * _W) | a4 << (3 * _W)


def exponents(key):
    """The exponent (a1, a2, a3, a4) of a monomial key."""
    return key & _FIELD, key >> _W & _FIELD, key >> (2 * _W) & _FIELD, key >> (3 * _W)


def _check_bound(num):
    """num, unless a key of it has an x1..x3 exponent at or past EXPONENT_BOUND."""
    if reduce(or_, num, 0) & _PAST_BOUND:
        raise OverflowError(f"a monomial exponent reaches the bound {EXPONENT_BOUND}")
    return num


@lru_cache(maxsize=None)
def _sphere_power(q):
    """(1 - x1^2 - x2^2 - x3^2)^q, the reduction of x4^(2q), as (key, c) terms
    with the multinomial coefficients c = (-1)^(i+j+k) q! / (i! j! k! (q-i-j-k)!)."""
    f = math.factorial
    return tuple((2 * i | 2 * j << _W | 2 * k << (2 * _W),
                  (-1) ** (i + j + k) * (f(q) // (f(i) * f(j) * f(k) * f(q - i - j - k))))
                 for k in range(q + 1) for j in range(q + 1 - k) for i in range(q + 1 - k - j))


def _canonicalize(raw):
    """Reduce a raw {key: int} dict modulo x4^2 -> 1 - x1^2 - x2^2 - x3^2, with
    zero numerators dropped; OverflowError if an exponent reaches the bound."""
    out = {}
    for key, coeff in raw.items():
        if key < _X4_SQUARED:
            out[key] = out.get(key, 0) + coeff
        else:
            q, r = divmod(key >> (3 * _W), 2)
            base = (key & _LOW) + r * _X4
            for delta, m in _sphere_power(q):
                k = base + delta
                out[k] = out.get(k, 0) + m * coeff
    return _check_bound({k: n for k, n in out.items() if n})


def _reduce(num, den):
    """The canonical form of num / den: both divided by gcd(den, *num.values()),
    with one gcd call, and ({}, 1) for zero."""
    if not num:
        return num, 1
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {e: n // g for e, n in num.items()}
            den //= g
    return num, den


class Polynomial:
    """Sparse polynomial in x1..x4 with rational coefficients, canonical mod S^3.

    ``Polynomial(terms)`` takes {(a1, a2, a3, a4): coefficient}, every exponent
    an integer in [0, EXPONENT_BOUND) = [0, 128) (ValueError otherwise), and
    reduces x4^2 by the sphere relation. The coefficients are integer
    numerators ``num`` {key: int} over one denominator ``den``: den > 0,
    gcd(den, *num.values()) == 1, and the zero polynomial is ({}, 1). A key
    packs an exponent into one int (``monomial_key``): a1, a2 and a3 in 9-bit
    fields from bit 0, 9 and 18, a4 from bit 27. A product, frame derivative
    or x4 reduction that takes an x1..x3 exponent to the bound or past it
    raises OverflowError.
    ``terms`` is the rational view {exponent: Fraction}.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        terms = {monomial_key(k): Fraction(v) for k, v in (terms or {}).items()}
        den = math.lcm(*(c.denominator for c in terms.values()))
        self.num, self.den = _reduce(_canonicalize(
            {e: c.numerator * (den // c.denominator) for e, c in terms.items()}), den)

    @classmethod
    def _of(cls, num, den):
        """The polynomial of canonical numerators num over den."""
        out = cls.__new__(cls)
        out.num, out.den = _reduce(num, den)
        return out

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0, 0, 0): Fraction(c)})

    @classmethod
    def variable(cls, i):
        """x_i for i in 1..4."""
        if i not in (1, 2, 3, 4):
            raise ValueError("variable index must be 1..4")
        exp = [0, 0, 0, 0]
        exp[i - 1] = 1
        return cls({tuple(exp): Fraction(1)})

    @property
    def terms(self):
        """The coefficients as a new {exponent: Fraction} dict."""
        den = self.den
        return {exponents(k): Fraction(n, den) for k, n in self.num.items()}

    @property
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    @property
    def is_constant(self):
        return self.num.keys() <= {_ONE}

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return Fraction(self.num.get(_ONE, 0), self.den)

    def degree(self):
        """Total degree of the canonical representative (zero polynomial -> 0)."""
        if not self.num:
            return 0
        return max(sum(exponents(k)) for k in self.num)

    def __add__(self, other):
        """self + other; a zero or empty operand returns the other operand, and
        a number goes to the constant term directly. The numerators are
        rescaled only when the denominators differ."""
        if isinstance(other, Polynomial):
            if not other.num:
                return self
            if not self.num:
                return other
            onum, oden = other.num, other.den
        elif isinstance(other, (int, Fraction)):
            if not other:
                return self
            onum, oden = {_ONE: other.numerator}, other.denominator
        else:
            return NotImplemented
        den = self.den
        if den == oden:
            new = dict(self.num)
            scale = 1
        else:
            g = math.gcd(den, oden)
            scale, factor = oden // g, den // g  # den * scale == oden * factor
            new = {e: n * scale for e, n in self.num.items()}
            onum = {e: n * factor for e, n in onum.items()}
        for e, n in onum.items():
            s = new.get(e, 0) + n
            if s:
                new[e] = s
            else:
                del new[e]
        return Polynomial._of(new, den * scale)

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.num = {e: -n for e, n in self.num.items()}
        out.den = self.den
        return out

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Polynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """self * other; a zero number or an empty operand gives the shared _ZERO,
        and a one-term constant factor only scales the numerators. Monomial
        keys add; both factors are canonical, so x4 reaches at most 2, and
        each x4^2 is replaced by 1 - x1^2 - x2^2 - x3^2 in place."""
        a = self.num
        if isinstance(other, Polynomial):
            b = other.num
            if not a or not b:
                return _ZERO
            den = self.den * other.den
            if len(b) == 1 and _ONE in b:
                m = b[_ONE]
                return Polynomial._of({k: n * m for k, n in a.items()}, den)
            if len(a) == 1 and _ONE in a:
                m = a[_ONE]
                return Polynomial._of({k: n * m for k, n in b.items()}, den)
            raw = {}
            get = raw.get
            for k1, n1 in a.items():
                for k2, n2 in b.items():
                    k = k1 + k2
                    raw[k] = get(k, 0) + n1 * n2
            for k in [k for k in raw if k >= _X4_SQUARED]:
                n = raw.pop(k)
                k -= _X4_SQUARED
                raw[k] = get(k, 0) + n
                for s in _SQUARES:
                    raw[k + s] = get(k + s, 0) - n
            return Polynomial._of(_check_bound({k: n for k, n in raw.items() if n}), den)
        if isinstance(other, (int, Fraction)):
            if not other or not a:
                return _ZERO
            m = other.numerator
            return Polynomial._of({k: n * m for k, n in a.items()},
                                  self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.num
            return (self.den == other.denominator and len(self.num) == 1
                    and self.num.get(_ONE) == other.numerator)
        return NotImplemented

    def __hash__(self):
        """A constant hashes as its value, since it equals that number."""
        if self.num.keys() <= {_ONE}:
            return hash(Fraction(self.num.get(_ONE, 0), self.den))
        return hash((frozenset(self.num.items()), self.den))

    def __repr__(self):
        if not self.num:
            return "0"
        names = ("x1", "x2", "x3", "x4")
        terms = self.terms
        parts = []
        for e in sorted(terms):
            c = terms[e]
            mono = "*".join(
                n if a == 1 else f"{n}^{a}" for n, a in zip(names, e) if a > 0
            )
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)


def as_poly(x):
    """x as a Polynomial; TypeError for anything but a Polynomial or an exact number."""
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.constant(x)
    raise TypeError(f"cannot use {type(x).__name__} as a polynomial")


_ZERO = Polynomial.zero()  # one shared zero: a Polynomial is never changed in place


def sphere_moment(exp):
    """Exact value of int_{S^3} x1^a1 x2^a2 x3^a3 x4^a4 dV as a coefficient of pi^2,
    for any exponents: x4^2 need not be reduced."""
    if any(a % 2 for a in exp):
        return Fraction(0)
    m = sum(exp) // 2
    num = 2
    for a in exp:
        num *= _double_factorial(a - 1)
    return Fraction(num, 2**m * math.factorial(m + 1))


class IntegralValue:
    """Exact integral over S^3, stored as a rational coefficient of pi^2."""

    __slots__ = ("coeff",)

    def __init__(self, coeff):
        self.coeff = Fraction(coeff)

    @property
    def is_zero(self):
        return self.coeff == 0

    def __eq__(self, other):
        if isinstance(other, IntegralValue):
            return self.coeff == other.coeff
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, IntegralValue):
            return IntegralValue(self.coeff + other.coeff)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, IntegralValue):
            return IntegralValue(self.coeff - other.coeff)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return IntegralValue(self.coeff * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return IntegralValue(-self.coeff)

    def __repr__(self):
        return f"({self.coeff})*pi^2"


@lru_cache(maxsize=None)
def _moment(key):
    """The sphere_moment of the monomial of key, once per key."""
    return sphere_moment(exponents(key))


def integrate_s3(p, q=1):
    """Exact integral of p * q over the unit S^3 for polynomials or exact
    numbers p and q, from the terms of the two factors: the product is never
    formed. A monomial of p pairs only with the monomials of q of its exponent
    parity, the only ones whose product has an all-even exponent and so a
    nonzero moment. The integer products are summed per exponent sum, and
    each sum meets its moment once."""
    p, q = as_poly(p), as_poly(q)
    groups = {}
    for k, n in q.num.items():
        groups.setdefault(k & _PARITY, []).append((k, n))
    sums = {}
    for k1, n1 in p.num.items():
        for k2, n2 in groups.get(k1 & _PARITY, ()):
            k = k1 + k2
            sums[k] = sums.get(k, 0) + n1 * n2
    total = sum((n * _moment(k) for k, n in sums.items() if n), Fraction(0))
    return IntegralValue(total / (p.den * q.den))


class NonInvertibleJet(ValueError):
    pass


def _mul(a, b):
    """a * b of a polynomial and a polynomial or number, with no
    Polynomial.__mul__ call when either operand is empty or zero."""
    if not a or not b:
        return _ZERO
    return a * b


class JetScalar:
    """Order-2 jet c0 + c1*t + (1/2)*c2*t^2 with polynomial coefficients.

    c2 stores the second derivative at t=0, not the Taylor coefficient.
    Arithmetic tests for jet and polynomial operands before numbers: an
    isinstance test against Fraction that fails goes through ABCMeta.
    """

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0=_ZERO, c1=_ZERO, c2=_ZERO):
        self.c0 = as_poly(c0)
        self.c1 = as_poly(c1)
        self.c2 = as_poly(c2)

    @classmethod
    def _of(cls, c0, c1, c2):
        """The jet of three Polynomials, taken as they are."""
        out = cls.__new__(cls)
        out.c0, out.c1, out.c2 = c0, c1, c2
        return out

    def __add__(self, other):
        """self + other; a zero operand returns the other one as a jet (jets
        are never mutated, and einsum starts every sum from int 0)."""
        if isinstance(other, JetScalar):
            if not other:
                return self
            if not self:
                return other
            return JetScalar._of(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)
        if isinstance(other, (Polynomial, int, Fraction)):
            return JetScalar._of(self.c0 + other, self.c1, self.c2) if other else self
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return JetScalar._of(-self.c0, -self.c1, -self.c2)

    def __sub__(self, other):
        if isinstance(other, (JetScalar, Polynomial, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """self * other; a zero number or a zero jet on either side gives the
        shared _ZERO_JET."""
        if isinstance(other, JetScalar):
            if not self or not other:
                return _ZERO_JET
            # Leibniz at order 2: (fg)'' = f''g + 2f'g' + fg''
            a0, a1, a2, b0, b1, b2 = self.c0, self.c1, self.c2, other.c0, other.c1, other.c2
            return JetScalar._of(_mul(a0, b0), _mul(a0, b1) + _mul(a1, b0),
                                 _mul(a0, b2) + _mul(_mul(a1, b1), 2) + _mul(a2, b0))
        if isinstance(other, (Polynomial, int, Fraction)):
            if not other or not self:
                return _ZERO_JET
            return JetScalar._of(_mul(self.c0, other), _mul(self.c1, other),
                                 _mul(self.c2, other))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        other = as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c0 == other.c0 and self.c1 == other.c1 and self.c2 == other.c2

    def inverse(self):
        """Multiplicative inverse, requires an invertible (nonzero constant) t=0 part."""
        if not (self.c0.is_constant and not self.c0.is_zero):
            raise NonInvertibleJet("t=0 part must be a nonzero constant")
        a = self.c0.constant_value()
        d0 = Polynomial.constant(Fraction(1) / a)
        d1 = self.c1 * Fraction(-1, 1) * (Fraction(1) / a**2)
        d2 = (2 * (self.c1 * self.c1) - a * self.c2) * (Fraction(1) / a**3)
        return JetScalar(d0, d1, d2)

    @property
    def is_zero(self):
        return self.c0.is_zero and self.c1.is_zero and self.c2.is_zero

    def __bool__(self):
        return bool(self.c0.num or self.c1.num or self.c2.num)

    def __repr__(self):
        return f"Jet[{self.c0!r} | {self.c1!r} | {self.c2!r}]"


_ZERO_JET = JetScalar()  # one shared zero jet, like _ZERO


def as_jet(x):
    if isinstance(x, JetScalar):
        return x
    if not isinstance(x, (Polynomial, int, Fraction)):
        return NotImplemented
    return JetScalar(x)
