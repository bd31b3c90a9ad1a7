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
from functools import lru_cache


def _double_factorial(n):
    # (-1)!! = 1 by convention
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def _sphere_power(q):
    """(1 - x1^2 - x2^2 - x3^2)^q, the reduction of x4^(2q), as terms (2i, 2j, 2k, c)
    with the multinomial coefficients c = (-1)^(i+j+k) q! / (i! j! k! (q-i-j-k)!)."""
    f = math.factorial
    return tuple((2 * i, 2 * j, 2 * k,
                  (-1) ** (i + j + k) * (f(q) // (f(i) * f(j) * f(k) * f(q - i - j - k))))
                 for k in range(q + 1) for j in range(q + 1 - k) for i in range(q + 1 - k - j))


def _canonicalize(raw):
    """Reduce a raw {exponent: int} dict modulo x4^2 -> 1 - x1^2 - x2^2 - x3^2."""
    out = {}
    stack = list(raw.items())
    while stack:
        exp, coeff = stack.pop()
        if coeff == 0:
            continue
        a1, a2, a3, a4 = exp
        if a4 <= 1:
            new = out.get(exp, 0) + coeff
            if new == 0:
                out.pop(exp, None)
            else:
                out[exp] = new
        else:
            q, r = divmod(a4, 2)
            for b1, b2, b3, m in _sphere_power(q):
                stack.append(((a1 + b1, a2 + b2, a3 + b3, r), m * coeff))
    return out


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


_ONE = (0, 0, 0, 0)  # the exponent of the constant term


class Polynomial:
    """Sparse polynomial in x1..x4 with rational coefficients, canonical mod S^3.

    The coefficients are integer numerators ``num`` {exponent: int} over one
    denominator ``den``: den > 0, gcd(den, *num.values()) == 1, and the zero
    polynomial is ({}, 1). ``terms`` is the rational view {exponent: Fraction}.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        terms = {tuple(k): Fraction(v) for k, v in (terms or {}).items()}
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
        return cls({_ONE: Fraction(c)})

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
        return {e: Fraction(n, den) for e, n in self.num.items()}

    @property
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    @property
    def is_constant(self):
        return all(sum(e) == 0 for e in self.num)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return Fraction(self.num.get(_ONE, 0), self.den)

    def degree(self):
        """Total degree of the canonical representative (zero polynomial -> 0)."""
        if not self.num:
            return 0
        return max(sum(e) for e in self.num)

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
        """self * other; a zero number or an empty operand gives the shared _ZERO."""
        if isinstance(other, Polynomial):
            if not self.num or not other.num:
                return _ZERO
            raw = {}
            for e1, n1 in self.num.items():
                for e2, n2 in other.num.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                    raw[e] = raw.get(e, 0) + n1 * n2
            return Polynomial._of(_canonicalize(raw), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            if not other or not self.num:
                return _ZERO
            m = other.numerator
            return Polynomial._of({e: n * m for e, n in self.num.items()},
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


@lru_cache(maxsize=None)
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


def _parity(e):
    return (e[0] & 1, e[1] & 1, e[2] & 1, e[3] & 1)


def integrate_s3(p, q=1):
    """Exact integral of p * q over the unit S^3 for polynomials or exact
    numbers p and q, from the terms of the two factors: the product is never
    formed. A monomial of p pairs only with the monomials of q of its exponent
    parity, the only ones whose product has an all-even exponent and so a
    nonzero moment. The integer products are summed per exponent sum, and
    each sum meets its moment once."""
    p, q = as_poly(p), as_poly(q)
    groups = {}
    for e, n in q.num.items():
        groups.setdefault(_parity(e), []).append((e, n))
    sums = {}
    for e1, n1 in p.num.items():
        for e2, n2 in groups.get(_parity(e1), ()):
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            sums[e] = sums.get(e, 0) + n1 * n2
    total = sum((n * sphere_moment(e) for e, n in sums.items() if n), Fraction(0))
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
    """

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0=_ZERO, c1=_ZERO, c2=_ZERO):
        self.c0 = as_poly(c0)
        self.c1 = as_poly(c1)
        self.c2 = as_poly(c2)

    def __add__(self, other):
        """self + other; a zero operand returns the other one as a jet (jets
        are never mutated, and einsum starts every sum from int 0)."""
        if isinstance(other, (int, Fraction)) and not other:
            return self
        other = as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        return JetScalar(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    __radd__ = __add__

    def __neg__(self):
        return JetScalar(-self.c0, -self.c1, -self.c2)

    def __sub__(self, other):
        other = as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """self * other; a zero number or a zero jet on either side gives the
        shared _ZERO_JET."""
        if isinstance(other, (int, Fraction)):
            if not other or not self:
                return _ZERO_JET
            return JetScalar(*(_mul(c, other) for c in (self.c0, self.c1, self.c2)))
        other = as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        if not self or not other:
            return _ZERO_JET
        # Leibniz at order 2: (fg)'' = f''g + 2f'g' + fg''
        a0, a1, a2, b0, b1, b2 = self.c0, self.c1, self.c2, other.c0, other.c1, other.c2
        return JetScalar(_mul(a0, b0), _mul(a0, b1) + _mul(a1, b0),
                         _mul(a0, b2) + _mul(_mul(a1, b1), 2) + _mul(a2, b0))

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
