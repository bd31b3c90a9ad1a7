"""Exact polynomial calculus on the unit 3-sphere in R^4.

Functions on S^3 are represented by polynomial representatives in the
ambient coordinates x1..x4, reduced to a canonical form modulo the sphere
relation x4^2 = 1 - x1^2 - x2^2 - x3^2 (so the exponent of x4 is always
0 or 1). Coefficients are exact rationals. Integrals over S^3 of such
representatives are exact rational multiples of pi^2.
"""

import json
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
    """Reduce a raw {exponent: coeff} dict modulo x4^2 -> 1 - x1^2 - x2^2 - x3^2."""
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
                # q = 1 (every x4^2, x4^3) has only +-1: negating is cheaper
                # than a Fraction product
                c = coeff if m == 1 else -coeff if m == -1 else m * coeff
                stack.append(((a1 + b1, a2 + b2, a3 + b3, r), c))
    return out


class Polynomial:
    """Sparse polynomial in x1..x4 with Fraction coefficients, canonical mod S^3."""

    __slots__ = ("terms",)

    def __init__(self, terms=None, reduce=True):
        if terms is None:
            terms = {}
        items = {tuple(k): Fraction(v) for k, v in terms.items()}
        self.terms = _canonicalize(items) if reduce else {k: v for k, v in items.items() if v != 0}

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
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms.get((0, 0, 0, 0), Fraction(0))

    def degree(self):
        """Total degree of the canonical representative (zero polynomial -> 0)."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def __add__(self, other):
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        new = dict(self.terms)
        for e, c in other.terms.items():
            s = new.get(e, 0) + c
            if s == 0:
                new.pop(e, None)
            else:
                new[e] = s
        out = Polynomial.__new__(Polynomial)
        out.terms = new
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial.zero()
            out = Polynomial.__new__(Polynomial)
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        raw = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                raw[e] = raw.get(e, 0) + c1 * c2
        out = Polynomial.__new__(Polynomial)
        out.terms = _canonicalize(raw)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def diff(self, mu):
        """Ambient partial derivative d/dx_mu (mu in 1..4) of the canonical representative.

        Well defined as a function on S^3 when contracted against tangent
        frame coefficients, since tangent fields annihilate |x|^2 - 1.
        """
        raw = {}
        for e, c in self.terms.items():
            a = e[mu - 1]
            if a == 0:
                continue
            new = list(e)
            new[mu - 1] = a - 1
            key = tuple(new)
            raw[key] = raw.get(key, 0) + a * c
        out = Polynomial.__new__(Polynomial)
        out.terms = _canonicalize(raw)
        return out

    def evaluate(self, point):
        """Evaluate the representative at a point (x1,x2,x3,x4)."""
        total = 0
        for e, c in self.terms.items():
            v = c
            for a, x in zip(e, point):
                v = v * x**a
            total = total + v
        return total

    def to_json(self):
        terms = []
        for e in sorted(self.terms):
            c = self.terms[e]
            terms.append({"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)})
        return {"terms": terms}

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)
        raw = {}
        for t in data["terms"]:
            exp = tuple(int(a) for a in t["exp"])
            raw[exp] = raw.get(exp, 0) + Fraction(int(t["num"]), int(t["den"]))
        return cls(raw)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = ("x1", "x2", "x3", "x4")
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(
                n if a == 1 else f"{n}^{a}" for n, a in zip(names, e) if a > 0
            )
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)


def as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.constant(x)
    return NotImplemented


def sphere_moment(exp):
    """Exact value of int_{S^3} x1^a1 x2^a2 x3^a3 x4^a4 dV as a coefficient of pi^2."""
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
    unit = "pi^2"

    def __init__(self, coeff):
        self.coeff = Fraction(coeff)

    @property
    def is_zero(self):
        return self.coeff == 0

    def __float__(self):
        return float(self.coeff) * math.pi**2

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

    def to_json(self):
        return {"coeff": f"{self.coeff.numerator}/{self.coeff.denominator}", "unit": self.unit}

    def __repr__(self):
        return f"({self.coeff})*pi^2"


def integrate_s3(p):
    """Exact integral of a polynomial representative over the unit S^3."""
    p = as_poly(p)
    total = Fraction(0)
    for e, c in p.terms.items():
        total += c * sphere_moment(e)
    return IntegralValue(total)


class NonInvertibleJet(ValueError):
    pass


class JetScalar:
    """Order-2 jet c0 + c1*t + (1/2)*c2*t^2 with polynomial coefficients.

    c2 stores the second derivative at t=0, not the Taylor coefficient.
    """

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0=0, c1=0, c2=0):
        self.c0 = as_poly(c0)
        self.c1 = as_poly(c1)
        self.c2 = as_poly(c2)

    def __add__(self, other):
        other = as_jet(other)
        if other is NotImplemented:
            return NotImplemented
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
        other = as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        # Leibniz at order 2: (fg)'' = f''g + 2f'g' + fg''
        return JetScalar(
            self.c0 * other.c0,
            self.c0 * other.c1 + self.c1 * other.c0,
            self.c0 * other.c2 + 2 * (self.c1 * other.c1) + self.c2 * other.c0,
        )

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

    def __repr__(self):
        return f"Jet[{self.c0!r} | {self.c1!r} | {self.c2!r}]"


def as_jet(x):
    if isinstance(x, JetScalar):
        return x
    p = as_poly(x)
    if p is NotImplemented:
        return NotImplemented
    return JetScalar(p, 0, 0)
