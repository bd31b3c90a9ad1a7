import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grflab import poly
from grflab.frames import frame_derive
from grflab.poly import (IntegralValue, JetScalar, NonInvertibleJet, Polynomial,
                         as_poly, integrate_s3, sphere_moment)

X = [Polynomial.variable(i) for i in (1, 2, 3, 4)]


def moment_oracle(exp):
    """Independent oracle: Dirichlet-type moment via Gamma functions (mpmath)."""
    if any(a % 2 for a in exp):
        return 0.0
    num = 2.0
    for a in exp:
        num *= float(mpmath.gamma((a + 1) / 2.0))
    val = num / float(mpmath.gamma((sum(exp) + 4) / 2.0))
    return val  # equals coeff * pi^2 since Gamma(1/2)^4 = pi^2


@pytest.mark.parametrize("exp", [
    (0, 0, 0, 0), (2, 0, 0, 0), (0, 0, 0, 2), (4, 0, 0, 0), (2, 2, 0, 0),
    (2, 2, 2, 0), (6, 0, 0, 0), (4, 2, 0, 0), (2, 2, 2, 2), (8, 0, 0, 0),
    (1, 0, 0, 0), (1, 1, 0, 0), (3, 2, 1, 0),
])
def test_sphere_moment_against_gamma_oracle(exp):
    got = float(sphere_moment(exp)) * math.pi ** 2
    assert got == pytest.approx(moment_oracle(exp), abs=1e-12)


def test_frozen_moments():
    assert integrate_s3(1) == IntegralValue(2)
    assert integrate_s3(X[0] * X[0]) == IntegralValue(Fraction(1, 2))
    assert integrate_s3(X[0] * X[0] * X[0] * X[0]) == IntegralValue(Fraction(1, 4))
    assert integrate_s3(X[0] * X[0] * X[1] * X[1]) == IntegralValue(Fraction(1, 12))
    assert integrate_s3(X[0]).is_zero


def test_sphere_relation_reduction():
    # x4^2 reduces to 1 - x1^2 - x2^2 - x3^2
    p = X[3] * X[3] + X[0] * X[0] + X[1] * X[1] + X[2] * X[2]
    assert p == Polynomial.constant(1)
    x4_4 = X[3] * X[3] * X[3] * X[3]
    assert x4_4.degree() <= 4
    for e in (x4_4 * X[3]).terms:
        assert e[3] <= 1


def test_x4_powers_reduce_to_the_multinomial_expansion():
    s = 1 - X[0] * X[0] - X[1] * X[1] - X[2] * X[2]
    power = Polynomial.constant(1)  # s^(m/2), by repeated multiplication
    for m in range(0, 13, 2):
        assert Polynomial({(0, 0, 0, m): 1}) == power
        assert Polynomial({(0, 0, 0, m + 1): 1}) == X[3] * power
        power = power * s
    big = Polynomial({(0, 0, 0, 60): 1})
    assert integrate_s3(big) == IntegralValue(sphere_moment((0, 0, 0, 60)))


def test_norm_is_one_pointwise():
    total = sum((x * x for x in X), Polynomial.zero())
    assert total == 1


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(exps, coeffs, max_size=4).map(Polynomial)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + Polynomial.zero() == p
    assert p * Polynomial.constant(1) == p
    assert p - p == Polynomial.zero()


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_tangential_derivative_is_a_derivation(p, q):
    # the ambient partials are not derivations modulo the sphere relation,
    # but every tangential frame derivative is
    for i in (1, 2, 3):
        lhs = frame_derive(p * q, i)
        rhs = frame_derive(p, i) * q + p * frame_derive(q, i)
        assert lhs == rhs


def _evaluate(p, point):
    """The representative p at a point (x1, x2, x3, x4)."""
    total = 0
    for e, c in p.terms.items():
        v = c
        for a, x in zip(e, point):
            v = v * x**a
        total = total + v
    return total


def test_evaluate_matches_float():
    p = 3 * X[0] * X[1] - Fraction(1, 2) * X[2] + X[3] * X[3]
    pt = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    # x4^2 was rewritten, so evaluation is only meaningful on the sphere
    assert sum(c * c for c in pt) == 1
    val = _evaluate(p, pt)
    assert val == Fraction(3, 4) - Fraction(1, 4) + Fraction(1, 4)


# x1..x3 to odd powers, and at least one x4 term in each factor, so some
# product of two monomials has x4^2 and integrate_s3 reads the moment of an
# unreduced exponent sum
odd_exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
nonzero = coeffs.filter(lambda c: c != 0)
x4_polys = st.builds(lambda raw, e, c: Polynomial({**raw, e + (1,): c}),
                     st.dictionaries(odd_exps, coeffs, max_size=4),
                     st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
                     nonzero).filter(lambda p: any(e[3] for e in p.terms))


@settings(max_examples=80, deadline=None)
@given(x4_polys, x4_polys)
def test_integral_of_factors_equals_integral_of_product(p, q):
    assert integrate_s3(p, q) == integrate_s3(p * q)
    assert integrate_s3(p) == integrate_s3(p, 1)
    assert integrate_s3(q, p) == integrate_s3(p, q)


def test_integral_of_factors_forms_no_product(monkeypatch):
    p = 3 * X[0] * X[3] + X[1] * X[1] - Fraction(1, 2)
    q = X[0] * X[3] - 2 * X[2] * X[2] * X[3] + 1
    want = integrate_s3(p * q)
    calls = []
    mul = Polynomial.__mul__

    def counting(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    monkeypatch.setattr(Polynomial, "__rmul__", counting)
    got = integrate_s3(p, q)
    monkeypatch.undo()
    assert calls == []
    assert got == want != IntegralValue(0)


@settings(max_examples=40, deadline=None)
@given(x4_polys, x4_polys)
def test_integral_meets_only_all_even_exponent_sums(p, q):
    # a monomial of p pairs only with the monomials of q of its parity, x4's
    # included, so every moment read is that of an all-even exponent
    met = []

    def recording(exp):
        met.append(exp)
        return sphere_moment(exp)

    poly._moment.cache_clear()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(poly, "sphere_moment", recording)
        got = integrate_s3(p, q)
    poly._moment.cache_clear()
    assert got == integrate_s3(p * q)
    assert all(a % 2 == 0 for exp in met for a in exp)


@pytest.mark.parametrize("exp, error", [
    ((-1, 0, 0, 0), ValueError), ((0, 0, 0, -2), ValueError), ((128, 0, 0, 0), ValueError),
    ((0, 128, 0, 0), ValueError), ((0, 0, 130, 0), ValueError), ((0, 0, 0, 128), ValueError),
    ((1, 2, 3), ValueError), ((1.0, 0, 0, 0), TypeError)])
def test_constructor_refuses_exponents_outside_the_bound(exp, error):
    with pytest.raises(error):
        Polynomial({exp: 1})


def test_exponent_overflow_raises_and_never_carries():
    assert Polynomial({(127, 127, 127, 0): 2}).terms == {(127, 127, 127, 0): 2}
    big = Polynomial({(100, 0, 0, 0): 1})
    assert (big * Polynomial({(27, 5, 0, 0): 3})).terms == {(127, 5, 0, 0): 3}
    with pytest.raises(OverflowError):
        big * Polynomial({(28, 0, 0, 0): 1})
    with pytest.raises(OverflowError):
        Polynomial({(0, 0, 127, 0): 1}) * X[2]
    # x4 * x4 reduces to 1 - x1^2 - x2^2 - x3^2, which lifts x1 past the bound
    with pytest.raises(OverflowError):
        Polynomial({(126, 0, 0, 1): 1}) * X[3]
    assert (Polynomial({(125, 0, 0, 1): 1}) * X[3]).terms[(127, 0, 0, 0)] == -1
    # E_2 = ... + x1 d/dx3 multiplies x1^127 x3 by x1
    with pytest.raises(OverflowError):
        frame_derive(Polynomial({(127, 0, 1, 0): 1}), 2)
    assert frame_derive(Polynomial({(126, 0, 1, 0): 1}), 2).terms[(127, 0, 0, 0)] == 1


def test_zero_operands_build_no_polynomial(monkeypatch):
    p = 3 * X[0] * X[3] + X[1] * X[1] - Fraction(1, 2)
    zero = Polynomial.zero()
    # the general path's values: termwise sum and product
    plus_three = dict(p.terms)
    plus_three[(0, 0, 0, 0)] += 3
    built = []
    init = Polynomial.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counting)
    values = (p + 0, 0 + p, p + zero, zero + p, p * 0, 0 * p, p * zero, zero * Fraction(3),
              p - 0, p + 3)
    monkeypatch.undo()
    assert built == []
    assert [v.terms for v in values] == [p.terms] * 4 + [{}] * 4 + [p.terms, plus_three]
    assert all(isinstance(c, Fraction) for c in values[-1].terms.values())
    assert (X[1] + 2).terms == {(0, 1, 0, 0): 1, (0, 0, 0, 0): 2}
    assert isinstance((X[1] + 2).terms[(0, 0, 0, 0)], Fraction)


raw_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 6)),
    coeffs, max_size=5)


@settings(max_examples=60, deadline=None)
@given(raw_terms)
def test_canonicalisation_agrees_with_sympy(raw):
    # the sphere reduction is the remainder of division by x4^2 + |x'|^2 - 1 in x4
    import sympy
    x = sympy.symbols("x1:5")

    def expr(terms):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*(v ** a for v, a in zip(x, e)))
                           for e, c in terms.items()))

    sphere = x[3] ** 2 + x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - 1
    want = sympy.rem(expr(raw), sphere, x[3])
    got = Polynomial(raw)
    assert all(e[3] <= 1 for e in got.terms)
    assert sympy.expand(expr(got.terms) - want) == 0


def test_integral_value_arithmetic():
    a, b = IntegralValue(Fraction(1, 2)), IntegralValue(Fraction(1, 3))
    assert (a + b).coeff == Fraction(5, 6)
    assert (a - b).coeff == Fraction(1, 6)
    assert (3 * a).coeff == Fraction(3, 2)


# -- jets --------------------------------------------------------------------

def test_jet_leibniz_against_sympy_oracle():
    import sympy
    t = sympy.symbols("t")
    u, v = 1 + 2 * t + 3 * t ** 2, 2 - t + t ** 2 / 2
    prod = sympy.expand(u * v)
    a = JetScalar(1, 2, 6)   # second-derivative convention
    b = JetScalar(2, -1, 1)
    c = a * b
    assert c.c0 == Polynomial.constant(int(prod.coeff(t, 0)))
    assert c.c1 == Polynomial.constant(int(prod.coeff(t, 1)))
    assert c.c2 == Polynomial.constant(2 * prod.coeff(t, 2))


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys)
def test_jet_inverse(c1, c2, _):
    j = JetScalar(3, c1, c2)
    inv = j.inverse()
    one = j * inv
    assert one.c0 == Polynomial.constant(1)
    assert one.c1.is_zero and one.c2.is_zero


def test_jet_inverse_requires_constant_base():
    with pytest.raises(NonInvertibleJet):
        JetScalar(X[0], 0, 0).inverse()
    with pytest.raises(NonInvertibleJet):
        JetScalar(0, 1, 0).inverse()


maybe_empty = st.one_of(st.just(Polynomial.zero()), polys)
jets = st.builds(JetScalar, maybe_empty, maybe_empty, maybe_empty)
numbers = st.one_of(st.integers(-3, 3), coeffs)


@settings(max_examples=60, deadline=None)
@given(jets, jets, numbers)
def test_jet_arithmetic_skips_empty_parts(a, b, k):
    # the full order-2 Leibniz formula of the parts, with every product taken
    full = (a.c0 * b.c0, a.c0 * b.c1 + a.c1 * b.c0,
            a.c0 * b.c2 + 2 * (a.c1 * b.c1) + a.c2 * b.c0)
    empty_operands = []
    mul = Polynomial.__mul__

    def counted(p, q):
        if p.is_zero or (q.is_zero if isinstance(q, Polynomial) else q == 0):
            empty_operands.append((p, q))
        return mul(p, q)

    Polynomial.__mul__ = Polynomial.__rmul__ = counted
    try:
        prod, total = a * b, a + b
        scaled, rscaled = a * Fraction(k), int(k) * a
    finally:
        Polynomial.__mul__ = Polynomial.__rmul__ = mul
    assert empty_operands == []
    assert (prod.c0, prod.c1, prod.c2) == full
    assert (total.c0, total.c1, total.c2) == (a.c0 + b.c0, a.c1 + b.c1, a.c2 + b.c2)
    assert (scaled.c0, scaled.c1, scaled.c2) == (a.c0 * k, a.c1 * k, a.c2 * k)
    assert (rscaled.c0, rscaled.c1, rscaled.c2) == tuple(int(k) * c for c in (a.c0, a.c1, a.c2))


def test_jet_plus_zero_number_is_self(monkeypatch):
    # einsum starts every sum from int 0: adding a zero number builds nothing
    j = JetScalar(1, X[0], X[1] * X[2])
    calls = []
    for cls in (Polynomial, JetScalar):
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__",
                            lambda self, *a, real=real: calls.append(1) or real(self, *a))
    assert j + 0 is j and 0 + j is j and j + Fraction(0) is j
    assert calls == []


def test_jet_mixed_arithmetic():
    j = JetScalar(1, X[0], 0)
    assert (X[1] * j).c1 == X[1] * X[0]
    assert (j + X[1]).c0 == 1 + X[1]
    assert (2 * j).c1 == 2 * X[0]


# -- integer numerators over one denominator ----------------------------------

def _ref_canonical(raw):
    """Reference {exponent: Fraction} reduction modulo x4^2 = 1 - x1^2 - x2^2 - x3^2,
    one x4^2 at a time."""
    out = {}
    stack = [(e, Fraction(c)) for e, c in raw.items()]
    while stack:
        (a1, a2, a3, a4), c = stack.pop()
        if a4 >= 2:
            for d, s in (((0, 0, 0), 1), ((2, 0, 0), -1), ((0, 2, 0), -1), ((0, 0, 2), -1)):
                stack.append(((a1 + d[0], a2 + d[1], a3 + d[2], a4 - 2), s * c))
        else:
            out[(a1, a2, a3, a4)] = out.get((a1, a2, a3, a4), 0) + c
    return {e: c for e, c in out.items() if c != 0}


def _ref_add(a, b):
    return _ref_canonical({e: a.get(e, 0) + b.get(e, 0) for e in {*a, *b}})


def _ref_mul(a, b):
    raw = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            raw[e] = raw.get(e, 0) + c1 * c2
    return _ref_canonical(raw)


def _ref_frame_derive(a, i):
    """E_i = sum_mu LEFT[i][mu] d/dx_mu on reference terms."""
    from grflab.frames import LEFT
    out = {}
    for mu in range(4):
        partial = {}
        for e, c in a.items():
            if e[mu]:
                shifted = tuple(x - (k == mu) for k, x in enumerate(e))
                partial[shifted] = partial.get(shifted, 0) + e[mu] * c
        out = _ref_add(out, _ref_mul(LEFT[i - 1][mu].terms, partial))
    return out


def _assert_canonical(p):
    assert p.den > 0 and math.gcd(p.den, *p.num.values()) == 1
    assert all(isinstance(n, int) and n != 0 for n in p.num.values())
    assert all(e[3] <= 1 for e in p.terms)
    assert p.num or p.den == 1


fractional = st.fractions(min_value=-5, max_value=5, max_denominator=12)
frac_polys = st.dictionaries(exps, fractional, max_size=5).map(Polynomial)
# x4 up to the fifth power, so the constructor reduces x4^(2q) for q = 1 and 2
raw_terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3, st.integers(0, 5)),
                            fractional, max_size=5)


@settings(max_examples=80, deadline=None)
@given(raw_terms, raw_terms, fractional)
def test_integer_numerators_agree_with_a_fraction_reference(raw_p, raw_q, c):
    p, q = Polynomial(raw_p), Polynomial(raw_q)
    a, b = p.terms, q.terms
    cases = [(p, _ref_canonical(raw_p)), (q, _ref_canonical(raw_q)),
             (p + q, _ref_add(a, b)), (p - q, _ref_add(a, {e: -x for e, x in b.items()})),
             (-p, {e: -x for e, x in a.items()}), (p * q, _ref_mul(a, b)),
             (p * c, _ref_mul(a, {(0, 0, 0, 0): c} if c else {})),
             (p + c, _ref_add(a, {(0, 0, 0, 0): c}))]
    cases += [(frame_derive(p, i), _ref_frame_derive(a, i)) for i in (1, 2, 3)]
    for got, want in cases:
        _assert_canonical(got)
        assert got.terms == want
    want = sum((x * sphere_moment(e) for e, x in _ref_mul(a, b).items()), Fraction(0))
    assert integrate_s3(p, q).coeff == want
    for other in (p * 3 * Fraction(1, 3), p + q - q, Polynomial(a)):
        assert other == p and hash(other) == hash(p)
    assert (p == c) == (a == ({(0, 0, 0, 0): c} if c else {}))


def _spellings(q):
    """Equal spellings of the rational q: as a Fraction, as an int when it is
    one, and as constant polynomials, one of them q x4^2 + q (x1^2 + x2^2 + x3^2)
    before the sphere relation reduces it."""
    out = [q, Polynomial.constant(q),
           Polynomial({(0, 0, 0, 2): q, (2, 0, 0, 0): q, (0, 2, 0, 0): q, (0, 0, 2, 0): q})]
    return out + [int(q)] if q.denominator == 1 else out


_HASHABLE = st.one_of(st.integers(-3, 3), fractional, frac_polys,
                      fractional.map(Polynomial.constant))


@settings(max_examples=200, deadline=None)
@given(fractional, _HASHABLE, _HASHABLE)
def test_equal_numbers_and_polynomials_hash_equal(q, a, b):
    # Python's data model: a == b implies hash(a) == hash(b), so a set or a dict
    # key treats a constant polynomial and its value as one element
    spellings = _spellings(q) + [a, b]
    for x in spellings:
        for y in spellings:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert len({*_spellings(q)}) == 1
    assert len({Polynomial.constant(2), Fraction(2), 2}) == 1
    assert len({Polynomial.zero(), 0, Fraction(0)}) == 1


def test_arithmetic_builds_no_fraction(monkeypatch):
    import fractions
    p = Fraction(3, 4) * X[0] * X[3] + X[1] * X[1] - Fraction(1, 6)
    q = Fraction(2, 5) * X[3] - Fraction(7, 3) * X[2] * X[3] * X[3] + 1
    c = Fraction(3, 7)
    built = []
    new = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    values = (p + q, -p, p * q, p * c, frame_derive(p, 1), p == c, p == 0)
    monkeypatch.undo()
    assert built == []
    assert values[0] - q == p and -values[1] == p and values[3] * Fraction(7, 3) == p
