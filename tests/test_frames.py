from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grflab.frames import (INV_LAPLACIAN, LEFT, RIGHT, STRUCTURE, BadIndex, Op, adjoint_matrix,
                           frame_derive, laplacian_scalar, validate_structure)
from grflab.harmonics import canonical_space, harmonic_basis, word_matrix
from grflab.poly import JetScalar, Polynomial, integrate_s3

X = [Polynomial.variable(i) for i in (1, 2, 3, 4)]
NORM = sum((x * x for x in X), Polynomial.zero())
ROWS = {"left": LEFT, "right": RIGHT}


def vector_bracket(v, w):
    """Bracket [v, w] of two frame fields, each given as (index 1..3, chirality), as
    ambient coefficients: [v, w]^mu = v(w^mu) - w(v^mu), each coefficient reduced."""
    (i, a), (j, b) = v, w
    return tuple(frame_derive(ROWS[b][j - 1][mu], i, a) - frame_derive(ROWS[a][i - 1][mu], j, b)
                 for mu in range(4))


def test_frames_are_tangent():
    # every frame field annihilates |x|^2 = sum x_mu^2: sum_mu c_mu x_mu = 0 in R[x1..x4]
    for rows in (LEFT, RIGHT):
        for coeffs in rows:
            assert sum((coeffs[mu] * X[mu] for mu in range(4)), Polynomial.zero()).is_zero


def test_frames_euclidean_orthonormal():
    for rows in (LEFT, RIGHT):
        for i in range(3):
            for j in range(3):
                dot = sum((rows[i][mu] * rows[j][mu] for mu in range(4)),
                          Polynomial.zero())
                assert dot == (NORM if i == j else Polynomial.zero())


def test_bracket_structure_constants():
    # oracle: brute-force commutator of the ambient vector fields
    for i in range(3):
        for j in range(3):
            br = vector_bracket((i + 1, "left"), (j + 1, "left"))
            for mu in range(4):
                want = Polynomial.zero()
                for k in range(3):
                    want = want + STRUCTURE[i][j][k] * LEFT[k][mu]
                # bracket coefficients agree modulo the sphere relation
                assert br[mu] * NORM == want


def test_left_and_right_frames_commute():
    for i in range(3):
        for j in range(3):
            br = vector_bracket((i + 1, "left"), (j + 1, "right"))
            for mu in range(4):
                assert (br[mu] * NORM).is_zero or br[mu].is_zero


def test_validate_structure_flags_violations():
    assert validate_structure(STRUCTURE) == []
    bad = (((0, 1), (1, 0)), ((0, 0), (0, 0)))
    assert any("antisymmetry" in v for v in validate_structure(bad))


def test_frame_derive_basics():
    assert frame_derive(X[0], 1) == X[3]  # E_1 x1 = x4
    with pytest.raises(BadIndex):
        frame_derive(X[0], 4)
    with pytest.raises(ValueError):
        frame_derive(X[0], 1, "middle")
    j = frame_derive(JetScalar(X[0], X[1], 0), 1)
    assert j.c0 == X[3]


def test_frame_derive_matches_sympy_on_every_monomial():
    # oracle: sympy's sum_mu c_mu d/dx_mu of each canonical monomial of degree <= 4,
    # reduced by division by the sphere relation in x4
    import sympy
    xs = sympy.symbols("x1:5")
    relation = xs[3] ** 2 + xs[0] ** 2 + xs[1] ** 2 + xs[2] ** 2 - 1

    def to_sympy(p):
        return sum((c * sympy.prod([x ** a for x, a in zip(xs, e)]) for e, c in p.terms.items()),
                   sympy.Integer(0))

    monomials = [e for e in product(range(5), range(5), range(5), range(2)) if sum(e) <= 4]
    assert len(monomials) == 55
    for chirality, rows in ROWS.items():
        for i, row in enumerate(rows, 1):
            field = [to_sympy(c) for c in row]
            for e in monomials:
                mono = sympy.prod([x ** a for x, a in zip(xs, e)])
                ambient = sympy.expand(sum(c * sympy.diff(mono, x) for c, x in zip(field, xs)))
                want = sympy.rem(ambient, relation, xs[3])
                got = frame_derive(Polynomial({e: 1}), i, chirality)
                assert sympy.expand(to_sympy(got) - want) == 0, (e, i, chirality)


def test_frame_derive_makes_no_polynomial_products_or_sums(monkeypatch):
    bases = [phi for k in range(5) for phi in harmonic_basis(k)]
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counting(self, other, _original=getattr(Polynomial, name), _name=name):
            calls.append(_name)
            return _original(self, other)
        monkeypatch.setattr(Polynomial, name, counting)
    for phi in bases:
        for i in (1, 2, 3):
            for chirality in ("left", "right"):
                frame_derive(phi, i, chirality)
    assert calls == []


def _per_monomial_derive(p, i, chirality):
    """E_i(p) (or F_i(p)) by the rule frame_derive followed before it kept the
    image of each monomial: every monomial x^a of p goes to the sum of
    s a_mu x^(a + e_nu - e_mu) over the signed coordinates s x_nu of the row,
    and the whole sum is reduced once."""
    raw = {}
    for mu, coeff in enumerate(ROWS[chirality][i - 1]):
        ((nu_exp, s),) = coeff.terms.items()
        for e, c in p.terms.items():
            if e[mu]:
                key = tuple(a + nu_exp[k] - (k == mu) for k, a in enumerate(e))
                raw[key] = raw.get(key, 0) + s * e[mu] * c
    return Polynomial(raw)


_DEGREE_6 = st.dictionaries(
    st.tuples(*[st.integers(0, 6)] * 4).filter(lambda e: sum(e) <= 6),
    st.fractions(-4, 4, max_denominator=6), max_size=8).map(Polynomial)


@settings(max_examples=150, deadline=None)
@given(_DEGREE_6, _DEGREE_6, _DEGREE_6)
def test_frame_derive_matches_the_per_monomial_rule(p, q, r):
    # the same monomials meet both chiralities and every index in one example,
    # so an image kept under the wrong table or changed after its first use shows
    jet = JetScalar(p, q, r)
    for chirality in ("left", "right"):
        for i in (1, 2, 3):
            for poly in (p, q, r, p):
                got = frame_derive(poly, i, chirality)
                want = _per_monomial_derive(poly, i, chirality)
                assert (got.num, got.den) == (want.num, want.den)
            got = frame_derive(jet, i, chirality)
            assert (got.c0, got.c1, got.c2) == tuple(
                _per_monomial_derive(c, i, chirality) for c in (p, q, r))


def test_laplacian_spectrum_on_coordinates():
    for x in X:
        assert laplacian_scalar(x) == Fraction(-3) * x
    assert laplacian_scalar(X[0] * X[1]) == Fraction(-8) * (X[0] * X[1])
    assert laplacian_scalar(Polynomial.constant(5)).is_zero


def test_stokes_frame_derivatives_integrate_to_zero():
    p = X[0] * X[1] * X[2] + X[3] * X[3] * X[0]
    for i in (1, 2, 3):
        assert integrate_s3(frame_derive(p, i)).is_zero
        assert integrate_s3(frame_derive(p, i, "right")).is_zero


def test_integration_by_parts():
    p, q = X[0] * X[1], X[2] + X[0] * X[0]
    for i in (1, 2, 3):
        lhs = integrate_s3(frame_derive(p, i) * q)
        rhs = -integrate_s3(p * frame_derive(q, i))
        assert lhs == rhs


def test_adjoint_matrix_is_orthogonal():
    A = adjoint_matrix()
    for i in range(3):
        for j in range(3):
            dot = sum((A[i][a] * A[j][a] for a in range(3)), Polynomial.zero())
            assert dot == (Polynomial.constant(1) if i == j else Polynomial.zero())



def test_op_words_compose_as_frame_derivatives():
    # E_1 (E_2 - 3 E_3) as words, and its matrix on harmonic_basis(2) is that of
    # the frame derivatives applied to each basis element
    op = frame_derive(frame_derive(Op(()), 2) - 3 * frame_derive(Op(()), 3), 1)
    assert op.words == {(1, 2): 1, (1, 3): -3}
    space, n = canonical_space(2), 9
    for j, phi in enumerate(harmonic_basis(2)):
        want = space.coords(frame_derive(frame_derive(phi, 2) - 3 * frame_derive(phi, 3), 1))
        got = [sum(c * Fraction(word_matrix(2, w)[0][j].get(i, 0), word_matrix(2, w)[1])
                   for w, c in op.words.items()) for i in range(n)]
        assert want[-n:] == got and not any(want[:-n])


def test_op_arithmetic():
    e1, e2 = Op((1,)), Op((2,))
    assert not Op() and not (e1 - e1)
    assert (e1 + 0).words == (0 + e1).words == (e1 + Polynomial.zero()).words == e1.words
    assert (e1 * Polynomial.constant(3) - e2 * Fraction(1, 2)).words == {(1,): 3, (2,): Fraction(-1, 2)}
    assert not (e1 * 0) and not (Polynomial.zero() * e1)
    for bad in (lambda: e1 * e2, lambda: e1 * X[0], lambda: e1 + 1):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ValueError):
        frame_derive(e1, 1, "right")


def test_word_matrices_are_integer_and_close_the_su2_bracket():
    # D_(i,j) - D_(j,i) = sum_l 2 eps_ijl D_(l), exactly on the integer
    # numerators: frame-letter words have D = 1, (INV_LAPLACIAN,) has k(k+2)
    for k in range(5):
        n = (k + 1) ** 2
        for i, j in product((1, 2, 3), repeat=2):
            (dij, d1), (dji, d2) = word_matrix(k, (i, j)), word_matrix(k, (j, i))
            assert d1 == d2 == word_matrix(k, (i,))[1] == 1
            assert all(type(x) is int for col in dij for x in col.values())
            bracket = [dij[s].get(r, 0) - dji[s].get(r, 0) for s in range(n) for r in range(n)]
            want = [sum(STRUCTURE[i - 1][j - 1][m - 1] * word_matrix(k, (m,))[0][s].get(r, 0)
                        for m in (1, 2, 3)) for s in range(n) for r in range(n)]
            assert bracket == want
        if k:
            assert word_matrix(k, (INV_LAPLACIAN,))[1] == k * (k + 2)


def test_inverse_laplacian_letter_scales_each_degree():
    for k in (1, 2, 3):
        n, ev = (k + 1) ** 2, -k * (k + 2)
        eye = [int(i == j) for j in range(n) for i in range(n)]
        lap = [sum(word_matrix(k, (m, m))[0][j].get(i, 0) for m in (1, 2, 3))
               for j in range(n) for i in range(n)]
        inv, d = word_matrix(k, (INV_LAPLACIAN,))
        inv = [Fraction(inv[j].get(i, 0), d) for j in range(n) for i in range(n)]
        assert lap == [ev * x for x in eye] and inv == [Fraction(x, ev) for x in eye]
    # at degree 0 the inverse Laplacian meets the constants
    assert word_matrix(0, (INV_LAPLACIAN, 1)) == (({},), 1)
    with pytest.raises(ValueError, match="nonzero mean"):
        word_matrix(0, (INV_LAPLACIAN,))
