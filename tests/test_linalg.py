import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sparse_rows
from grflab import linalg


def rand_matrix(rng, n, m):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
            for _ in range(n)]


def test_rank_against_numpy():
    rng = random.Random(3)
    for _ in range(25):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = rand_matrix(rng, n, m)
        want = np.linalg.matrix_rank(np.array([[float(x) for x in r] for r in mat]))
        assert linalg.rank(sparse_rows(mat)) == want


def test_kernel_vectors_are_in_kernel():
    rng = random.Random(5)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        mat = rand_matrix(rng, n, m)
        kernel = linalg.kernel_basis(sparse_rows(mat), m)
        assert len(kernel) == m - linalg.rank(sparse_rows(mat))
        for v in kernel:
            assert all(sum(r[j] * x for j, x in v.items()) == 0 for r in mat)


def test_mat_inv_exact():
    rng = random.Random(11)
    eye = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
    found = 0
    while found < 10:
        mat = rand_matrix(rng, 4, 4)
        try:
            inv = linalg.mat_inv(sparse_rows(mat))
        except ValueError:
            continue
        found += 1
        prod = [[sum(mat[i][t] * inv[t].get(j, 0) for t in range(4)) for j in range(4)]
                for i in range(4)]
        assert prod == eye
    with pytest.raises(ValueError):
        linalg.mat_inv(sparse_rows([[1, 2], [2, 4]]))


def test_sparse_mat_vec_against_dense():
    rng = random.Random(13)
    for _ in range(25):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[x if rng.random() < 0.4 else Fraction(0) for x in r]
               for r in rand_matrix(rng, n, m)]
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)]
        cols = [{i: r[j] for i, r in enumerate(mat) if r[j]} for j in range(m)]
        got = linalg.mat_vec(cols, [(j, y) for j, y in enumerate(v) if y], n)
        assert got == [sum((a * b for a, b in zip(r, v)), Fraction(0)) for r in mat]


def dense_rref(mat):
    """Dense Gauss-Jordan with the same pivot rule: the reference for rref."""
    rows = [[Fraction(x) for x in r] for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


@st.composite
def sparse_matrices(draw, square=False):
    """(mat, rows, m): a rational n x m matrix mat up to 8 x 8 at density
    0-60 %, with some rows and columns forced to zero, and its sparse rows as
    linalg reads them. Entries are small Fractions or, in rows that mix the
    two, ints up to 10^20 in size. A row holds its nonzeros and some explicit
    zeros, keys in a drawn order; a forced zero column is in no row, so it is
    a free unknown that only m names."""
    n = draw(st.integers(0, 8))
    m = n if square else draw(st.integers(0, 8))
    density = draw(st.integers(0, 60))
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    if draw(st.booleans()):
        entry = entry | st.integers(-10**20, 10**20)
    mat = [[draw(entry) if draw(st.integers(0, 99)) < density else Fraction(0)
            for _ in range(m)] for _ in range(n)]
    zero_rows = draw(st.sets(st.integers(0, n - 1))) if n else set()
    zero_cols = draw(st.sets(st.integers(0, m - 1))) if m else set()
    mat = [[Fraction(0) if i in zero_rows or j in zero_cols else x
            for j, x in enumerate(r)] for i, r in enumerate(mat)]
    rows = []
    for r in mat:
        keys = [j for j, x in enumerate(r) if x or j not in zero_cols and draw(st.booleans())]
        rows.append({j: r[j] or draw(st.sampled_from((0, Fraction(0))))
                     for j in draw(st.permutations(keys))})
    return mat, rows, m


def snapshot(rows):
    """The rows' items in order, to see that linalg leaves its input as it was."""
    return [list(r.items()) for r in rows]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_sparse_elimination_against_dense_reference(case):
    mat, sparse, ncols = case
    want_rows, want_pivots = dense_rref(mat)
    before = snapshot(sparse)
    rows, pivots = linalg.rref(sparse)
    assert snapshot(sparse) == before
    assert [[r.get(c, 0) for c in range(ncols)] for r in rows] == want_rows
    assert all(all(r.values()) for r in rows)
    assert all(type(x) is Fraction for r in rows for x in r.values())
    assert all(r[c] == 1 for r, c in zip(rows, pivots))
    assert pivots == want_pivots
    assert linalg.rank(sparse) == len(want_pivots)
    kernel = linalg.kernel_basis(sparse, ncols)
    assert snapshot(sparse) == before
    assert len(kernel) == ncols - len(want_pivots)
    for v in kernel:
        assert all(sum(r[j] * x for j, x in v.items()) == 0 for r in mat)
        assert list(v) == sorted(v) and all(type(x) is Fraction and x for x in v.values())
    # a zero column, one that no row holds among them, is a free unit vector
    for c in range(ncols):
        if not any(r[c] for r in mat):
            assert {c: 1} in kernel


@settings(max_examples=120, deadline=None)
@given(sparse_matrices(square=True))
def test_sparse_inverse_against_dense_reference(case):
    mat, sparse, n = case
    before = snapshot(sparse)
    if len(dense_rref(mat)[1]) < n:
        with pytest.raises(ValueError):
            linalg.mat_inv(sparse)
        assert snapshot(sparse) == before
        return
    inv = linalg.mat_inv(sparse)
    assert snapshot(sparse) == before
    prod = [[sum(mat[i][t] * inv[t].get(j, 0) for t in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 20),
                                st.fractions(min_value=-50, max_value=50, max_denominator=60)
                                | st.integers(-9, 9), max_size=6), max_size=6))
def test_numerators_round_trip_over_the_lcm(vectors):
    nums, den = linalg.numerators(vectors)
    assert den == math.lcm(*(Fraction(x).denominator for v in vectors for x in v.values()))
    assert all(type(n) is int for v in nums for n in v.values())
    assert [{key: Fraction(n, den) for key, n in v.items()} for v in nums] == vectors


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_kernel_of_integer_numerators_is_the_kernel(case):
    # a nonzero scale keeps the kernel, and its reduced echelon basis is unique
    _, sparse, ncols = case
    nums, _ = linalg.numerators(sparse)
    assert linalg.kernel_basis(nums, ncols) == linalg.kernel_basis(sparse, ncols)
