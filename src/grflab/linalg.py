"""Exact linear algebra over the rationals on sparse rows {column: Fraction}."""

import math
from fractions import Fraction


def rref(mat):
    """Reduced row echelon form of a list of rows of Fractions or ints, as
    (rows, pivot_columns): each row a dict {column: Fraction} of its nonzeros,
    empty past the rank. The input is not modified."""
    rows = [{c: Fraction(x) for c, x in enumerate(r) if x} for r in mat]
    nrows = len(rows)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        # the first row at or below row r that holds column c
        pivot = next((i for i in range(r, nrows) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        if pv != 1:
            prow = rows[r] = {k: x / pv for k, x in prow.items()}
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == r:
                continue
            for k, x in prow.items():
                row[k] = row.get(k, 0) - f * x
                if not row[k]:
                    del row[k]
        pivots.append(c)
    return rows, pivots


def rank(mat):
    return len(rref(mat)[1])


def kernel_basis(mat):
    """Basis of the right kernel of a matrix (rows = equations) of Fractions or ints."""
    ncols = len(mat[0]) if mat else 0
    rows, pivots = rref(mat)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def mat_inv(mat):
    """Inverse of a square rational matrix, as rows {column: Fraction}."""
    n = len(mat)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(mat)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [{k - n: x for k, x in row.items() if k >= n} for row in rows]


def numerators(vectors):
    """(numerators, D) of sparse vectors {key: Fraction or int}: the vectors
    of Python ints n = x D, D the lcm of every entry's denominator."""
    den = math.lcm(*(x.denominator for v in vectors for x in v.values()))
    return [{key: x.numerator * (den // x.denominator) for key, x in v.items()}
            for v in vectors], den


def mat_vec(cols, v, n):
    """The product a v of the n-row matrix a with columns cols[j] = {i: a[i][j]} and
    the sparse vector v, a list of (j, v_j): only the columns j of v are read.
    Int entries give ints."""
    out = [0] * n
    for j, y in v:
        for i, x in cols[j].items():
            out[i] += x * y
    return out
