"""Exact linear algebra over the rationals on sparse rows {column: Fraction}."""

import math
from fractions import Fraction


def rref(mat):
    """Reduced row echelon form of a list of rows of Fractions or ints, as
    (rows, pivot_columns): each row a dict {column: Fraction} of its nonzeros,
    empty past the rank. The input is not modified.

    The elimination is fraction-free: each row is scaled to primitive integers
    by the lcm of its own denominators, a row meets a pivot row as
    (pv/g) row - (f/g) prow with g = gcd(pv, f) and is divided by the gcd of
    its entries again, and only the last step divides each pivot row by its
    pivot, into Fractions."""
    rows = [_primitive(numerators([{c: x for c, x in enumerate(r) if x}])[0][0]) for r in mat]
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
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == r:
                continue
            g = math.gcd(pv, f)
            a, b = pv // g, f // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, x in prow.items():
                y = row.get(k, 0) - b * x
                if y:
                    row[k] = y
                else:
                    del row[k]
            rows[i] = _primitive(row)
        pivots.append(c)
    for row, c in zip(rows, pivots):
        pv = row[c]
        for k, x in row.items():
            row[k] = Fraction(x, pv)
    return rows, pivots


def _primitive(row):
    """The integer row {column: int} divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    if g > 1:
        return {k: x // g for k, x in row.items()}
    return row


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
