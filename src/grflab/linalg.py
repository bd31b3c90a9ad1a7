"""Exact linear algebra over the rationals in one sparse format: rows
{column: int or Fraction} in, vectors {column: Fraction} out."""

import math
from fractions import Fraction


def rref(rows):
    """Reduced row echelon form of sparse rows {column: Fraction or int}, as
    (rows, pivot_columns): each row a dict {column: Fraction} of its nonzeros,
    empty past the rank. The columns are the sorted union of those the rows
    hold: elimination makes no other. The input is not modified.

    The elimination is fraction-free: each row is scaled to primitive integers
    by the lcm of its own denominators, a row meets a pivot row as
    (pv/g) row - (f/g) prow with g = gcd(pv, f) and is divided by the gcd of
    its entries again, and only the last step divides each pivot row by its
    pivot, into Fractions."""
    rows = [_primitive(numerators([{c: x for c, x in r.items() if x}])[0][0]) for r in rows]
    nrows = len(rows)
    pivots = []
    for c in sorted(set().union(*rows)):
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


def rank(rows):
    return len(rref(rows)[1])


def kernel_basis(rows, ncols):
    """Basis of the right kernel of sparse rows (equations) in the unknowns
    0..ncols-1, as sparse vectors {column: Fraction} in column order: one per
    free column, and a column that no row holds is free."""
    red, pivots = rref(rows)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = {pc: -row[fc] for row, pc in zip(red, pivots) if fc in row}
        v[fc] = Fraction(1)
        basis.append(dict(sorted(v.items())))
    return basis


def mat_inv(rows):
    """Inverse of a square rational matrix given as sparse rows, as rows
    {column: Fraction}."""
    n = len(rows)
    red, pivots = rref([{**row, n + i: 1} for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [{k - n: x for k, x in row.items() if k >= n} for row in red]


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
