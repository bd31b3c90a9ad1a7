"""Exact linear algebra over the rationals (dense, list-of-lists)."""

from fractions import Fraction


def rref(mat):
    """Reduced row echelon form. Returns (rows, pivot_columns).

    The input is not modified. Rows are lists of Fractions.
    """
    rows = [[Fraction(x) for x in r] for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # pick any nonzero pivot in column c at or below row r
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


def rank(mat):
    if not mat:
        return 0
    _, pivots = rref(mat)
    return len(pivots)


def kernel_basis(mat):
    """Basis of the right kernel of a matrix (rows = equations)."""
    if not mat:
        return []
    ncols = len(mat[0])
    rows, pivots = rref(mat)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def mat_inv(mat):
    """Inverse of a square Fraction matrix."""
    n = len(mat)
    aug = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, r in enumerate(mat)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in rows]


def sparse_columns(a):
    """The columns of a matrix as lists of their nonzero entries (i, a[i][j])."""
    return [[(i, row[j]) for i, row in enumerate(a) if row[j]]
            for j in range(len(a[0]) if a else 0)]


def mat_vec(cols, v, n):
    """The product a v of the n-row matrix a given by sparse_columns(a) and the
    sparse vector v, a list of (j, v_j): only the columns j of v are read."""
    out = [Fraction(0)] * n
    for j, y in v:
        for i, x in cols[j]:
            out[i] += x * y
    return out
