"""Helpers shared by the test modules."""

from grflab.variational import operator_A, pairing_matrix


def sparse_rows(mat):
    """The dense matrix mat (a list of rows) as the sparse rows
    {column: entry} that ``grflab.linalg`` reads."""
    return [{c: x for c, x in enumerate(row) if x} for row in mat]


def second_variation(x, y, geo):
    """Reference: the second-variation form -(x, A y) as a coefficient of pi^2."""
    return pairing_matrix([x], [geo.raised(-operator_A(y, geo), 0, 1)])[0][0]
