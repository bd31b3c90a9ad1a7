"""Helpers shared by the test modules."""


def sparse_rows(mat):
    """The dense matrix mat (a list of rows) as the sparse rows
    {column: entry} that ``grflab.linalg`` reads."""
    return [{c: x for c, x in enumerate(row) if x} for row in mat]
