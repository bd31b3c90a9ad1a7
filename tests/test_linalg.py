import random
from fractions import Fraction

import numpy as np
import pytest

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
        assert linalg.rank(mat) == want


def test_kernel_vectors_are_in_kernel():
    rng = random.Random(5)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        mat = rand_matrix(rng, n, m)
        kernel = linalg.kernel_basis(mat)
        assert len(kernel) == m - linalg.rank(mat)
        for v in kernel:
            assert all(sum(r[j] * v[j] for j in range(m)) == 0 for r in mat)


def test_mat_inv_exact():
    rng = random.Random(11)
    eye = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
    found = 0
    while found < 10:
        mat = rand_matrix(rng, 4, 4)
        try:
            inv = linalg.mat_inv(mat)
        except ValueError:
            continue
        found += 1
        prod = [[sum(mat[i][t] * inv[t][j] for t in range(4)) for j in range(4)]
                for i in range(4)]
        assert prod == eye
    with pytest.raises(ValueError):
        linalg.mat_inv([[1, 2], [2, 4]])


def test_sparse_mat_vec_against_dense():
    rng = random.Random(13)
    for _ in range(25):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[x if rng.random() < 0.4 else Fraction(0) for x in r]
               for r in rand_matrix(rng, n, m)]
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)]
        got = linalg.mat_vec(linalg.sparse_columns(mat), [(j, y) for j, y in enumerate(v) if y],
                             n)
        assert got == [sum((a * b for a, b in zip(r, v)), Fraction(0)) for r in mat]
