import math
import random
from fractions import Fraction

import numpy as np
import pytest

from grflab import linalg, variational
from grflab.deformations import round_geometry
from grflab.frames import INV_LAPLACIAN, Op
from grflab.harmonics import canonical_space, harmonic_basis
from grflab.poly import IntegralValue, Polynomial, as_poly, integrate_s3
from grflab.tensors import Geometry, is_zero, obj_array, zeros
from grflab.variational import (InconsistentSource, bianchi_contracted_check,
                                block_eigenvalues, first_variation, lambda_min,
                                operator_A, operator_B, pairing_matrix, phi_operator,
                                phi_relation_check, second_variation_form,
                                second_variation_matrix, slice_tangent_basis)

X = [Polynomial.variable(i) for i in (1, 2, 3, 4)]
EYE = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]


def round_geo():
    return Geometry(EYE, H=2)


def rand_tensor(rng, degree=2):
    space = canonical_space(degree)
    arr = zeros((3, 3))
    for i in range(3):
        for j in range(3):
            p = Polynomial.zero()
            for b in space.basis:
                if rng.random() < 0.3:
                    p = p + Fraction(rng.randint(-2, 2), rng.randint(1, 2)) * b
            arr[i, j] = p
    return arr


# -- lambda --------------------------------------------------------------------

def test_lambda_at_critical_point():
    lam = lambda_min(round_geo())
    assert lam == 4 and isinstance(lam, Fraction)


def test_lambda_torsion_free():
    assert lambda_min(Geometry(EYE, H=0)) == 6


def test_lambda_spectral_shift():
    # scaling the torsion coefficient shifts the constant potential
    lam1 = lambda_min(round_geo())
    lam2 = lambda_min(Geometry(EYE, H=1))
    # |H|^2 = 24 s^2 / 4 -> potential 6 - 2 s^2
    assert lam2 - lam1 == Fraction(11, 2) - 4


def test_lambda_degree_zero_is_constant_potential():
    # the 1x1 Galerkin problem on the constants is the potential itself
    lam = lambda_min(round_geo())
    assert galerkin_lambda(round_geo(), 0)[0] == pytest.approx(float(lam), rel=1e-15)


def galerkin_lambda(geo, degree):
    """Reference lambda: the smallest eigenvalue of -4 lap_g + V on polynomials
    of degree <= d, from the exact Galerkin matrices A and M by Cholesky and a
    symmetric float eigensolve, with the residual of its eigenvector."""
    space = canonical_space(degree)
    V = variational.schrodinger_potential(geo)
    ops = [Fraction(-4) * as_poly(geo.div(geo.covd_scalar(phi))) + V * phi
           for phi in space.basis]
    A = np.array(pairing_matrix(ops, space.basis), dtype=float)
    M = np.array(pairing_matrix(space.basis, space.basis), dtype=float)
    A, M = (A + A.T) / 2, (M + M.T) / 2
    L = np.linalg.cholesky(M)
    w, y = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, A).T))
    c = np.linalg.solve(L.T, y[:, 0])
    return float(w[0]), np.linalg.norm(A @ c - w[0] * (M @ c)) / np.linalg.norm(c)


def test_lambda_is_the_constant_potential_on_invariant_data():
    # invariant data have a constant potential, so the ground state is constant and
    # lambda is exactly that potential, whatever the metric; the Galerkin solve at
    # every degree agrees, and at degree >= 2 its mass matrix is not diagonal
    rng = random.Random(19)
    metrics = []
    for _ in range(2):
        metrics.append([[Fraction(rng.randint(1, 9), rng.randint(1, 5)) if i == j else 0
                         for j in range(3)] for i in range(3)])
        b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)]
             for _ in range(3)]
        metrics.append([[sum(b[i][k] * b[j][k] for k in range(3)) + (i == j) for j in range(3)]
                        for i in range(3)])
    for g in metrics:
        for h0 in (0, Fraction(1, 3), Fraction(7, 2)):
            geo = Geometry(g, H=h0)
            lam = lambda_min(geo)
            assert isinstance(lam, Fraction)
            for d in (0, 2, 4):
                value, residual = galerkin_lambda(geo, d)
                assert value == pytest.approx(float(lam), rel=1e-12, abs=0)
                assert residual < 1e-12


def test_lambda_rejects_a_nonconstant_potential():
    # H = (1 + x1) vol has a nonconstant |H|^2, so the ground state is not constant
    geo = Geometry(EYE, H=(1 + X[0]) * round_geo().H)
    with pytest.raises(ValueError, match="constant potential"):
        lambda_min(geo)


# -- first variation ------------------------------------------------------------

def test_first_variation_zero_at_critical_point():
    for a in range(3):
        for b in range(3):
            gamma = obj_array([[1 if (i, j) == (a, b) else 0 for j in range(3)]
                               for i in range(3)])
            assert first_variation(round_geo(), gamma) == 0.0


def test_first_variation_negative_along_soliton_tensor():
    g = [[Fraction(3, 2), 0, 0], [0, 1, 0], [0, 0, 1]]
    geo = Geometry(g, H=2)
    gamma = geo.bakry_emery()
    assert not is_zero(gamma)
    assert first_variation(geo, gamma) < 0


def test_first_variation_matches_finite_difference():
    # oracle: central differences of lambda_min along a homogeneous direction
    direction = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    base = [[Fraction(11, 10), 0, 0], [0, 1, 0], [0, 0, 1]]

    def lam2(t):
        g = [[base[i][j] for j in range(3)] for i in range(3)]
        g[0][0] = g[0][0] + Fraction(t)
        return float(lambda_min(Geometry(g, H=2)))

    fd = (lam2(Fraction(1, 10000)) - lam2(Fraction(-1, 10000))) / 2e-4
    gamma = obj_array(direction)
    # normalize the weight so that int e^{-f} dV_g = 1
    vol = 2 * math.pi ** 2 * math.sqrt(1.1)
    got = first_variation(Geometry(base, 2, Fraction(math.log(vol))), gamma)
    assert got == pytest.approx(fd, abs=1e-5)


def test_first_variation_rejects_a_nonconstant_f():
    geo = Geometry(EYE, H=2, f=X[0])
    with pytest.raises(ValueError, match="constant f"):
        first_variation(geo, obj_array(EYE))


# -- operators -------------------------------------------------------------------

def test_operator_b_on_metric():
    geo = round_geo()
    g = geo.g
    assert is_zero(operator_B(g, geo) - 4 * g)
    assert is_zero(operator_A(g, geo) - 4 * g)


def test_operator_b_energy_identity():
    # (B(gamma), gamma) = 1/2 ||mixed covd gamma||^2 - (curvature action, gamma)
    # with vanishing Bismut curvature on the round critical point
    geo = round_geo()
    rng = random.Random(0)
    gamma = rand_tensor(rng)
    lhs = integrate_s3(as_poly(geo.inner(operator_B(gamma, geo), gamma)))
    nb = geo.mixed_covd(gamma)
    rhs = Fraction(1, 2) * integrate_s3(as_poly(geo.inner(nb, nb)))
    assert lhs == rhs


def test_operator_a_self_adjoint():
    geo = round_geo()
    rng = random.Random(1)
    for _ in range(3):
        a, b = rand_tensor(rng), rand_tensor(rng)
        lhs = integrate_s3(as_poly(geo.inner(operator_A(a, geo), b)))
        rhs = integrate_s3(as_poly(geo.inner(a, operator_A(b, geo))))
        assert lhs == rhs


def test_operator_a_vanishes_on_gauge_directions():
    # the second variation is blind to the gauge directions div*(u, v): A div* = 0
    # pointwise, so <A div*(u, v), gamma> = 0 for every gamma
    geo = round_geo()
    rng = random.Random(6)
    for _ in range(3):
        u, v = rand_tensor(rng)[:2]  # two 1-forms of degree 2
        gauge = geo.divergence_adjoint((u, v))
        assert not is_zero(gauge)
        a = operator_A(gauge, geo)
        assert is_zero(a)
        gamma = rand_tensor(rng)
        assert integrate_s3(as_poly(geo.inner(a, gamma))).coeff == 0
        assert second_variation_form(gamma, gauge, geo).coeff == 0


def test_operator_a_equals_b_on_slice():
    geo = round_geo()
    for block in slice_tangent_basis(geo, 1):
        for gamma in block:
            assert is_zero(operator_A(gamma, geo) - operator_B(gamma, geo))


def test_operator_b_builds_bismut_curvature_once(monkeypatch):
    calls = []
    curvature = Geometry.curvature

    def counting(self, conn):
        calls.append(conn)
        return curvature(self, conn)

    monkeypatch.setattr(Geometry, "curvature", counting)
    geo = round_geo()
    gamma = rand_tensor(random.Random(6), 1)
    assert is_zero(operator_B(gamma, geo) - operator_B(gamma, geo))
    assert len(calls) == 1


def test_warm_operator_b_multiplies_few_polynomials(monkeypatch):
    # gamma meets H, H^2 and Rm+ with g^-1 already contracted in: no
    # 4- to 6-operand einsum re-multiplies those constants per call
    geo = round_geometry()
    gamma = rand_tensor(random.Random(6), 1)
    operator_B(gamma, geo)
    calls = []
    mul = Polynomial.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    operator_B(gamma, geo)
    assert len(calls) <= 2500  # 41,151 with the many-operand einsums


def test_raised_tensors_built_once_per_geometry(monkeypatch):
    built = []
    raised = Geometry.raised

    def counting(self, T, *slots):
        built.append((id(T), slots))
        return raised(self, T, *slots)

    monkeypatch.setattr(Geometry, "raised", counting)
    geo = round_geo()
    gamma = rand_tensor(random.Random(6), 1)
    operator_B(gamma, geo)
    first = list(built)
    assert first and len(set(first)) == len(first)
    operator_B(gamma, geo)
    geo.mixed_laplacian_definition(gamma)
    assert built == first


# -- Bianchi and Phi --------------------------------------------------------------

def test_contracted_bianchi_randomized():
    rng = random.Random(2)
    space = canonical_space(2)
    for _ in range(5):
        g = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                g[i][j] = g[j][i] = Fraction(rng.randint(-1, 1), 2)
            g[i][i] += Fraction(rng.randint(2, 4))
        f = Polynomial.zero()
        for b in space.basis:
            if rng.random() < 0.4:
                f = f + Fraction(rng.randint(-2, 2), rng.randint(1, 3)) * b
        res = bianchi_contracted_check(Geometry(g, Fraction(rng.randint(1, 3)), f))
        assert is_zero(res)


def test_bianchi_on_divergence_free():
    geo = round_geo()
    for block in slice_tangent_basis(geo, 1):
        for gamma in block:
            u, v = geo.twisted_divergence(gamma)
            assert is_zero(u) and is_zero(v)


def test_phi_relation_randomized():
    geo = round_geo()
    rng = random.Random(3)
    for _ in range(4):
        r1, r2 = phi_relation_check(rand_tensor(rng), geo)
        assert is_zero(r1) and is_zero(r2)


def test_phi_without_torsion_is_half_laplacian():
    geo = Geometry(EYE, H=0)
    u = np.array([X[0], X[1] * X[2], X[3]], dtype=object)
    p1, p2 = phi_operator((u, u), geo)
    want = Fraction(-1, 2) * geo.rough_laplacian_f(u)
    assert is_zero(p1 - want) and is_zero(p2 - want)


# -- second variation --------------------------------------------------------------

def test_second_variation_scaling_and_symmetry():
    geo = round_geo()
    rng = random.Random(4)
    a, b = rand_tensor(rng, 1), rand_tensor(rng, 1)
    q_ab = second_variation_form(a, b, geo)
    q_ba = second_variation_form(b, a, geo)
    assert q_ab == q_ba
    q3 = second_variation_form(3 * a, 3 * a, geo)
    assert q3 == 9 * second_variation_form(a, a, geo)


def test_second_variation_equals_gradient_energy_on_slice():
    geo = round_geo()
    for block in slice_tangent_basis(geo, 1):
        for gamma in block:
            nb = geo.mixed_covd(gamma)
            want = Fraction(-1, 2) * integrate_s3(as_poly(geo.inner(nb, nb)))
            assert second_variation_form(gamma, gamma, geo) == want


def test_second_variation_matrix_stability():
    geo = round_geo()
    blocks = slice_tangent_basis(geo, 1)
    m = second_variation_matrix(blocks, geo)
    assert all(e == [list(col) for col in zip(*e)] for e in m)
    eig = block_eigenvalues(m)
    assert eig.max() <= 1e-9


def _key(t):
    return tuple(tuple(sorted(as_poly(x).terms.items())) for x in t.reshape(-1))


def test_slice_blocks_equal_whole_space_slice():
    geo = round_geo()
    blocks = slice_tangent_basis(geo, 2)
    assert [len(b) for b in blocks] == [6, 16, 39]
    # reference: one kernel solve over all 126 basis tensors of degree <= 2
    space = canonical_space(2)
    basis = []
    for a, b in np.ndindex(3, 3):
        for phi in space.basis:
            t = zeros((3, 3))
            t[a, b] = phi
            basis.append(t)
    eqs = list(zip(*([c for s in geo.twisted_divergence(t) for p in s.reshape(-1)
                       for c in space.coords(p)] for t in basis)))
    ref = [sum((t * c for c, t in zip(vec, basis) if c != 0), zeros((3, 3)))
           for vec in linalg.kernel_basis(eqs)]
    assert len(ref) == 61
    assert {_key(t) for b in blocks for t in b} == {_key(t) for t in ref}


def test_slice_solves_one_degree_at_a_time(monkeypatch):
    harmonic_basis(2)  # cached, so its own kernel solve is not recorded
    shapes = []
    kernel_basis = linalg.kernel_basis

    def recording(mat):
        shapes.append((len(mat), len(mat[0])))
        return kernel_basis(mat)

    monkeypatch.setattr(linalg, "kernel_basis", recording)
    slice_tangent_basis(round_geo(), 2)
    # 9 (k+1)^2 unknowns; the 6 divergence components each in harmonic_basis(k) alone
    assert shapes == [(6, 9), (24, 36), (54, 81)]


def test_degree_kernels_rejects_a_map_that_lowers_degree():
    def d1(p):
        # d/dx1 of the canonical representative: linear, and x1 goes to 1
        return Polynomial({(e[0] - 1,) + e[1:]: e[0] * c for e, c in p.terms.items() if e[0]})

    def ambient_d1(t):
        return (obj_array([[d1(as_poly(x)) for x in row] for row in t]),)

    # the map reads polynomial terms, so the formal unit tensors of the symbol
    # do not run through it
    with pytest.raises(ValueError, match="need not keep harmonic degree"):
        variational.degree_kernels(1, ambient_d1)


def test_second_variation_pairs_distinct_degrees_to_zero():
    geo = round_geo()
    deg0, deg1 = slice_tangent_basis(geo, 1)
    images0 = [geo.raised(-operator_A(y, geo), 0, 1) for y in deg0]
    images1 = [geo.raised(-operator_A(y, geo), 0, 1) for y in deg1]
    cross = pairing_matrix(deg0, images1) + pairing_matrix(deg1, images0)
    assert len(cross) == 22 and all(x == 0 for row in cross for x in row)


def test_second_variation_matrix_pairs_within_blocks(monkeypatch):
    geo = round_geo()
    blocks = slice_tangent_basis(geo, 1)
    calls = []

    def counting(p, q=1):
        calls.append((p, q))
        return integrate_s3(p, q)

    monkeypatch.setattr(variational, "integrate_s3", counting)
    second_variation_matrix(blocks, geo)
    # the only integrals are the Gram matrices of harmonic_basis(0) and
    # harmonic_basis(1), one per pair of basis elements of one degree: no
    # element of degree 0 meets one of degree 1
    assert len(calls) == 1 ** 2 + 4 ** 2
    assert {(p.degree(), q.degree()) for p, q in calls} == {(0, 0), (1, 1)}


def test_second_variation_matrix_raises_each_image_once(monkeypatch):
    geo = round_geo()
    blocks = slice_tangent_basis(geo, 1)
    operator_A(blocks[1][0], geo)  # warm every cached contraction of geo
    raised = []
    original = Geometry.raised

    def counting(self, T, *slots):
        raised.append(slots)
        return original(self, T, *slots)

    monkeypatch.setattr(Geometry, "raised", counting)
    second_variation_matrix(blocks, geo)
    # the symbol of A is read off its image of one formal tensor, raised
    # once, whatever the number of block tensors
    assert raised == [(0, 1)]


def test_pairing_matrix_forms_no_products(monkeypatch):
    geo = round_geo()
    basis = canonical_space(2).basis
    tensors = [rand_tensor(random.Random(seed)) for seed in range(3)]
    columns = [geo.raised(t, 0, 1) for t in tensors]
    mul = Polynomial.__mul__
    calls = []

    def counting(p, q):
        calls.append((p, q))
        return mul(p, q)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    monkeypatch.setattr(Polynomial, "__rmul__", counting)
    gram = pairing_matrix(basis, basis)
    inner = pairing_matrix(tensors, columns)
    monkeypatch.undo()
    assert calls == []
    assert gram == [[integrate_s3(p * q).coeff for q in basis] for p in basis]
    assert inner == [[integrate_s3(as_poly(geo.inner(x, y))).coeff for y in tensors]
                     for x in tensors]


def test_inconsistent_source_cannot_happen_but_raises():
    geo = round_geo()
    from grflab.variational import _poisson_solve_f
    with pytest.raises(InconsistentSource):
        _poisson_solve_f(geo, Polynomial.constant(1))
    # a formal source meets the inverse Laplacian at degree 0: the source
    # t_11 is constant there, so it has a nonzero mean
    def solve(t):
        return (np.array([_poisson_solve_f(geo, t[0, 0])]),)

    with pytest.raises(InconsistentSource):
        variational.degree_kernels(1, solve)


# -- operator symbols ----------------------------------------------------------------

def per_tensor_columns(image, k):
    """Reference: the degree-k matrix of a map as one column per basis tensor
    e_ab (x) phi, each the degree-k coordinates of its image, the assembly that
    the operator symbols replace."""
    space, n = canonical_space(k), (k + 1) ** 2
    columns = []
    for a, b in np.ndindex(3, 3):
        for phi in harmonic_basis(k):
            t = zeros((3, 3))
            t[a, b] = phi
            col = []
            for p in np.concatenate([s.reshape(-1) for s in image(t)]):
                c = space.coords(p)
                assert not any(c[:-n])
                col.extend(c[-n:])
            columns.append(col)
    return columns


def per_tensor_second_variation(blocks, geo):
    """Reference: the second-variation blocks with one raised -A(t) per block tensor t."""
    return [pairing_matrix(b, [geo.raised(-operator_A(t, geo), 0, 1) for t in b])
            for b in blocks]


def symbol_columns(image, k):
    symbol = variational._symbol(image)
    rows = symbol[1] * (k + 1) ** 2
    cols, den = variational._block(symbol, k)
    return [[Fraction(col.get(i, 0), den) for i in range(rows)] for col in cols]


def nine_run_symbol(image):
    """Reference: the symbol as {word: sorted [(r, s, c)]}, read off one run of
    image on each formal unit tensor e_ab (x) Op(())."""
    words = {}
    for s, (a, b) in enumerate(np.ndindex(3, 3)):
        unit = np.full((3, 3), Op(), dtype=object)
        unit[a, b] = Op(())
        comps = np.concatenate([x.reshape(-1) for x in image(unit)])
        for r, x in enumerate(comps):
            for w, c in x.words.items():
                words.setdefault(w, []).append((r, s, c))
    return {w: sorted(e) for w, e in words.items()}


SKEWED = Geometry([[Fraction(11, 10), 0, 0], [0, Fraction(9, 10), 0], [0, 0, Fraction(21, 20)]],
                  H=Fraction(5, 2))


@pytest.mark.parametrize("geo", [round_geometry(), SKEWED], ids=["round", "skewed"])
def test_symbol_blocks_equal_the_per_tensor_assembly(geo):
    def b_and_divergence(t):
        return (operator_B(t, geo), *geo.twisted_divergence(t))

    for image in (b_and_divergence, geo.twisted_divergence):
        for k in range(4):
            assert symbol_columns(image, k) == per_tensor_columns(image, k)
    blocks = slice_tangent_basis(geo, 3)
    assert second_variation_matrix(blocks, geo) == per_tensor_second_variation(blocks, geo)


def test_symbol_blocks_see_words_composed_in_reverse(monkeypatch):
    # E_1 E_2 != E_2 E_1: composing each word's matrices in reverse letter
    # order changes the div* div part of A
    geo = round_geometry()
    blocks = slice_tangent_basis(geo, 2)
    want = per_tensor_second_variation(blocks, geo)
    word_matrix = variational.word_matrix
    monkeypatch.setattr(variational, "word_matrix", lambda k, w: word_matrix(k, w[::-1]))
    assert second_variation_matrix(blocks, geo) != want


@pytest.mark.parametrize("geo", [round_geometry(), SKEWED], ids=["round", "skewed"])
def test_one_run_symbol_equals_the_nine_run_symbol(geo):
    def b_and_divergence(t):
        return (operator_B(t, geo), *geo.twisted_divergence(t))

    def minus_a_raised(t):
        return (geo.raised(-operator_A(t, geo), 0, 1),)

    for image in (geo.twisted_divergence, b_and_divergence, minus_a_raised):
        words, _ = variational._symbol(image)
        got = {w: sorted((r, s, c) for (r, s), c in e.items()) for w, e in words.items()}
        assert got == nine_run_symbol(image)
    assert len(got) == 157
    assert any(INV_LAPLACIAN in w for w in got)


def test_symbol_rejects_a_word_without_slot_letter():
    # an affine map: the constant Op(()) is no image of a tensor entry
    def affine(t):
        return (np.array([t[0, 0] + Op(())]),)

    assert nine_run_symbol(affine)  # the nine-run loop took it silently
    with pytest.raises(ValueError, match="no slot letter"):
        variational._symbol(affine)


def test_degree_kernels_runs_the_map_once():
    geo = round_geo()
    calls = []

    def image(t):
        calls.append(t)
        return geo.twisted_divergence(t)

    blocks = variational.degree_kernels(3, image)
    assert [len(b) for b in blocks] == [6, 16, 39, 64]
    assert len(calls) == 1
