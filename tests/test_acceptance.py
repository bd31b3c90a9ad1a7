"""End-to-end acceptance checks for the whole package.

Each criterion prints a single PASS/FAIL line.  Run with

    pytest -s tests/test_acceptance.py        or
    python3 tests/test_acceptance.py

Timing budgets are enforced where the check is expected to be fast.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from conftest import sparse_rows
from grflab.deformations import (canonical_igsd, igsd_kernel,
                                 integral_identities, jet_second_variation_check,
                                 obstruction, parallel_from_invariant_forms,
                                 round_geometry)
from grflab.flow import FlowState, grf_rhs, run_flow, soliton_residual, step_rk4
from grflab.harmonics import canonical_space, harmonic_basis
from grflab.linalg import rank
from grflab.poly import IntegralValue, Polynomial
from grflab.tensors import Geometry, SingularMetric, is_zero, obj_array, sym, zeros
from grflab.variational import (bianchi_contracted_check, block_eigenvalues, first_variation,
                                lambda_min, second_variation_matrix, slice_tangent_basis)

X = [Polynomial.variable(i) for i in (1, 2, 3, 4)]
EYE = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"


def flat_coords(space, t):
    """Exact coordinates in space of the components of t, in row-major order."""
    return [c for p in t.reshape(-1) for c in space.coords(p)]


def report(number, name, ok):
    print("criterion %02d %s: %s" % (number, name, "PASS" if ok else "FAIL"))
    assert ok, "criterion %02d (%s) failed" % (number, name)


def rand_metric(rng):
    while True:
        m = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                m[i][j] = m[j][i] = Fraction(rng.randint(-1, 1), rng.randint(1, 3))
            m[i][i] += Fraction(rng.randint(2, 4))
        try:
            Geometry(m, H=1)
            return m
        except SingularMetric:
            continue


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


def rand_potential(rng, degree=2):
    f = Polynomial.zero()
    for b in canonical_space(degree).basis:
        if rng.random() < 0.4:
            f = f + Fraction(rng.randint(-2, 2), rng.randint(1, 3)) * b
    return f


def test_criterion_01_round_critical_point():
    start = time.monotonic()
    geo = round_geometry()
    ok = (is_zero(geo.Rm_plus)
          and is_zero(geo.covd(geo.H, geo.gamma))
          and is_zero(geo.Rc - Fraction(1, 4) * geo.H2)
          and is_zero(geo.dstar(geo.H)))
    ok = ok and (time.monotonic() - start) < 1.0
    report(1, "round metric with torsion 2 dV is critical", ok)


def test_criterion_02_bismut_ricci_identity_randomized():
    start = time.monotonic()
    rng = random.Random(20)
    ok = True
    for _ in range(20):
        geo = Geometry(rand_metric(rng), H=Fraction(rng.randint(1, 3), rng.randint(1, 2)))
        want = geo.Rc - Fraction(1, 4) * geo.H2 - Fraction(1, 2) * geo.dstar(geo.H)
        ok = ok and is_zero(geo.Rc_plus - want)
    ok = ok and (time.monotonic() - start) < 10.0
    report(2, "connection Ricci tensor matches its closed form", ok)


def test_criterion_03_mixed_laplacian_dual_paths():
    geo = round_geometry()
    rng = random.Random(3)
    ok = True
    for _ in range(20):
        t = rand_tensor(rng)
        ok = ok and is_zero(geo.mixed_laplacian_formula(t) - geo.mixed_laplacian_definition(t))
    report(3, "mixed Laplacian formula equals adjoint definition", ok)


def test_criterion_04_contracted_bianchi_randomized():
    rng = random.Random(4)
    ok = True
    for _ in range(10):
        res = bianchi_contracted_check(Geometry(rand_metric(rng),
                                                Fraction(rng.randint(1, 3)),
                                                rand_potential(rng)))
        ok = ok and is_zero(res)
    report(4, "weighted contracted Bianchi identity is exact", ok)


def test_criterion_05_lambda_and_first_variation():
    geo = Geometry(EYE, H=2)
    ok = lambda_min(geo) == 4
    for a in range(3):
        for b in range(3):
            gamma = obj_array([[1 if (i, j) == (a, b) else 0 for j in range(3)]
                               for i in range(3)])
            ok = ok and first_variation(geo, gamma) == 0.0
    report(5, "lambda is 4 at the critical point with vanishing first variation", ok)


def test_criterion_06_second_variation_nonpositive_on_slice():
    geo = round_geometry()
    blocks = slice_tangent_basis(geo, 2)
    ok = [len(b) for b in blocks] == [6, 16, 39]
    m = second_variation_matrix(blocks, geo)
    eig = block_eigenvalues(m)
    symmetric = all(e == [list(col) for col in zip(*e)] for e in m)
    ok = ok and symmetric and eig.max() <= 1e-9
    # the spectrum recorded for the benchmark, to 1e-9 relative
    ref = json.loads((REFERENCE / "spectrum_degree2.json").read_text())["eigenvalues"]
    ok = ok and len(eig) == len(ref) and all(
        abs(x - r) <= 1e-9 * max(1.0, abs(r)) for x, r in zip(sorted(eig), ref))
    report(6, "second variation is nonpositive on the 61-dim slice", ok)


def test_criterion_07_kernel_dimension_and_spans():
    start = time.monotonic()
    space = canonical_space(2)
    ker2 = igsd_kernel(2)
    ker3 = igsd_kernel(3)
    ok = len(ker2) == 9 and len(ker3) == 9
    rows_ker = [flat_coords(space, d.gamma) for d in ker2]
    rows_par = [flat_coords(space, parallel_from_invariant_forms(i, j).gamma)
                for i in (1, 2, 3) for j in (1, 2, 3)]
    rows_can = [flat_coords(space, canonical_igsd(u).gamma) for u in harmonic_basis(2)]
    ok = ok and rank(sparse_rows(rows_ker)) == 9
    ok = ok and rank(sparse_rows(rows_par)) == 9 and rank(sparse_rows(rows_can)) == 9
    ok = ok and rank(sparse_rows(rows_ker + rows_par)) == 9
    ok = ok and rank(sparse_rows(rows_ker + rows_can)) == 9
    # the degree-3 kernel contains no new directions
    space3 = canonical_space(3)
    rows3 = [flat_coords(space3, d.gamma) for d in ker3]
    rows_par3 = [flat_coords(space3, parallel_from_invariant_forms(i, j).gamma)
                 for i in (1, 2, 3) for j in (1, 2, 3)]
    ok = ok and rank(sparse_rows(rows3)) == 9 and rank(sparse_rows(rows3 + rows_par3)) == 9
    ok = ok and (time.monotonic() - start) < 60.0
    report(7, "kernel has dimension 9 with matching parallel and canonical spans", ok)


def test_criterion_08_no_trace_free_kernel_directions():
    ker = igsd_kernel(2)
    space = canonical_space(2)
    trace_rows = []
    for d in ker:
        tr = sum((sym(d.gamma)[i, i] for i in range(3)), Polynomial.zero())
        trace_rows.append(space.coords(tr))
    from grflab.linalg import kernel_basis
    eqs = [[trace_rows[j][i] for j in range(len(ker))] for i in range(len(space.basis))]
    ok = kernel_basis(sparse_rows(eqs), len(ker)) == []
    report(8, "kernel meets the trace-free tensors only in zero", ok)


def test_criterion_09_integral_identities_on_kernel():
    ok = True
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            rep = integral_identities(parallel_from_invariant_forms(i, j).gamma)
            ok = (ok and rep["chain_holds"] and rep["gradient_norms_equal"]
                  and rep["ricci_identity_holds"])
    report(9, "curvature and divergence integral identities hold on the kernel", ok)


def test_criterion_10_obstruction_values():
    start = time.monotonic()
    u = X[0] * X[0] - X[1] * X[1]
    w = X[0] * X[0] - X[2] * X[2]
    ok = obstruction(u, w) == IntegralValue(-1)
    for s in (1, -1):
        us = X[0] * X[1] + s * X[2] * X[3]
        for wb in harmonic_basis(2):
            ok = ok and obstruction(us, wb) == IntegralValue(0)
    ok = ok and (time.monotonic() - start) < 5.0
    report(10, "obstruction separates integrable and obstructed directions", ok)


def test_criterion_11_jet_expansion_matches_obstruction():
    start = time.monotonic()
    ok = True
    for u in (X[0] * X[1], X[0] * X[0] - X[1] * X[1]):
        res = jet_second_variation_check(u, X[0] * X[0] - X[2] * X[2])
        ok = ok and res["all_formulas_match"] and res["residual"].is_zero
    basis = harmonic_basis(2)
    for u in basis:
        for w in basis:
            res = jet_second_variation_check(u, w)
            ok = ok and res["residual"].is_zero
            ok = ok and res["pairing"] == obstruction(u, w)
    ok = ok and (time.monotonic() - start) < 120.0
    report(11, "order-2 jet expansion reproduces the obstruction pairing", ok)


def test_criterion_12_flow_convergence_and_order():
    start = time.monotonic()
    fixed = FlowState(g=np.eye(3), H0_coeff=2.0)
    ok = np.abs(grf_rhs(fixed)).max() == 0.0
    ok = ok and soliton_residual(fixed) == 0.0

    initial = FlowState(g=np.diag([1.01, 1.0, 1.0]), H0_coeff=2.0)
    samples = run_flow(initial, 1e-3, 10000, sample_every=500)
    lams = [s[2] for s in samples]
    res = [s[3] for s in samples]
    ok = ok and all(b >= a - 1e-8 for a, b in zip(lams, lams[1:]))
    ok = ok and all(b <= a + 1e-12 for a, b in zip(res[1:], res[2:]))
    ok = ok and res[-1] < res[0]

    def integrate(dt, n):
        s = FlowState(g=np.diag([1.2, 1.0, 1.0]), H0_coeff=2.0)
        for _ in range(n):
            s = step_rk4(s, dt)
        return s.g

    ref = integrate(0.0025, 80)
    e1 = np.abs(integrate(0.01, 20) - ref).max()
    e2 = np.abs(integrate(0.005, 40) - ref).max()
    ok = ok and e1 / e2 > 12
    ok = ok and (time.monotonic() - start) < 60.0
    report(12, "flow converges to the fixed point at fourth order", ok)


if __name__ == "__main__":
    names = sorted(k for k in dir() if k.startswith("test_criterion"))
    for name in names:
        globals()[name]()
