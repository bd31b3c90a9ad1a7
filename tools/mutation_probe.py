"""Mutation probe: does the test suite notice a planted one-line fault?

Usage (from the repository root):

    python tools/mutation_probe.py            # every mutant below
    python tools/mutation_probe.py NAME ...   # only the named mutants

The probe copies ``src/``, ``tests/``, ``bench/``, ``pyproject.toml`` and
``README.md`` (``tests/test_cli.py`` reads its usage block) to a
temporary directory (under ``$TMPDIR`` if set), checks that the named test
files pass there unmutated, and then applies each mutant in turn: it replaces
one exact fragment of one source line, runs the mutant's test files with
``pytest -x`` against the mutated copy, and restores the file. A mutant is
killed when pytest fails and survives when it passes. One line per mutant is
printed, then a summary. The exit status is 0 when every mutant is killed,
1 when one survives and 2 when a mutant's fragment is not found exactly once
in its file (the source has moved on; edit the list).

A mutant that the tests cannot tell apart from the original, because it
computes the same values (an equivalent mutant), is kept in the list with
``equivalent=True`` and reported as such; it is not expected to be killed.

pytest does not collect this file: it is outside ``tests/``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md")

TENSOR_TESTS = ("tests/test_tensors.py", "tests/test_deformations.py",
                "tests/test_variational.py")
FLOW_TESTS = ("tests/test_flow.py",)
VARIATIONAL_TESTS = ("tests/test_variational.py", "tests/test_cli.py")
WORD_TESTS = ("tests/test_frames.py", "tests/test_variational.py")
FRAME_TESTS = ("tests/test_frames.py", "tests/test_poly.py")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple
    equivalent: bool = False


MUTANTS = (
    # christoffel: the structure terms and g^-1 in one contraction of a constant table
    Mutant("christoffel table drops its third term", "src/grflab/tensors.py",
           "t[m, i, k, p, m] -= _STRUCTURE[i, k, p]", "t[m, i, k, p, m] -= 0", TENSOR_TESTS),
    Mutant("adjugate reads a wrong cofactor entry", "src/grflab/tensors.py",
           "for s, t in ((1, 1), (2, 2), (1, 2), (2, 1))",
           "for s, t in ((1, 2), (2, 2), (1, 2), (2, 1))", TENSOR_TESTS),
    # Geometry.div: g^-1 traced into the symbols before they meet T
    Mutant("gamma_up raises the last slot", "src/grflab/tensors.py",
           'return contract("mn,nap->map", self.ginv, self.gamma)',
           'return contract("mn,pan->map", self.ginv, self.gamma)', TENSOR_TESTS),
    Mutant("div raises other symbols transposed", "src/grflab/tensors.py",
           'conn_up = contract("mn,nap->map", self.ginv, conn)',
           'conn_up = contract("mn,npa->map", self.ginv, conn)', TENSOR_TESTS),
    Mutant("div traces the wrong pair", "src/grflab/tensors.py",
           'contract("mmp->p", conn_up)', 'contract("mpm->p", conn_up)', TENSOR_TESTS),
    Mutant("div's v meets T's last slot", "src/grflab/tensors.py",
           'out = -contract("p,p...->...",', 'out = -contract("p,...p->...",', TENSOR_TESTS),
    Mutant("div's slot term swaps m and p", "src/grflab/tensors.py",
           'contract(f"m{idx[s]}p,m{idx[1:s]}p', 'contract(f"p{idx[s]}m,m{idx[1:s]}p',
           TENSOR_TESTS),
    Mutant("div subtracts its frame-derivative term", "src/grflab/tensors.py",
           "out = out + frame", "out = out - frame", TENSOR_TESTS),
    # g^-1 is symmetric, so raising T by its transpose changes no value; only
    # the list of specs that src/ hands to contract can see it
    Mutant("div's frame term against g^-1 transposed", "src/grflab/tensors.py",
           'contract("mn,n...->m...", self.ginv, T)',
           'contract("nm,n...->m...", self.ginv, T)', TENSOR_TESTS, equivalent=True),
    # the frame term is derived traced, E_m(g^{mn} T_n...), so (E_m g^{mn}) T_n...
    # must come off again; only a metric with frame derivatives (a jet) has it
    Mutant("div drops the (E_m g^mn) T correction", "src/grflab/tensors.py",
           "v = v + self.ginv_div", "v = v", TENSOR_TESTS),
    # Geometry._ricci: R_ijk^i without forming R_ijk^l
    Mutant("ricci's first product", "src/grflab/tensors.py",
           'contract("jkm,m->jk", conn, w)', 'contract("jmk,m->jk", conn, w)', TENSOR_TESTS),
    Mutant("ricci's second product", "src/grflab/tensors.py",
           'contract("ikm,jmi->jk", conn, conn +', 'contract("ikm,jim->jk", conn, conn +',
           TENSOR_TESTS),
    # the structure term rides in the conn.conn product; c is antisymmetric in
    # its lower slots, so reading c^i_jm for c^i_mj flips its sign
    Mutant("ricci's structure term", "src/grflab/tensors.py",
           "conn + _STRUCTURE.transpose(1, 0, 2)", "conn + _STRUCTURE.transpose(0, 1, 2)",
           TENSOR_TESTS),
    Mutant("ricci's connection trace", "src/grflab/tensors.py",
           'w = contract("iki->k", conn)', 'w = contract("kii->k", conn)', TENSOR_TESTS),
    Mutant("ricci derives the trace along E_k", "src/grflab/tensors.py",
           "frame_derive(w[k], j + 1)", "frame_derive(w[k], k + 1)", TENSOR_TESTS),
    Mutant("ricci derives conn[j, k, 1] along E_1", "src/grflab/tensors.py",
           "frame_derive(conn[j, k, 1], 2)", "frame_derive(conn[j, k, 1], 1)", TENSOR_TESTS),
    # frame_derive: numerators summed against the kept image of each monomial
    Mutant("monomial images keyed without the chirality", "src/grflab/frames.py",
           "_IMAGES[chirality, i]", '_IMAGES["left", i]', FRAME_TESTS),
    Mutant("a kept monomial image has its sign flipped", "src/grflab/frames.py",
           "image = images[e] = _image(table, e)",
           "image = _image(table, e)\n            images[e] = {k: -n for k, n in image.items()}",
           FRAME_TESTS),
    # packed monomial keys: x4^2 reduced inline, parity read with a mask
    Mutant("inline x4^2 reduction drops the -x3^2 term", "src/grflab/poly.py",
           "for s in _SQUARES:", "for s in _SQUARES[:2]:", FRAME_TESTS),
    Mutant("parity mask leaves out x4's bit", "src/grflab/poly.py",
           "_PARITY = sum(1 << (_W * i) for i in range(4))",
           "_PARITY = sum(1 << (_W * i) for i in range(3))", FRAME_TESTS),
    # the jet path: the nonzero Christoffel entries, one eigen-check per argument
    Mutant("sparse christoffel entries from a transposed index", "src/grflab/tensors.py",
           "_CHRISTOFFEL_ENTRIES = tuple(((m, i, k), (p, q)",
           "_CHRISTOFFEL_ENTRIES = tuple(((m, k, i), (p, q)", TENSOR_TESTS),
    Mutant("jet check skips w's eigen-check", "src/grflab/deformations.py",
           "u, w = _check_eigen(u), _check_eigen(w)", "u, w = _check_eigen(u), as_poly(w)",
           ("tests/test_deformations.py",)),
    # lambda_min: lambda = V on invariant data, exact or float64
    Mutant("lambda is -V", "src/grflab/variational.py",
           "lam = schrodinger_potential(geo)", "lam = -schrodinger_potential(geo)",
           VARIATIONAL_TESTS),
    Mutant("first variation weighs by e^{+f}", "src/grflab/variational.py",
           "math.exp(-float(geo.f.constant_value()))", "math.exp(float(geo.f.constant_value()))",
           VARIATIONAL_TESTS),
    # round-point blocks: one formal run, integer numerators
    Mutant("slot letter decoded with the wrong sign", "src/grflab/variational.py",
           "[r, -1 - w[-1]] = c", "[r, -1 + w[-1]] = c", VARIATIONAL_TESTS),
    Mutant("second variation over D_Z, not D_Z^2", "src/grflab/variational.py",
           "den = dr * dg * dz * dz", "den = dr * dg * dz", VARIATIONAL_TESTS),
    Mutant("block denominator without the symbol lcm", "src/grflab/variational.py",
           "return cols, dc * dx", "return cols, dx", VARIATIONAL_TESTS),
    # the block reaches kernel_basis as sparse rows, transposed from its columns
    Mutant("block entry transposed into the wrong row", "src/grflab/variational.py",
           "rows[i][j] = x", "rows[i - (i == j)][j] = x", VARIATIONAL_TESTS),
    # integer numerators from the word matrices to the reduced echelon form
    Mutant("elimination without the pv/g row scale", "src/grflab/linalg.py",
           "a, b = pv // g, f // g", "a, b = 1, f // g", ("tests/test_linalg.py",)),
    # a column that no row holds is a free unknown that only the caller's ncols names
    Mutant("kernel columns taken from the rows", "src/grflab/linalg.py",
           "set(range(ncols)) - set(pivots)", "set().union(*rows) - set(pivots)",
           ("tests/test_linalg.py", "tests/test_harmonics.py")),
    Mutant("inverse Laplacian over k(k+1)", "src/grflab/harmonics.py",
           "dt * k * (k + 2)", "dt * k * (k + 1)", WORD_TESTS),
    Mutant("gradient norms always equal", "src/grflab/deformations.py",
           'report["gradient_norms_equal"] = nh2 == nk2', 'report["gradient_norms_equal"] = True',
           ("tests/test_deformations.py",)),
    # verify: the round-point identities decided on the degree blocks
    Mutant("self-adjoint proof compares an entry with itself", "src/grflab/cli.py",
           "b[i][j] == b[j][i]", "b[i][j] == b[i][j]", ("tests/test_cli.py",)),
    Mutant("full kernel against a wrong dimension", "src/grflab/cli.py",
           "len(ker) == 9 * (k + 1) ** 2", "len(ker) == 9 * k ** 2", ("tests/test_cli.py",)),
    Mutant("proof verdict dropped from its assertion", "src/grflab/cli.py",
           "sampled and (proof is None or proof(geo))", "sampled", ("tests/test_cli.py",)),
    # flow: an ODE in g alone; one cached Geometry per state
    Mutant("dual path subtracts d*H", "src/grflab/flow.py",
           "(_g_rate(geo) + geo.dstar_H)", "(_g_rate(geo) - geo.dstar_H)", FLOW_TESTS),
    Mutant("soliton residual against H^2/2", "src/grflab/flow.py",
           "geo.Rc - geo.H2 / 4.0", "geo.Rc - geo.H2 / 2.0", FLOW_TESTS),
    Mutant("step_rk4 does not advance t", "src/grflab/flow.py",
           "h0, state.t + dt)", "h0, state.t)", FLOW_TESTS),
    # the same k1 from a Geometry of its own: only the construction count sees it
    Mutant("k1 builds its own Geometry", "src/grflab/flow.py",
           "k1 = _g_rate(state.geometry)", "k1 = rate(g0)", FLOW_TESTS),
    Mutant("flow states compare by value", "src/grflab/flow.py",
           "@dataclass(frozen=True, eq=False)", "@dataclass(frozen=True)", FLOW_TESTS),
    # flow_lambda: lambda read off the state's float64 Geometry; the CLI and
    # golden flows start from diagonal metrics, so only a dense one sees this
    Mutant("flow lambda reads only the diagonal of g", "src/grflab/flow.py",
           "lambda_min(state.geometry)",
           "lambda_min(Geometry(np.diag(state.g.diagonal()), state.H0_coeff))", FLOW_TESTS),
)


def _pytest(root, tests):
    """pytest's exit code for the test files, run -x against root's src/."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src"))).returncode


def main(names):
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutant: " + ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, root / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, root / name)
        for tests in sorted({m.tests for m in mutants}):
            if _pytest(root, tests) != 0:
                print(f"the unmutated copy fails {' '.join(tests)}", file=sys.stderr)
                return 2
        survived = stale = 0
        for m in mutants:
            path = root / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"stale     {m.name}: fragment found {text.count(m.old)} times")
                stale += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            start = time.monotonic()
            try:
                code = _pytest(root, m.tests)
            finally:
                path.write_text(text)
            verdict = "killed" if code != 0 else "survived"
            note = " (equivalent)" if m.equivalent else ""
            print(f"{verdict:9} {m.name}{note}  [{time.monotonic() - start:.0f} s]", flush=True)
            survived += code == 0 and not m.equivalent
        print(f"{len(mutants)} mutants: {survived} survived, {stale} stale, "
              f"{sum(m.equivalent for m in mutants)} marked equivalent")
    return 2 if stale else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
