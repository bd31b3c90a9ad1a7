"""Per-operation oracles. Each check returns None when the output is right
and a one-line reason when it is not, so a wrong answer counts as a failed
operation instead of stopping the run.

The references in ``reference/`` were recorded from the program at the
commit that introduced the benchmark. Flow runs are checked against an
independent closed form: for a diagonal invariant metric diag(a1, a2, a3) on
SU(2) with [e_i, e_j] = 2 e_k (cyclic) and H = h0 e^123, Milnor's frame gives
the Ricci tensor, b stays 0 and d*H = 0, so the flow is a 3-variable ODE
that the same RK4 scheme integrates here in plain floats.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
TOL = 1e-9


def _close(x, ref):
    return abs(x - ref) <= TOL * max(1.0, abs(ref))


def _load(name):
    return (REFERENCE / name).read_text()


def check_lambda(report, argv):
    if not _close(report["lambda"], 4.0):
        return f"lambda {report['lambda']} != 4"
    return None


def check_spectrum(report, argv):
    ref = json.loads(_load("spectrum_degree2.json"))
    if report["slice_dimension"] != 61 or report["kernel_dim"] != 9 or report["stable"] is not True:
        return (f"slice {report['slice_dimension']}, kernel {report['kernel_dim']}, "
                f"stable {report['stable']}")
    eig = report["eigenvalues"]
    if len(eig) != len(ref["eigenvalues"]) or not all(
            _close(x, r) for x, r in zip(eig, ref["eigenvalues"])):
        return "eigenvalues differ from the reference"
    if not _close(report["lambda"], 4.0):
        return f"lambda {report['lambda']} != 4"
    return None


def check_verify(report, argv):
    if report["all_passed"] is not True:
        failed = [a["name"] for a in report["assertions"] if not a["passed"]]
        return f"verify failed: {failed}"
    if str(report["seed"]) != argv[argv.index("--seed") + 1]:
        return "verify reports another seed"
    return None


def _milnor_rhs(a, h0):
    a1, a2, a3 = a
    lam = (2 * math.sqrt(a1 / (a2 * a3)), 2 * math.sqrt(a2 / (a1 * a3)),
           2 * math.sqrt(a3 / (a1 * a2)))
    half = sum(lam) / 2
    mu = [half - x for x in lam]
    ric = (2 * mu[1] * mu[2] * a1, 2 * mu[0] * mu[2] * a2, 2 * mu[0] * mu[1] * a3)
    h2 = (2 * h0 * h0 / (a2 * a3), 2 * h0 * h0 / (a1 * a3), 2 * h0 * h0 / (a1 * a2))
    return ric, h2


def _milnor_sample(t, a, h0):
    ric, h2 = _milnor_rhs(a, h0)
    scalar = sum(r / x for r, x in zip(ric, a))
    lam = scalar - 6 * h0 * h0 / (a[0] * a[1] * a[2]) / 12
    residual = math.sqrt(sum((r - q / 4) ** 2 for r, q in zip(ric, h2)))
    return t, tuple(a), lam, residual


def flow_reference(diag, h0, dt, steps, every):
    """Samples (t, diag, lambda, residual) of the diagonal flow by RK4."""
    def f(a):
        ric, h2 = _milnor_rhs(a, h0)
        return [-2 * r + 0.5 * q for r, q in zip(ric, h2)]

    a = list(diag)
    out = [_milnor_sample(0.0, a, h0)]
    for n in range(1, steps + 1):
        k1 = f(a)
        k2 = f([x + dt / 2 * k for x, k in zip(a, k1)])
        k3 = f([x + dt / 2 * k for x, k in zip(a, k2)])
        k4 = f([x + dt * k for x, k in zip(a, k3)])
        a = [x + dt / 6 * (p + 2 * q + 2 * r + s)
             for x, p, q, r, s in zip(a, k1, k2, k3, k4)]
        if n % every == 0 or n == steps:
            out.append(_milnor_sample(n * dt, a, h0))
    return out


def check_flow(report, argv):
    if report["lambda_nondecreasing"] is not True:
        return "lambda is not nondecreasing"
    opt = dict(zip(argv[1::2], argv[2::2]))
    diag = [float(x) for x in opt["--g"][len("diag:"):].split(",")]
    ref = flow_reference(diag, float(opt["--h0"]), float(opt["--dt"]),
                         int(opt["--steps"]), int(opt["--sample-every"]))
    rows = report["samples"]
    if len(rows) != len(ref):
        return f"{len(rows)} samples, expected {len(ref)}"
    for row, (t, a, lam, residual) in zip(rows, ref):
        want = {"t": t, "lambda": lam, "residual": residual}
        for i in range(3):
            for j in range(3):
                want[f"g{i + 1}{j + 1}"] = a[i] if i == j else 0.0
                want[f"b{i + 1}{j + 1}"] = 0.0
        for key, value in want.items():
            if not _close(row[key], value):
                return f"sample t={row['t']}: {key} {row[key]} != {value}"
    return None


CLI_CHECKS = {
    "lambda": check_lambda,
    "spectrum": check_spectrum,
    "verify": check_verify,
    "flow": check_flow,
}


def check_cli(job, result):
    """Check one CLI job: exit code 0 and the command's oracle."""
    if result.get("error"):
        return result["error"].strip().splitlines()[-1]
    if result.get("rc") != 0:
        return f"exit code {result.get('rc')}"
    name = job["name"]
    if name == "igsd":
        return None if result["stdout"] == _load("igsd_degree2.json") else \
            "igsd output differs from the reference bytes"
    try:
        report = json.loads(result["stdout"])
        return CLI_CHECKS[name](report, job["argv"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable {name} output: {exc!r}"


def _triples():
    values = json.loads(_load("triple_integrals_degree2.json"))["values"]
    return {tuple(int(i) for i in k.split(",")): Fraction(v) for k, v in values.items()}


def expected_pairing(u, w, triples):
    """-6 mu int u^2 w dV / pi^2 with mu = 2, from the recorded triple integrals."""
    total = Fraction(0)
    for i, a in u:
        for j, b in u:
            for k, c in w:
                key = tuple(sorted((i, j, k)))
                total += Fraction(a) * Fraction(b) * Fraction(c) * triples.get(key, 0)
    return -12 * total


def check_jet(job, result):
    """Check a jet sweep; returns one reason (or None) per attempted pair."""
    pairs = job["pairs"]
    if result.get("error") or result.get("rc") != 0 or len(result.get("pairs", ())) != len(pairs):
        reason = (result.get("error") or f"exit code {result.get('rc')}").strip().splitlines()[-1]
        return [reason] * len(pairs)
    triples = _triples()
    out = []
    for pair, res in zip(pairs, result["pairs"]):
        if not res["all_formulas_match"]:
            out.append("jet formulas do not match")
        elif not res["residual_zero"]:
            out.append("nonzero residual")
        elif not res["matches_obstruction"]:
            out.append("pairing != obstruction(u, w)")
        elif Fraction(res["pairing"]) != expected_pairing(pair["u"], pair["w"], triples):
            out.append("pairing differs from the recorded triple integrals")
        else:
            out.append(None)
    return out
