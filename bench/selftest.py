"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

runs the seed and oracle tests, which take seconds, and then the coverage
test, which traces one pass of every workload and takes several minutes.

Seed test: the same seed yields the same inputs, in this process and in a
fresh one; another seed changes the inputs of every seeded workload, and
round-point inputs do not depend on the seed.

Oracle test: outputs with one wrong value are rejected, and the recorded
references accept themselves.

Coverage test: a traced run of each workload finds every wrapped target
and every per-layer metric of BENCHMARK.json, is nonzero where
``COVERAGE`` ties a layer to the workload and zero where the workload never
reaches it, fails no operation and records the digest of its inputs.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import jobs
import oracle
import run

SEEDED = ("random-geometry", "jet-sweep", "flow")

# Counts the coverage test requires on each workload. "nonzero" lists
# the layers a workload exists to exercise; "zero" lists layers it never
# reaches, so a wrapper that misses a by-name import or a layer that starts
# leaking into a workload shows up.
COVERAGE = {
    "round-point": {
        "nonzero": ("tensors.mixed_laplacian.calls", "tensors.covd.calls",
                    "variational.operator_A.calls", "tensors.inner.calls",
                    "poly.integrate.calls", "linalg.rref.calls", "poly.mul.calls",
                    "poly.add.calls", "harmonics.space_build.calls",
                    "variational.lambda_min.calls", "deformations.equivalence_check.calls",
                    "cli.emit.bytes"),
        "zero": ("flow.step.calls", "flow.lambda.calls", "deformations.jet_check.calls",
                 "poly.jet_mul.calls"),
    },
    "random-geometry": {
        "nonzero": ("tensors.mixed_laplacian.calls", "tensors.covd.calls",
                    "tensors.geometry_init.calls", "poly.mul.calls", "poly.add.calls",
                    "variational.operator_A.calls", "poly.integrate.calls",
                    "variational.lambda_min.calls", "cli.emit.bytes"),
        "zero": ("deformations.jet_check.calls", "poly.jet_mul.calls",
                 "deformations.equivalence_check.calls", "flow.step.calls",
                 "flow.lambda.calls"),
    },
    "jet-sweep": {
        "nonzero": ("deformations.jet_check.calls", "poly.jet_mul.calls",
                    "tensors.geometry_init.calls", "poly.mul.calls", "poly.add.calls",
                    "harmonics.poisson.calls", "harmonics.space_build.calls"),
        "zero": ("variational.operator_A.calls", "variational.operator_B.calls",
                 "tensors.mixed_laplacian.calls", "tensors.twisted_divergence.calls",
                 "flow.step.calls", "flow.lambda.calls", "variational.lambda_min.calls",
                 "cli.emit.bytes"),
    },
    "flow": {
        "nonzero": ("flow.step.calls", "flow.lambda.calls", "variational.lambda_min.calls",
                    "cli.emit.bytes"),
        "zero": ("tensors.mixed_laplacian.calls", "variational.operator_A.calls",
                 "variational.operator_B.calls", "tensors.inner.calls",
                 "deformations.jet_check.calls", "poly.jet_mul.calls",
                 "harmonics.poisson.calls"),
    },
}


def seed_test():
    errors = []
    for w in run.WORKLOADS:
        if jobs.pass_jobs(w, 7, 0) != jobs.pass_jobs(w, 7, 0):
            errors.append(f"{w}: seed 7 gives two different input lists")
        fresh = subprocess.run(
            [sys.executable, "-c",
             f"import jobs; print(jobs.digest(jobs.pass_jobs({w!r}, 7, 0)))"],
            cwd=Path(__file__).resolve().parent, capture_output=True, text=True, check=True)
        if fresh.stdout.strip() != jobs.digest(jobs.pass_jobs(w, 7, 0)):
            errors.append(f"{w}: a fresh interpreter generates other inputs for seed 7")
        digests = {jobs.digest(jobs.pass_jobs(w, s, 0)) for s in range(5)}
        if w in SEEDED and len(digests) != 5:
            errors.append(f"{w}: different seeds give equal inputs")
        if w not in SEEDED and len(digests) != 1:
            errors.append(f"{w}: inputs depend on the seed")
        if w in SEEDED and jobs.digest(jobs.pass_jobs(w, 7, 1)) == jobs.digest(
                jobs.pass_jobs(w, 7, 0)):
            errors.append(f"{w}: pass 1 repeats the inputs of pass 0")
    return errors


def _flow_output(argv):
    """A flow report as the CLI prints it, built from the oracle's reference."""
    opt = dict(zip(argv[1::2], argv[2::2]))
    diag = [float(x) for x in opt["--g"][len("diag:"):].split(",")]
    rows = []
    for t, a, lam, residual in oracle.flow_reference(
            diag, float(opt["--h0"]), float(opt["--dt"]), int(opt["--steps"]),
            int(opt["--sample-every"])):
        row = {"t": float(f"{t:.12g}"), "lambda": float(f"{lam:.12g}"),
               "residual": float(f"{residual:.12g}")}
        for i in range(3):
            for j in range(3):
                row[f"g{i + 1}{j + 1}"] = float(f"{a[i]:.12g}") if i == j else 0.0
                row[f"b{i + 1}{j + 1}"] = 0.0
        rows.append(row)
    return {"command": "flow", "samples": rows, "lambda_nondecreasing": True}


def oracle_test():
    errors = []

    def expect(job, result, ok):
        verdict = oracle.check_cli(job, result)
        if (verdict is None) != ok:
            errors.append(f"{job['name']}: expected {'pass' if ok else 'failure'}, got {verdict}")

    rp = {j["name"]: j for j in jobs.pass_jobs("round-point", 0, 0)}
    igsd = (oracle.REFERENCE / "igsd_degree2.json").read_text()
    expect(rp["igsd"], {"rc": 0, "stdout": igsd}, True)
    expect(rp["igsd"], {"rc": 0, "stdout": igsd.replace("1/3 * pi^2", "1/4 * pi^2", 1)}, False)
    expect(rp["igsd"], {"rc": 1, "stdout": igsd}, False)

    spectrum = json.loads((oracle.REFERENCE / "spectrum_degree2.json").read_text())
    expect(rp["spectrum"], {"rc": 0, "stdout": json.dumps(spectrum)}, True)
    for key, value in (("kernel_dim", 8), ("slice_dimension", 60), ("stable", False)):
        bad = dict(spectrum, **{key: value})
        expect(rp["spectrum"], {"rc": 0, "stdout": json.dumps(bad)}, False)
    bad = copy.deepcopy(spectrum)
    bad["eigenvalues"][10] += 1e-6
    expect(rp["spectrum"], {"rc": 0, "stdout": json.dumps(bad)}, False)

    lam = {"command": "lambda", "degree": 4, "lambda": 4.0}
    expect(rp["lambda"], {"rc": 0, "stdout": json.dumps(lam)}, True)
    expect(rp["lambda"], {"rc": 0, "stdout": json.dumps(dict(lam, **{"lambda": 4.0001}))}, False)
    expect(rp["lambda"], {"rc": 0, "stdout": "not json"}, False)
    expect(rp["lambda"], {"error": "Traceback ...\nZeroDivisionError: boom"}, False)

    verify = jobs.pass_jobs("random-geometry", 0, 0)[0]
    seed = int(verify["argv"][-1])
    good = {"seed": seed, "all_passed": True, "assertions": [{"name": "a", "passed": True}]}
    expect(verify, {"rc": 0, "stdout": json.dumps(good)}, True)
    bad = {"seed": seed, "all_passed": False, "assertions": [{"name": "a", "passed": False}]}
    expect(verify, {"rc": 1, "stdout": json.dumps(bad)}, False)
    expect(verify, {"rc": 0, "stdout": json.dumps(dict(good, seed=seed + 1))}, False)

    flow = jobs.pass_jobs("flow", 0, 0)[0]
    report = _flow_output(flow["argv"])
    expect(flow, {"rc": 0, "stdout": json.dumps(report)}, True)
    bad = copy.deepcopy(report)
    bad["samples"][7]["g22"] += 1e-7
    expect(flow, {"rc": 0, "stdout": json.dumps(bad)}, False)
    expect(flow, {"rc": 0, "stdout": json.dumps(dict(report, lambda_nondecreasing=False))}, False)

    jet = jobs.pass_jobs("jet-sweep", 0, 0)[0]
    triples = oracle._triples()
    pairs = []
    for pair in jet["pairs"]:
        value = oracle.expected_pairing(pair["u"], pair["w"], triples)
        pairs.append({"all_formulas_match": True, "residual_zero": True,
                      "matches_obstruction": True,
                      "pairing": f"{value.numerator}/{value.denominator}"})
    if oracle.check_jet(jet, {"rc": 0, "pairs": pairs}) != [None] * len(pairs):
        errors.append("jet-sweep: the recorded triple integrals reject their own pairings")
    for i, key in enumerate(("all_formulas_match", "residual_zero", "matches_obstruction")):
        bad = copy.deepcopy(pairs)
        bad[i][key] = False
        if oracle.check_jet(jet, {"rc": 0, "pairs": bad}).count(None) != len(pairs) - 1:
            errors.append(f"jet-sweep: a pair with {key} false is not the only failure")
    bad = copy.deepcopy(pairs)
    bad[3]["pairing"] = "1/7"
    if oracle.check_jet(jet, {"rc": 0, "pairs": bad})[3] is None:
        errors.append("jet-sweep: a wrong pairing value passes")
    if oracle.check_jet(jet, {"error": "Traceback\nRuntimeError: x"}).count(None):
        errors.append("jet-sweep: a crashed sweep counts some pairs as passed")
    return errors


def coverage_test(seed=1):
    errors = []
    for w in run.WORKLOADS:
        metrics, extra, attempted, failures = run.measure(w, seed, 0, trace=True)
        print(f"coverage {w}: {attempted} ops, {len(failures)} failed, "
              f"overhead {metrics['trace.overhead_ratio'][0]:.2f}", flush=True)
        errors += [f"{w}: {f}" for f in failures]
        if extra["trace.missing"][0]:
            errors.append(f"{w}: some trace targets or metrics were not found")
        if extra["inputs.digest"][0] != jobs.digest(jobs.pass_jobs(w, seed, 0)):
            errors.append(f"{w}: the run records another input digest")
        for name in COVERAGE[w]["nonzero"] + ("src.lines", "trace.overhead_ratio"):
            if not metrics[name][0]:
                errors.append(f"{w}: {name} is 0")
        for name in COVERAGE[w]["zero"]:
            if metrics[name][0]:
                errors.append(f"{w}: {name} is {metrics[name][0]}, expected 0")
    return errors


def main():
    errors = seed_test() + oracle_test()
    print(f"seed and oracle tests: {len(errors)} failures", flush=True)
    errors += coverage_test()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
