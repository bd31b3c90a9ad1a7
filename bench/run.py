"""grflab benchmark: cold user jobs timed from outside the package.

Usage (from the repository root):

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The workloads, and the metrics with their units, are those listed in
BENCHMARK.json. run.py, one process with no threads, starts a fresh
interpreter per job, one at a time, with GRFLAB_THREADS unset, so each
job costs what a CLI user pays. Each child times ``import grflab.cli`` and
then the job itself (see ``child.py``); every output goes through its oracle
(``oracle.py``), and a wrong answer counts as a failed operation.

``--trace 0`` repeats passes of the workload's fixed job list until
``--seconds`` have elapsed (at least one pass) and reports the end-to-end
metrics as medians. ``--trace 1`` runs pass 0 once plainly and once with the
per-layer wrappers of ``layers.py`` installed, and reports the per-layer
counters, whose counts depend only on the seed, with the tracing overhead.

Every metric is printed by name with its unit, one per line; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS = ROOT / ".bench_out"
SETUP_PROBES = 3
# A run must end within 180 s, so every child shares one deadline: a child
# still running at it is stopped and counts as a failed operation. A change
# that makes a pass several times slower therefore shows as ops_failed.
RUN_LIMIT_S = 170.0

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}


class Run:
    """Children, oracle verdicts and failures of one benchmark run."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.attempted = 0
        self.failures = []

    def child(self, job, trace=False, spans=None):
        spec = json.dumps({"job": job, "trace": trace, "spans": spans})
        env = {k: v for k, v in os.environ.items() if k != "GRFLAB_THREADS"}
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), str(SRC)],
                                  input=spec, capture_output=True, text=True,
                                  timeout=timeout, env=env, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return {"error": f"child exited with {proc.returncode}: {tail[0]}"}

    def job(self, job, **kwargs):
        """Run one job in a fresh child and record its oracle verdicts."""
        result = self.child(job, **kwargs)
        if job["kind"] == "cli":
            verdicts = [oracle.check_cli(job, result)]
        else:
            verdicts = oracle.check_jet(job, result)
        self.attempted += len(verdicts)
        self.failures += [f"{job['name']}: {v}" for v in verdicts if v is not None]
        return result

    def probe(self):
        result = self.child(None)
        if "import_s" not in result or result.get("error"):
            self.attempted += 1
            self.failures.append(f"import: {result.get('error')}")
        return result


def src_lines():
    return sum(1 for path in sorted((SRC / "grflab").rglob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def _median(values):
    return statistics.median(values) if values else 0.0


def plain_run(run, workload, seed, seconds):
    """End-to-end metrics: medians over the run's passes and jobs."""
    results = [run.probe() for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        t = time.monotonic()
        pass_jobs = jobs.pass_jobs(workload, seed, len(passes))
        passes.append([(job, run.job(job)) for job in pass_jobs])
        results += [r for _, r in passes[-1]]
        if time.monotonic() + (time.monotonic() - t) > run.deadline:
            break
    metrics = {
        "wall_s": _median([sum(r.get("job_s", 0.0) for _, r in p) for p in passes]),
        "setup_s": _median([r["import_s"] for r in results if "import_s" in r]),
        "peak_rss_mb": max((r.get("maxrss_kb", 0) for r in results), default=0) / 1024,
    }
    extra = {"passes": (len(passes), "count"),
             "inputs.digest": (jobs.digest(jobs.pass_jobs(workload, seed, 0)), "sha256"),
             "setup.samples": (sum("import_s" in r for r in results), "count")}
    by_name = {}
    for p in passes:
        for job, r in p:
            if "job_s" in r:
                by_name.setdefault(job["name"], []).append((job, r))
    for name, done in sorted(by_name.items()):
        times = [r["job_s"] for _, r in done]
        extra[f"{name}_s"] = (_median(times), "s")
        extra[f"{name}.jobs"] = (len(times), "count")
    if "flow" in by_name:
        extra["steps_per_s"] = (_median([jobs.FLOW_STEPS / r["job_s"]
                                         for _, r in by_name["flow"]]), "1/s")
    if "jet-sweep" in by_name:
        done = by_name["jet-sweep"]
        extra["pairs_per_s"] = (_median([len(job["pairs"]) / r["job_s"] for job, r in done]),
                                "1/s")
        extra["jet.pair_s"] = (_median([p["s"] for _, r in done for p in r["pairs"]]), "s")
        extra["jet.u_repeat_share"] = (
            _median([jobs.u_repeat_share(job["pairs"]) for job, _ in done]), "ratio")
    return {k: (metrics[k], unit) for k, unit in END_TO_END.items()}, extra


def traced_run(run, workload, seed):
    """Per-layer metrics of pass 0, and the overhead of tracing it."""
    pass_jobs = jobs.pass_jobs(workload, seed, 0)
    plain = [run.job(job) for job in pass_jobs]
    SPANS.mkdir(exist_ok=True)
    traced = [run.job(job, trace=True,
                      spans=str(SPANS / f"spans-{workload}-{seed}-{i}.json"))
              for i, job in enumerate(pass_jobs)]
    totals = dict.fromkeys(PER_LAYER, 0)
    reported = {"src.lines", "trace.overhead_ratio"}
    missing = set()
    for r in traced:
        for name, value in r.get("layers", {}).items():
            if name in totals:
                totals[name] += value
                reported.add(name)
        missing.update(r.get("missing", ()))
    missing.update(f"metric {name}" for name in set(PER_LAYER) - reported)
    plain_s = sum(r.get("job_s", 0.0) for r in plain)
    traced_s = sum(r.get("job_s", 0.0) for r in traced)
    totals["src.lines"] = src_lines()
    totals["trace.overhead_ratio"] = traced_s / plain_s if plain_s else 0.0
    metrics = {k: (v, PER_LAYER[k]) for k, v in totals.items()}
    extra = {"plain.job_s": (plain_s, "s"), "traced.job_s": (traced_s, "s"),
             "inputs.digest": (jobs.digest(pass_jobs), "sha256"),
             "trace.missing": (len(missing), "count")}
    for name in sorted(missing):
        print(f"warning: {name} not found in the traced program", file=sys.stderr)
    return metrics, extra


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (metrics, extra, attempted, failures)."""
    run = Run(time.monotonic() + RUN_LIMIT_S)
    if trace:
        metrics, extra = traced_run(run, workload, seed)
    else:
        metrics, extra = plain_run(run, workload, seed, seconds)
        extra["src.lines"] = (src_lines(), "lines")
    return metrics, extra, run.attempted, run.failures


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "grflab" / "cli.py").is_file():
        print(f"error: no grflab sources under {SRC}", file=sys.stderr)
        return 2

    metrics, extra, attempted, failures = measure(args.workload, args.seed,
                                                  args.seconds, bool(args.trace))
    for reason in failures:
        print(f"failed: {reason}", file=sys.stderr)
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    rows = {"ops": (attempted, "count"), "ops_failed": (len(failures), "count")}
    rows.update(metrics)
    rows.update(extra)
    for name, (value, unit) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name:44s} {shown!s:>18} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
