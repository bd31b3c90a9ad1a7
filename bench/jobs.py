"""Seeded inputs of the benchmark workloads.

A run repeats *passes* of its workload. Each pass is a fixed list of jobs
whose inputs depend only on (workload, seed, pass index), so the same seed
always yields the same inputs and the program never sees the seed itself.
Every job is one of:

- ``cli``: ``grflab.cli.main(argv)`` in a fresh interpreter;
- ``jet``: the jet sweep, every (u, w) pair through
  ``deformations.jet_second_variation_check`` in one fresh interpreter.
"""

import hashlib
import json
import random

VERIFY_JOBS_PER_PASS = 2
FLOW_STEPS = 2000
FLOW_JOBS_PER_PASS = 4
# Jet-sweep inputs. The cost of a pair is set by u: how many terms u and u^2
# have after reduction by x4^2 = 1 - x1^2 - x2^2 - x3^2. So each u is one of
# these templates of 1-4 elements of harmonic_basis(2), turned by a seeded
# cyclic relabelling x1 -> x2 -> x3 -> x1 (an automorphism of the quaternions
# that maps the basis onto itself and the invariant frames onto each other,
# so it keeps every term count) and given seeded coefficients. Each w is a
# seeded combination of 1 or 3 elements.
JET_U_TEMPLATES = ((7,), (1, 5), (4, 0, 3), (1, 8, 2, 6))
JET_W_SIZES = (1, 3)
_ROTATE = {0: 5, 1: 8, 2: 0, 3: 6, 4: 1, 5: 2, 6: 7, 7: 3, 8: 4}
_DIAGONAL = (1, 4, 8)


def _rng(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


def _coefficient(rng, index):
    # Diagonal elements share their monomials; positive coefficients keep two
    # of them from cancelling to fewer terms.
    sign = 1 if index in _DIAGONAL else rng.choice((-1, 1))
    return f"{sign * rng.randint(1, 3)}/{rng.randint(1, 3)}"


def _u(rng, template):
    for _ in range(rng.randrange(3)):
        template = [_ROTATE[i] for i in template]
    return [[i, _coefficient(rng, i)] for i in sorted(template)]


def _w(rng, size):
    return [[i, _coefficient(rng, i)] for i in sorted(rng.sample(range(9), size))]


def pass_jobs(workload, seed, index):
    """The job list of pass ``index`` of a run of ``workload`` with ``seed``."""
    rng = _rng(workload, seed, index)
    if workload == "round-point":
        return [
            {"kind": "cli", "name": "lambda", "argv": ["lambda", "--degree", "4"]},
            {"kind": "cli", "name": "spectrum", "argv": ["spectrum", "--degree", "2"]},
            {"kind": "cli", "name": "igsd", "argv": ["igsd", "--degree", "2"]},
        ]
    if workload == "random-geometry":
        return [{"kind": "cli", "name": "verify",
                 "argv": ["verify", "--seed", str(rng.randrange(2**31))]}
                for _ in range(VERIFY_JOBS_PER_PASS)]
    if workload == "jet-sweep":
        pairs = []
        for template in JET_U_TEMPLATES:
            u = _u(rng, template)
            pairs += [{"u": u, "w": _w(rng, size)} for size in JET_W_SIZES]
        return [{"kind": "jet", "name": "jet-sweep", "pairs": pairs}]
    if workload == "flow":
        jobs = []
        for _ in range(FLOW_JOBS_PER_PASS):
            diag = ",".join(f"{rng.uniform(0.8, 1.25):.4f}" for _ in range(3))
            jobs.append({"kind": "cli", "name": "flow", "argv": [
                "flow", "--g", f"diag:{diag}", "--h0", f"{rng.uniform(1.5, 2.5):.4f}",
                "--dt", "1e-3", "--steps", str(FLOW_STEPS), "--sample-every", "100"]})
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def digest(jobs):
    """Short digest of a job list, recorded with every run."""
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def u_repeat_share(pairs):
    """Share of pairs whose u already appeared earlier in the sweep."""
    seen, repeats = set(), 0
    for p in pairs:
        key = json.dumps(p["u"])
        repeats += key in seen
        seen.add(key)
    return repeats / len(pairs)
