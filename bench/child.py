"""One benchmark job in a fresh interpreter.

Usage: python3 child.py <src directory>, with the job spec as JSON on stdin:
{"job": {...} or null, "trace": bool, "spans": path or null}. A null job
only measures the import. The last line of stdout is one JSON object with
the import time, the job time, the exit code, the captured output, the
peak RSS and, when traced, the per-layer counters.

Only sys and time are imported before ``grflab.cli``, so the timed import
pays for every module the program itself needs.
"""

import sys
import time


def run_cli(cli, job):
    import contextlib
    import io
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(job["argv"])
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code
    return {"job_s": time.perf_counter() - t0, "rc": rc, "stdout": buf.getvalue()}


def run_jet(job):
    """Time every (u, w) pair of the sweep through the program's jet check.

    Returns the result and a function that adds each pair's comparison with
    ``obstruction(u, w)``; call it once timing and tracing are done, so that
    the benchmark's own check is neither timed nor counted in any layer.
    """
    from fractions import Fraction

    from grflab.deformations import jet_second_variation_check, obstruction
    from grflab.harmonics import harmonic_basis
    from grflab.poly import Polynomial

    def combination(coeffs):
        basis = harmonic_basis(2)
        p = Polynomial.zero()
        for i, c in coeffs:
            p = p + Fraction(c) * basis[i]
        return p

    inputs = [(combination(pair["u"]), combination(pair["w"])) for pair in job["pairs"]]
    checked = []
    t0 = time.perf_counter()
    for u, w in inputs:
        t = time.perf_counter()
        res = jet_second_variation_check(u, w)
        checked.append((res, time.perf_counter() - t))
    job_s = time.perf_counter() - t0
    pairs = []
    for res, s in checked:
        pairing = res["pairing"].coeff
        pairs.append({
            "all_formulas_match": bool(res["all_formulas_match"]),
            "residual_zero": bool(res["residual"].is_zero),
            "pairing": f"{pairing.numerator}/{pairing.denominator}",
            "s": s,
        })

    def compare():
        for pair, (u, w), (res, _) in zip(pairs, inputs, checked):
            pair["matches_obstruction"] = bool(res["pairing"] == obstruction(u, w))

    return {"job_s": job_s, "rc": 0, "pairs": pairs}, compare


def main():
    src = sys.argv[1]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import grflab.cli
    import_s = time.perf_counter() - t0

    import json
    import os
    import resource
    import traceback

    spec = json.loads(sys.stdin.read())
    result = {"import_s": import_s}
    job = spec["job"]
    if not os.path.abspath(grflab.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        result["error"] = f"grflab imported from {grflab.cli.__file__}, not from {src}"
    elif job is not None:
        tracer = None
        if spec["trace"]:
            from layers import Tracer
            tracer = Tracer()
            tracer.install()
        compare = None
        try:
            if job["kind"] == "cli":
                result.update(run_cli(grflab.cli, job))
            else:
                timed, compare = run_jet(job)
                result.update(timed)
        except Exception:  # a crash is a failed operation, reported to run.py
            result["error"] = traceback.format_exc()
        if tracer is not None:
            layers = tracer.metrics()
            layers["cli.emit.bytes"] = len(result.get("stdout", "").encode())
            result["layers"] = layers
            result["missing"] = tracer.missing
            if spec.get("spans"):
                with open(spec["spans"], "w") as fh:
                    json.dump({"job": job["name"], "spans": tracer.spans}, fh)
        if compare is not None:
            try:
                compare()
            except Exception:
                result["error"] = traceback.format_exc()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
