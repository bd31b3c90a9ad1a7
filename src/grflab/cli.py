"""Command-line entry point: verification suites, spectra, kernel and
obstruction reports, and flow runs with CSV/JSON output."""

import argparse
import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from . import linalg
from .deformations import (equivalence_check, igsd_kernel, integrability_report,
                           integral_identities, round_geometry)
from .frames import STRUCTURE, validate_structure
from .harmonics import canonical_space, harmonic_basis
from .poly import IntegralValue, Polynomial, as_poly, integrate_s3
from .tensors import Geometry, is_zero, obj_array, zeros
from .variational import (SolverError, bianchi_contracted_check, first_variation,
                          lambda_min, operator_A, phi_relation_check,
                          second_variation_matrix, slice_tangent_basis)
from . import flow as flow_mod


@dataclass
class RunConfig:
    command: str
    degree: int = 2
    h0: float = 2.0
    metric: str = "diag:1,1,1"
    output: str = ""
    fmt: str = "json"
    seed: int = 0
    dt: float = 1e-3
    steps: int = 1000
    sample_every: int = 100
    u_spec: str = "x1x2"


def _fmt_float(x):
    return float(f"{float(x):.12g}")


def _fmt_rational(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _fmt_integral(v):
    return f"{_fmt_rational(v.coeff)} * pi^2"


def _rand_fraction(rng, lo=-3, hi=3, dmax=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, dmax))


def _rand_metric(rng):
    """Random exact symmetric positive-definite 3x3 rational matrix."""
    while True:
        m = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                v = _rand_fraction(rng, -1, 1, 4)
                m[i][j] = m[j][i] = v
            m[i][i] = m[i][i] + Fraction(rng.randint(2, 4))
        try:
            linalg.mat_inv(m)
            return m
        except ValueError:
            continue


def _rand_poly(rng, degree):
    space = canonical_space(degree)
    p = Polynomial.zero()
    for b in space.basis:
        if rng.random() < 0.4:
            p = p + _rand_fraction(rng) * b
    return p


def _rand_tensor(rng, degree):
    arr = zeros((3, 3))
    for i in range(3):
        for j in range(3):
            arr[i, j] = _rand_poly(rng, degree)
    return arr


# ---------------------------------------------------------------------------
# verify suites

def _suite_structure():
    return [("lie structure constants valid", not validate_structure(STRUCTURE))]


def _suite_bismut_flat():
    geo = round_geometry()
    nh = geo.covd(geo.H, geo.gamma)
    out = [
        ("bismut curvature vanishes on round critical data", is_zero(geo.Rm_plus)),
        ("torsion is parallel on round critical data", is_zero(nh)),
        ("ricci equals quarter torsion square", is_zero(geo.Rc - Fraction(1, 4) * geo.H2)),
        ("torsion is coclosed", is_zero(geo.dstar(geo.H))),
        ("soliton tensor vanishes", is_zero(geo.bakry_emery())),
    ]
    return out


def _suite_curvature_dual_path(rng, samples=20):
    def one(_):
        g = _rand_metric(rng)
        s = _rand_fraction(rng, 1, 3, 2)
        geo = Geometry(g, H=s)
        want = geo.Rc - Fraction(1, 4) * geo.H2 - Fraction(1, 2) * geo.dstar(geo.H)
        return is_zero(geo.Rc_plus - want) and is_zero(geo.bismut_curvature_rhs() - geo.Rm_plus)
    results = [one(i) for i in range(samples)]
    return [("bismut curvature identities on randomized invariant data", all(results))]


def _suite_mixed_laplacian(rng, samples=20):
    geo = round_geometry()
    tensors = [_rand_tensor(rng, 2) for _ in range(samples)]
    oks = [is_zero(geo.mixed_laplacian_formula(t) - geo.mixed_laplacian_definition(t))
           for t in tensors]
    return [("mixed laplacian formula matches adjoint definition", all(oks))]


def _suite_bianchi(rng, samples=10):
    def one(_):
        g = _rand_metric(rng)
        s = _rand_fraction(rng, 1, 3, 2)
        f = _rand_poly(rng, 2)
        return is_zero(bianchi_contracted_check(g, s, f))
    return [("contracted second bianchi identity on randomized data",
             all(one(i) for i in range(samples)))]


def _suite_phi(rng, samples=8):
    geo = round_geometry()
    def one(_):
        r1, r2 = phi_relation_check(_rand_tensor(rng, 2), geo)
        return is_zero(r1) and is_zero(r2)
    return [("bianchi of B factors through the divergence", all(one(i) for i in range(samples)))]


def _suite_self_adjoint(rng, samples=5):
    geo = round_geometry()
    def one(_):
        a, b = _rand_tensor(rng, 2), _rand_tensor(rng, 2)
        lhs = integrate_s3(as_poly(geo.inner(operator_A(a, geo), b)))
        rhs = integrate_s3(as_poly(geo.inner(a, operator_A(b, geo))))
        return lhs == rhs
    return [("stability operator is self adjoint", all(one(i) for i in range(samples)))]


def _suite_lambda(degree):
    geo = round_geometry()
    r = lambda_min(geo, geo.H, degree)
    fv_zero = all(
        first_variation(geo, geo.H, geo.f,
                        obj_array([[1 if (i, j) == (a, b) else 0 for j in range(3)]
                                   for i in range(3)])) == 0.0
        for a in range(3) for b in range(3))
    return [
        ("lambda at the critical point equals 4", abs(r.value - 4.0) < 1e-9),
        ("minimizer is constant with small residual", r.f.is_constant and r.residual < 1e-10),
        ("first variation vanishes on homogeneous directions", fv_zero),
    ]


def _suite_flow():
    s0 = flow_mod.FlowState(g=np.eye(3), b=np.zeros((3, 3)), H0_coeff=2.0)
    dg, db = flow_mod.grf_rhs(s0)
    rng = random.Random(1)
    rnd_ok = True
    for _ in range(5):
        d = [1.0 + rng.uniform(-0.4, 0.8) for _ in range(3)]
        b = np.array([[0, rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)],
                      [0, 0, rng.uniform(-0.3, 0.3)], [0, 0, 0]])
        b = b - b.T
        st = flow_mod.FlowState(g=np.diag(d), b=b, H0_coeff=rng.uniform(0.5, 2.5))
        rnd_ok = rnd_ok and flow_mod.dual_path_residual(st) < 1e-12
    return [
        ("flow fixed point at the critical data", float(np.abs(dg).max() + np.abs(db).max()) == 0.0),
        ("flow right side agrees with the bismut ricci form", rnd_ok),
    ]


def cmd_verify(cfg):
    rng = random.Random(cfg.seed)
    assertions = []
    assertions += _suite_structure()
    assertions += _suite_bismut_flat()
    assertions += _suite_curvature_dual_path(rng)
    assertions += _suite_mixed_laplacian(rng)
    assertions += _suite_bianchi(rng)
    assertions += _suite_phi(rng)
    assertions += _suite_self_adjoint(rng)
    assertions += _suite_lambda(cfg.degree)
    assertions += _suite_flow()
    report = {
        "command": "verify",
        "seed": cfg.seed,
        "degree": cfg.degree,
        "assertions": [{"name": n, "passed": bool(p)} for n, p in assertions],
        "all_passed": all(p for _, p in assertions),
    }
    return report, report["all_passed"]


def cmd_spectrum(cfg):
    geo = round_geometry()
    r = lambda_min(geo, geo.H, cfg.degree)
    basis = slice_tangent_basis(geo, cfg.degree)
    mat = second_variation_matrix(basis, geo)
    eig = mat.eigenvalues()
    kernel_dim = int(np.sum(np.abs(eig) <= 1e-9))
    report = {
        "command": "spectrum",
        "degree": cfg.degree,
        "lambda": _fmt_float(r.value),
        "lambda_residual": _fmt_float(r.residual),
        "slice_dimension": len(basis),
        "eigenvalues": [_fmt_float(x) for x in sorted(eig)],
        "kernel_dim": kernel_dim,
        "max_eigenvalue": _fmt_float(eig.max()),
        "stable": bool(eig.max() <= 1e-9),
    }
    return report, report["stable"]


def cmd_igsd(cfg):
    kernel = igsd_kernel(cfg.degree)
    vectors = []
    ok = True
    for d in kernel:
        eq = equivalence_check(d.gamma)
        ident = integral_identities(d.gamma)
        passed = eq["agree"] and eq["parallel"] and ident["chain_holds"] \
            and ident["gradient_norms_equal"] and ident["ricci_identity_holds"]
        ok = ok and passed
        vectors.append({
            "provenance": d.provenance,
            "equivalence": {k: bool(v) for k, v in eq.items()},
            "identities": {
                k: (_fmt_integral(v) if isinstance(v, IntegralValue) else bool(v))
                for k, v in ident.items()
            },
        })
    report = {
        "command": "igsd",
        "degree": cfg.degree,
        "kernel_dim": len(kernel),
        "vectors": vectors,
        "all_passed": ok and len(kernel) == 9,
    }
    return report, report["all_passed"]


_PRESETS = {
    "x1x2": lambda x: x[0] * x[1],
    "x1x2+x3x4": lambda x: x[0] * x[1] + x[2] * x[3],
    "x1x2-x3x4": lambda x: x[0] * x[1] - x[2] * x[3],
    "x1^2-x2^2": lambda x: x[0] * x[0] - x[1] * x[1],
    "x1^2-x3^2": lambda x: x[0] * x[0] - x[2] * x[2],
}


def parse_u(spec):
    """An eigenfunction from a named preset or a comma list of 9 coefficients."""
    x = [Polynomial.variable(i) for i in (1, 2, 3, 4)]
    if spec in _PRESETS:
        return _PRESETS[spec](x)
    coeffs = [Fraction(c) for c in spec.split(",")]
    basis = harmonic_basis(2)
    if len(coeffs) != len(basis):
        raise ValueError(f"expected {len(basis)} coefficients or one of {sorted(_PRESETS)}")
    u = Polynomial.zero()
    for c, b in zip(coeffs, basis):
        u = u + c * b
    return u


def cmd_obstruction(cfg):
    u = parse_u(cfg.u_spec)
    rep = integrability_report(u)
    report = {
        "command": "obstruction",
        "u": cfg.u_spec,
        "pairings": {str(i): _fmt_integral(v) for i, v in rep.pairings.items()},
        "integrable_order2": bool(rep.integrable_order2),
    }
    return report, True


def parse_metric(spec):
    if not spec.startswith("diag:"):
        raise ValueError("metric spec must look like diag:a,b,c")
    vals = [float(v) for v in spec[len("diag:"):].split(",")]
    if len(vals) != 3:
        raise ValueError("diag metric needs three entries")
    if not all(0 < v < math.inf for v in vals):
        raise ValueError(f"metric {spec} is not positive definite")
    return np.diag(vals)


def cmd_flow(cfg):
    g0 = parse_metric(cfg.metric)
    state = flow_mod.FlowState(g=g0, b=np.zeros((3, 3)), H0_coeff=cfg.h0)
    blowup = None
    try:
        traj = flow_mod.run_flow(state, cfg.dt, cfg.steps, cfg.sample_every)
    except flow_mod.FlowBlowup as exc:
        traj, blowup = exc.trajectory, str(exc)
    rows = []
    for t, s, lam, res in traj.samples:
        row = {"t": _fmt_float(t)}
        for i in range(3):
            for j in range(3):
                row[f"g{i+1}{j+1}"] = _fmt_float(s.g[i, j])
        for i in range(3):
            for j in range(3):
                row[f"b{i+1}{j+1}"] = _fmt_float(s.b[i, j])
        row["lambda"] = _fmt_float(lam)
        row["residual"] = _fmt_float(res)
        rows.append(row)
    lams = traj.lambdas()
    report = {
        "command": "flow",
        "samples": rows,
        "lambda_nondecreasing": all(b >= a - 1e-8 for a, b in zip(lams, lams[1:])),
    }
    if blowup is not None:
        report["blowup"] = blowup
    return report, report["lambda_nondecreasing"] and blowup is None


def cmd_lambda(cfg):
    g = parse_metric(cfg.metric)
    gq = [[Fraction(float(x)) for x in row] for row in g]
    r = lambda_min(gq, Fraction(cfg.h0), cfg.degree)
    report = {
        "command": "lambda",
        "degree": cfg.degree,
        "lambda": _fmt_float(r.value),
        "residual": _fmt_float(r.residual),
        "f_constant": bool(r.f.is_constant),
    }
    return report, True


def _emit(report, cfg):
    if cfg.fmt == "csv" and report.get("command") == "flow":
        buf = io.StringIO()
        rows = report["samples"]
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        # strict JSON: a NaN or an infinity is an error, not a token
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser():
    p = argparse.ArgumentParser(prog="grflab",
                                description="Exact calculus for generalized Ricci "
                                            "solitons on the 3-sphere")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--degree", type=int, default=2)
        sp.add_argument("--h0", type=float, default=2.0)
        sp.add_argument("--output", default="")
        sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--config", default="", help="JSON file overriding the flags")

    for name in ("verify", "spectrum", "igsd", "obstruction", "lambda"):
        sp = sub.add_parser(name)
        common(sp)
        if name == "obstruction":
            sp.add_argument("--u", dest="u_spec", default="x1x2")
        if name == "lambda":
            sp.add_argument("--g", dest="metric", default="diag:1,1,1")

    sp = sub.add_parser("flow")
    common(sp)
    sp.add_argument("--g", dest="metric", default="diag:1,1,1")
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--sample-every", dest="sample_every", type=int, default=100)
    return p


# Keys a --config file may set, with their types; the subcommand is not one.
_CONFIG_KEYS = {f.name: f.type for f in fields(RunConfig) if f.name != "command"}


def _config_value(key, value):
    """A --config value, checked against the type of its RunConfig field."""
    if key not in _CONFIG_KEYS:
        raise ValueError(f"unknown config key {key!r}")
    want = _CONFIG_KEYS[key]
    if want is float and type(value) is int:
        value = float(value)
    if type(value) is not want:
        raise ValueError(f"config key {key!r} must be {want.__name__}, not {value!r}")
    return value


def config_from_args(args):
    """The run configuration from the flags and --config, rejected with
    ValueError unless every value is usable."""
    cfg = RunConfig(command=args.command)
    for name in _CONFIG_KEYS:
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "config", ""):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        for k, v in data.items():
            setattr(cfg, k, _config_value(k, v))
    if cfg.degree < 0:
        raise ValueError("degree must be nonnegative")
    if cfg.steps < 0:
        raise ValueError("steps must be nonnegative")
    if cfg.sample_every < 1:
        raise ValueError("sample-every must be positive")
    if not 0 < cfg.dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not math.isfinite(cfg.h0):
        raise ValueError("h0 must be finite")
    if cfg.fmt not in ("json", "csv"):
        raise ValueError("format must be json or csv")
    if cfg.command == "spectrum" and (cfg.h0 != 2 or cfg.degree > 2):
        raise ValueError("spectrum is computed at the round point up to degree 2: "
                         "h0 must be 2 and degree at most 2")
    parse_metric(cfg.metric)
    return cfg


_DISPATCH = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "igsd": cmd_igsd,
    "obstruction": cmd_obstruction,
    "flow": cmd_flow,
    "lambda": cmd_lambda,
}


def dispatch(cfg):
    report, ok = _DISPATCH[cfg.command](cfg)
    return report, ok


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        report, ok = dispatch(cfg)
        _emit(report, cfg)
    except (ValueError, OSError, SolverError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
