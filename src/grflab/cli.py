"""Command-line entry point: verification suites, spectra, kernel and
obstruction reports, and flow runs with CSV/JSON output."""

import argparse
import csv
import io
import json
import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .deformations import (equivalence_check, igsd_kernel, integrability_report,
                           integral_identities, round_geometry)
from .frames import STRUCTURE, validate_structure
from .harmonics import canonical_space, harmonic_basis
from .linalg import rank
from .poly import IntegralValue, Polynomial, integrate_s3
from .tensors import Geometry, is_zero, leading_minors, obj_array
from .variational import (SolverError, bianchi_contracted_check, block_eigenvalues,
                          first_variation, lambda_min, operator_A, phi_relation_check,
                          second_variation_matrix, slice_tangent_basis)
from . import flow as flow_mod
from . import variational


def _fmt_float(x):
    return float(f"{float(x):.12g}")


def _fmt_rational(x):
    """"n/d", printed by Decimal: str refuses the ints of over 4300 digits
    that the quadratic obstruction pairings reach."""
    x = Fraction(x)
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


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
        if all(d > 0 for d in leading_minors(np.array(m, dtype=object))):
            return m


def _rand_poly(rng, degree):
    space = canonical_space(degree)
    # rng.random() is drawn before each coefficient
    return space.from_coords([_rand_fraction(rng) if rng.random() < 0.4 else 0
                              for _ in space.basis])


def _rand_tensor(rng, degree):
    return obj_array([[_rand_poly(rng, degree) for _ in range(3)] for _ in range(3)])


# ---------------------------------------------------------------------------
# verify suites

# The round-point identities are proved on every rank-2 tensor of harmonic
# degree 0.._PROVED_DEGREE, the space their samples are drawn from: at the round
# point each map has constant coefficients in the frame, so it is one exact
# block per degree.
_PROVED_DEGREE = 2


def _suite_structure():
    return [("lie structure constants valid", not validate_structure(STRUCTURE))]


def _suite_bismut_flat(geo):
    nh = geo.covd(geo.H, geo.gamma)
    return [
        ("bismut curvature vanishes on round critical data", is_zero(geo.Rm_plus)),
        ("torsion is parallel on round critical data", is_zero(nh)),
        ("ricci equals quarter torsion square", is_zero(geo.Rc - Fraction(1, 4) * geo.H2)),
        ("torsion is coclosed", is_zero(geo.dstar_H)),
        ("soliton tensor vanishes", is_zero(geo.bakry_emery())),
    ]


def _dual_path(rng, round_geo):
    geo = Geometry(_rand_metric(rng), H=_rand_fraction(rng, 1, 3, 2))
    want = geo.Rc - Fraction(1, 4) * geo.H2 - Fraction(1, 2) * geo.dstar_H
    return is_zero(geo.Rc_plus - want) and is_zero(geo.bismut_curvature_rhs() - geo.Rm_plus)


def _mixed_laplacian(rng, round_geo):
    t = _rand_tensor(rng, _PROVED_DEGREE)
    return is_zero(round_geo.mixed_laplacian_formula(t) - round_geo.mixed_laplacian_definition(t))


def _bianchi(rng, round_geo):
    geo = Geometry(_rand_metric(rng), _rand_fraction(rng, 1, 3, 2), _rand_poly(rng, 2))
    return is_zero(bianchi_contracted_check(geo))


def _phi(rng, round_geo):
    r1, r2 = phi_relation_check(_rand_tensor(rng, _PROVED_DEGREE), round_geo)
    return is_zero(r1) and is_zero(r2)


def _self_adjoint(rng, round_geo):
    a, b = _rand_tensor(rng, _PROVED_DEGREE), _rand_tensor(rng, _PROVED_DEGREE)
    lhs = integrate_s3(round_geo.inner(operator_A(a, round_geo), b))
    rhs = integrate_s3(round_geo.inner(a, operator_A(b, round_geo)))
    return lhs == rhs


def _vanishes(image):
    """Whether a linear map with constant coefficients in the frame, image(t)
    the tuple of tensors it sends t to, is zero on every degree proved: its
    degree-k kernel is all of the 9 (k+1)^2 tensors of degree k."""
    kernels = variational.degree_kernels(_PROVED_DEGREE, image)
    return all(len(ker) == 9 * (k + 1) ** 2 for k, ker in enumerate(kernels))


def _prove_mixed_laplacian(round_geo):
    return _vanishes(lambda t: (round_geo.mixed_laplacian_formula(t)
                                - round_geo.mixed_laplacian_definition(t),))


def _prove_phi(round_geo):
    return _vanishes(lambda t: variational.phi_relation_check(t, round_geo))


def _prove_self_adjoint(round_geo):
    """Whether A is L2-self-adjoint on every degree proved: the second-variation
    form on the unit coordinate vectors is symmetric, block by block. A block's
    entries share one denominator, so their integer numerators decide."""
    units = [[{j: 1} for j in range(9 * (k + 1) ** 2)] for k in range(_PROVED_DEGREE + 1)]
    blocks = variational.second_variation_numerators(units, round_geo)
    return all(b[i][j] == b[j][i] for b, _ in blocks for i in range(len(b)) for j in range(i))


# (assertion, samples, check, proof): check(rng, round_geo) draws one sample's
# inputs from rng, left to right, and says whether the identity holds on them.
# Every sample is drawn and checked, even after a failure, so the inputs of each
# assertion depend on the seed alone. proof(round_geo), where given, decides the
# identity on the degrees proved, and the assertion needs both; the one sample
# beside it ties the symbol calculus to the polynomial one. A proof reads A
# and Phi from variational, as second_variation_numerators does, and a sample
# through the names imported here. The dual path and Bianchi run on dense
# random metrics, where no symbol applies.
_SAMPLED = (
    ("bismut curvature identities on randomized invariant data", 20, _dual_path, None),
    ("mixed laplacian formula matches adjoint definition", 1, _mixed_laplacian,
     _prove_mixed_laplacian),
    ("contracted second bianchi identity on randomized data", 10, _bianchi, None),
    ("bianchi of B factors through the divergence", 1, _phi, _prove_phi),
    ("stability operator is self adjoint", 1, _self_adjoint, _prove_self_adjoint),
)


def _suite_lambda(geo):
    fv_zero = all(
        first_variation(geo, obj_array([[1 if (i, j) == (a, b) else 0 for j in range(3)]
                                        for i in range(3)])) == 0.0
        for a in range(3) for b in range(3))
    return [
        ("lambda at the critical point equals 4", lambda_min(geo) == 4),
        ("first variation vanishes on homogeneous directions", fv_zero),
    ]


def _suite_flow():
    dg = flow_mod.grf_rhs(flow_mod.FlowState(g=np.eye(3), H0_coeff=2.0))
    rng = random.Random(1)
    rnd_ok = True
    for _ in range(5):
        d = [1.0 + rng.uniform(-0.4, 0.8) for _ in range(3)]
        st = flow_mod.FlowState(g=np.diag(d), H0_coeff=rng.uniform(0.5, 2.5))
        rnd_ok = rnd_ok and flow_mod.dual_path_residual(st) < 1e-12
    return [
        ("flow fixed point at the critical data", float(np.abs(dg).max()) == 0.0),
        ("flow right side agrees with the bismut ricci form", rnd_ok),
    ]


def cmd_verify(cfg):
    rng = random.Random(cfg.seed)
    geo = round_geometry()
    assertions = _suite_structure() + _suite_bismut_flat(geo)
    for name, samples, check, proof in _SAMPLED:
        sampled = all([check(rng, geo) for _ in range(samples)])
        assertions.append((name, sampled and (proof is None or proof(geo))))
    assertions += _suite_lambda(geo) + _suite_flow()
    report = {
        "command": "verify",
        "seed": cfg.seed,
        "assertions": [{"name": n, "passed": bool(p)} for n, p in assertions],
        "all_passed": all(p for _, p in assertions),
    }
    return report, report["all_passed"]


def cmd_spectrum(cfg):
    if cfg.degree > 2:
        raise ValueError("spectrum is computed at the round point for degree at most 2")
    geo = round_geometry()
    blocks = second_variation_matrix(slice_tangent_basis(geo, cfg.degree), geo)
    eig = block_eigenvalues(blocks)
    report = {
        "command": "spectrum",
        "degree": cfg.degree,
        "lambda": _fmt_float(lambda_min(geo)),
        "slice_dimension": sum(len(e) for e in blocks),
        "eigenvalues": [_fmt_float(x) for x in eig],
        "kernel_dim": sum(len(e) - rank([dict(enumerate(row)) for row in e]) for e in blocks),
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
        "all_passed": ok and len(kernel) == (9 if cfg.degree >= 2 else 0),
    }
    return report, report["all_passed"]


_PRESETS = {
    "x1x2": lambda x: x[0] * x[1],
    "x1x2+x3x4": lambda x: x[0] * x[1] + x[2] * x[3],
    "x1x2-x3x4": lambda x: x[0] * x[1] - x[2] * x[3],
    "x1^2-x2^2": lambda x: x[0] * x[0] - x[1] * x[1],
    "x1^2-x3^2": lambda x: x[0] * x[0] - x[2] * x[2],
}


MAX_EXPONENT = 4300  # largest decimal exponent of a --u coefficient, in magnitude


def _coefficient(c):
    """Fraction(c), refusing a decimal exponent beyond MAX_EXPONENT in magnitude,
    as Fraction("1e<n>") takes time exponential in the length of n, and a run of
    digits beyond Python's int-parsing limit, which Fraction would refuse with
    advice to raise the limit."""
    mantissa, _, exponent = c.lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if digits.isdecimal() and (len(digits) > len(str(MAX_EXPONENT))
                               or int(digits) > MAX_EXPONENT):
        raise ValueError(f"coefficient {c!r} has an exponent beyond +-{MAX_EXPONENT}")
    # Fraction parses the integer part, the decimals and the denominator each with int
    longest = max(sum(map(str.isdecimal, run)) for run in mantissa.replace("/", ".").split("."))
    limit = sys.get_int_max_str_digits()
    if limit and longest > limit:
        raise ValueError(f"coefficient with a run of {longest} digits: at most {limit} are read")
    return Fraction(c)


def parse_u(spec):
    """An eigenfunction from a named preset or a comma list of 9 coefficients."""
    x = [Polynomial.variable(i) for i in (1, 2, 3, 4)]
    if spec in _PRESETS:
        return _PRESETS[spec](x)
    try:
        coeffs = [_coefficient(c) for c in spec.split(",")]
    except ZeroDivisionError:
        raise ValueError(f"coefficient with a zero denominator in {spec!r}") from None
    basis = harmonic_basis(2)
    if len(coeffs) != len(basis):
        raise ValueError(f"expected {len(basis)} coefficients or one of {sorted(_PRESETS)}")
    u = Polynomial.zero()
    for c, b in zip(coeffs, basis):
        u = u + c * b
    return u


def cmd_obstruction(cfg):
    u = parse_u(cfg.u_spec)
    pairings, integrable = integrability_report(u)
    report = {
        "command": "obstruction",
        "u": cfg.u_spec,
        "pairings": {str(i): _fmt_integral(v) for i, v in pairings.items()},
        "integrable_order2": bool(integrable),
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
    state = flow_mod.FlowState(g=g0, H0_coeff=cfg.h0)
    blowup = None
    try:
        samples = flow_mod.run_flow(state, cfg.dt, cfg.steps, cfg.sample_every)
    except flow_mod.FlowBlowup as exc:
        samples, blowup = exc.samples, str(exc)
    rows = []
    for t, s, lam, res in samples:
        row = {"t": _fmt_float(t)}
        for i in range(3):
            for j in range(3):
                row[f"g{i+1}{j+1}"] = _fmt_float(s.g[i, j])
        # the B-field does not move (d*H = 0 on invariant data); its columns stay
        row.update({f"b{i}{j}": 0.0 for i in "123" for j in "123"})
        row["lambda"] = _fmt_float(lam)
        row["residual"] = _fmt_float(res)
        rows.append(row)
    lams = [sample[2] for sample in samples]
    report = {
        "command": "flow",
        "samples": rows,
        "lambda_nondecreasing": all(b >= a - 1e-8 for a, b in zip(lams, lams[1:])),
    }
    if blowup is not None:
        report["blowup"] = blowup
    return report, report["lambda_nondecreasing"] and blowup is None


def cmd_lambda(cfg):
    g = [[Fraction(float(x)) for x in row] for row in parse_metric(cfg.metric)]
    lam = lambda_min(Geometry(g, Fraction(cfg.h0)))
    return {"command": "lambda", "degree": cfg.degree, "lambda": _fmt_float(lam)}, True


def _emit(report, cfg):
    if report["command"] == "flow" and cfg.fmt == "csv":
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


# setting -> (flag, type, default); a --config file sets it under the same key
_SETTINGS = {
    "degree": ("--degree", int, 2),
    "seed": ("--seed", int, 0),
    "u_spec": ("--u", str, "x1x2"),
    "metric": ("--g", str, "diag:1,1,1"),
    "h0": ("--h0", float, 2.0),
    "dt": ("--dt", float, 1e-3),
    "steps": ("--steps", int, 1000),
    "sample_every": ("--sample-every", int, 100),
    "fmt": ("--format", str, "json"),
}

# command -> (handler, the settings it reads); every command also takes
# --output and --config
_COMMANDS = {
    "verify": (cmd_verify, ("seed",)),
    "spectrum": (cmd_spectrum, ("degree",)),
    "igsd": (cmd_igsd, ("degree",)),
    "obstruction": (cmd_obstruction, ("u_spec",)),
    "lambda": (cmd_lambda, ("degree", "metric", "h0")),
    "flow": (cmd_flow, ("metric", "h0", "dt", "steps", "sample_every", "fmt")),
}


class _Parser(argparse.ArgumentParser):
    """argparse with its errors in the CLI's form: one "error: " line on
    stderr and exit 2, no usage block. -h still prints the usage."""

    def error(self, message):
        sys.stderr.write(f"error: {message}\n")
        sys.exit(2)


def build_parser():
    p = _Parser(prog="grflab",
                description="Exact calculus for generalized Ricci solitons on the 3-sphere")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, settings) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for key in settings:
            flag, kind, default = _SETTINGS[key]
            sp.add_argument(flag, dest=key, type=kind, default=default)
        sp.add_argument("--output", default="")
        sp.add_argument("--config", default="", help="JSON file overriding the flags")
    return p


def _check(key, value):
    """Raise ValueError unless value is usable for the setting key."""
    if key in ("degree", "steps") and value < 0:
        raise ValueError(f"{key} must be nonnegative")
    if key == "sample_every" and value < 1:
        raise ValueError("sample-every must be positive")
    if key == "dt" and not 0 < value < math.inf:
        raise ValueError("dt must be positive and finite")
    if key == "h0" and not math.isfinite(value):
        raise ValueError("h0 must be finite")
    if key == "fmt" and value not in ("json", "csv"):
        raise ValueError("format must be json or csv")
    if key == "metric":
        parse_metric(value)


def config_from_args(args):
    """The parsed flags with --config applied, rejected with ValueError unless
    every key is one the command reads and every value is usable."""
    settings = _COMMANDS[args.command][1]
    for key, value in vars(args).items():
        if isinstance(value, list):  # argparse reads --flag=-- as no value at all
            raise ValueError(f"{key} needs a value")
    if args.config:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("config file is nested too deeply") from None
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        types = {"output": str, **{k: _SETTINGS[k][1] for k in settings}}
        for key, value in data.items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            if types[key] is float and type(value) is int:
                value = float(value)
            if type(value) is not types[key]:
                raise ValueError(f"config key {key!r} must be {types[key].__name__}, "
                                 f"not {value!r}")
            setattr(args, key, value)
    for key in settings:
        _check(key, getattr(args, key))
    return args


def dispatch(cfg):
    return _COMMANDS[cfg.command][0](cfg)


def _join_negative_values(argv):
    """argv with each settings flag joined to a following dash-led number as
    --flag=value: argparse reads a token such as -1e5 or -inf as an option."""
    flags = {flag for flag, _, _ in _SETTINGS.values()}
    out = []
    for token in argv:
        if out and out[-1] in flags and re.match(r"-([\d.]|inf|nan)", token, re.I):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
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
