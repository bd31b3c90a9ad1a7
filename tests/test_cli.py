import argparse
import contextlib
import importlib.util
import io
import json
import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from grflab import cli
from grflab.cli import _rand_metric, build_parser, main, parse_metric, parse_u
from grflab.poly import Polynomial
from grflab.tensors import Geometry, is_zero

X = [Polynomial.variable(i) for i in (1, 2, 3, 4)]
ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "bench" / "reference"


def _oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ROOT / "bench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLE = _oracle()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lambda_command(capsys):
    code, out = run(capsys, "lambda", "--degree", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["lambda"] == 4.0


def test_lambda_command_large_metric(capsys):
    # lambda = 6/s - 2/s^3 of a huge round metric keeps its relative accuracy
    s = 1e17
    code, out = run(capsys, "lambda", "--g", "diag:1e17,1e17,1e17", "--degree", "0")
    assert code == 0
    rep = json.loads(out)
    want = 6 / s - 2 / s**3
    assert abs(rep["lambda"] - want) <= 1e-9 * want


def test_obstruction_presets(capsys):
    code, out = run(capsys, "obstruction", "--u", "x1x2+x3x4")
    rep = json.loads(out)
    assert code == 0
    assert rep["integrable_order2"] is True
    assert all(v == "0/1 * pi^2" for v in rep["pairings"].values())

    code, out = run(capsys, "obstruction", "--u", "x1^2-x2^2")
    rep = json.loads(out)
    assert rep["integrable_order2"] is False


def _pairings(capsys, u):
    code, out = run(capsys, "obstruction", "--u", u)
    assert code == 0
    values = {}
    for key, text in json.loads(out)["pairings"].items():
        num, den = text.removesuffix(" * pi^2").split("/")
        values[key] = Fraction(Decimal(num)) / Fraction(Decimal(den))
    return values


@pytest.mark.parametrize("u, base, scale", [
    ("1e2200,0,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0,0", 10**2200),
    ("1e4300,0,0,0,0,0,0,0,5e4300", "1,0,0,0,0,0,0,0,5", 10**4300),
    ("1e-4300,0,0,0,0,0,0,0,5e-4300", "1,0,0,0,0,0,0,0,5", Fraction(1, 10**4300)),
], ids=["exponent-2200", "exponent-4300", "exponent-minus-4300"])
def test_obstruction_prints_pairings_past_the_int_digit_limit(capsys, u, base, scale):
    # u = scale * base: the pairings are quadratic in u, so their numerators or
    # denominators have twice the exponent's digits, past Python's 4300-digit
    # limit on printing an int
    base = _pairings(capsys, base)
    assert any(base.values())
    assert _pairings(capsys, u) == {k: v * scale**2 for k, v in base.items()}


def test_parse_u_coefficients():
    u = parse_u("x1x2")
    assert u == X[0] * X[1]
    with pytest.raises(ValueError):
        parse_u("1,2,3")


def test_rand_metric_is_positive_definite():
    # Sylvester's criterion, exactly: seed 183 once gave [[1,1,0],[1,1,-1],[0,-1,4]]
    for seed in range(300):
        m = [[Fraction(x) for x in row] for row in _rand_metric(random.Random(seed))]
        minors = [m[0][0], m[0][0] * m[1][1] - m[0][1] * m[1][0],
                  m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                  - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                  + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])]
        assert all(d > 0 for d in minors), (seed, m)


def test_parse_metric():
    m = parse_metric("diag:1,2,3")
    assert m[1, 1] == 2.0
    with pytest.raises(ValueError):
        parse_metric("full:1")


def test_flow_csv(capsys):
    code, out = run(capsys, "flow", "--g", "diag:1.01,1,1", "--h0", "2",
                    "--dt", "1e-3", "--steps", "200", "--sample-every", "100",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "g11" in header and "b23" in header
    assert header[-2:] == ["lambda", "residual"]
    assert len(lines) >= 3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flow_follows_milnors_closed_form(capsys, seed):
    # on a diagonal metric the flow is Milnor's ODE for the three eigenvalues:
    # every sample of g, lambda and the residual agrees with its RK4 solution
    # within the benchmark oracle's tolerance
    rng = random.Random(seed)
    diag = ",".join(f"{rng.uniform(0.7, 1.4):.4f}" for _ in range(3))
    argv = ["flow", "--g", f"diag:{diag}", "--h0", f"{rng.uniform(1.0, 3.0):.4f}",
            "--dt", "1e-3", "--steps", "200", "--sample-every", "40"]
    code, out = run(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert len(report["samples"]) == 6
    assert ORACLE.check_flow(report, argv) is None


def test_verify_deterministic(capsys):
    code1, out1 = run(capsys, "verify", "--seed", "7")
    code2, out2 = run(capsys, "verify", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["all_passed"] is True
    assert all(a["passed"] for a in rep["assertions"])


def _verify_draws(monkeypatch, capsys, fail_first_bianchi):
    """The verify exit code and the tensors the Phi and self-adjoint checks
    receive, in order, with the expensive identities stubbed out."""
    bianchi_calls, drawn = [], []

    def bianchi(geo):
        bianchi_calls.append(geo)
        failing = fail_first_bianchi and len(bianchi_calls) == 1
        return np.array([1.0 if failing else 0.0, 0.0, 0.0])

    def phi(gamma, geo):
        drawn.append(gamma.tolist())
        return np.zeros(3), np.zeros(3)

    def operator_a(gamma, geo):
        drawn.append(gamma.tolist())
        return gamma

    monkeypatch.setattr(cli, "bianchi_contracted_check", bianchi)
    monkeypatch.setattr(cli, "phi_relation_check", phi)
    monkeypatch.setattr(cli, "operator_A", operator_a)
    code, out = run(capsys, "verify", "--seed", "3")
    failed = [a["name"] for a in json.loads(out)["assertions"] if not a["passed"]]
    return code, failed, len(bianchi_calls), drawn


def test_verify_failure_does_not_move_later_samples(monkeypatch, capsys):
    # every sample of an assertion is drawn and checked, so a failing sample
    # leaves the inputs of the assertions after it as the seed alone sets them
    code, failed, n_bianchi, drawn = _verify_draws(monkeypatch, capsys, True)
    assert code == 1 and failed == ["contracted second bianchi identity on randomized data"]
    pass_code, pass_failed, pass_n_bianchi, pass_drawn = _verify_draws(monkeypatch, capsys,
                                                                       False)
    assert pass_code == 0 and pass_failed == []
    assert drawn == pass_drawn
    assert len(drawn) == 8 + 2 * 5 and n_bianchi == pass_n_bianchi == 10


def test_igsd_command(capsys):
    code, out = run(capsys, "igsd", "--degree", "2")
    rep = json.loads(out)
    assert code == 0
    assert rep["kernel_dim"] == 9
    assert out == (REFERENCE / "igsd_degree2.json").read_text()


@pytest.mark.parametrize("degree", ["0", "1"])
def test_igsd_below_degree_2_has_empty_kernel(capsys, degree):
    # ker B lives at harmonic degree 2 only: an empty kernel below it is a pass
    code, out = run(capsys, "igsd", "--degree", degree)
    rep = json.loads(out)
    assert code == 0 and rep["all_passed"] is True
    assert rep["kernel_dim"] == 0 and rep["vectors"] == []


def test_spectrum_command(capsys):
    code, out = run(capsys, "spectrum", "--degree", "2")
    rep = json.loads(out)
    assert code == 0 and rep["stable"] is True
    assert rep["slice_dimension"] == 61 and rep["kernel_dim"] == 9
    ref = json.loads((REFERENCE / "spectrum_degree2.json").read_text())
    assert len(rep["eigenvalues"]) == len(ref["eigenvalues"]) == 61
    assert all(abs(x - r) <= 1e-9 * max(1.0, abs(r))
               for x, r in zip(rep["eigenvalues"], ref["eigenvalues"]))
    # the exact kernel dimension is the count of float eigenvalues at zero
    assert sum(abs(x) <= 1e-9 for x in rep["eigenvalues"]) == rep["kernel_dim"]


def test_bad_config_rejected(capsys):
    assert main(["lambda", "--degree", "-1"]) == 2
    with pytest.raises(SystemExit):
        main(["unknown-command"])


def test_output_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["lambda", "--output", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["command"] == "lambda"


@pytest.mark.parametrize("argv, config, message", [
    (["lambda"], {"degree": "abc"}, "'degree' must be int"),
    (["lambda"], {"command": "nope"}, "unknown config key 'command'"),
    (["lambda"], {"degre": 3}, "unknown config key 'degre'"),
    (["flow", "--sample-every", "0"], None, "sample-every must be positive"),
    (["lambda", "--g", "diag:1,1,-1"], None, "not positive definite"),
    (["lambda", "--output", "missing-dir/r.json"], None, "No such file"),
    (["lambda", "--g", "diag:1,1,1e308", "--degree", "0"], None, "does not fit in a float64"),
    (["flow", "--h0", "1e300", "--steps", "2"], None, "does not fit in a float64"),
    (["flow", "--g", "diag:1e300,1,1", "--steps", "2"], None, "does not fit in a float64"),
    (["lambda", "--g", "diag:1e150,1e150,1e150", "--degree", "0"], None, "det g"),
    (["flow", "--g", "diag:1e150,1e150,1e150", "--h0", "0", "--steps", "3"], None, "det g"),
    # the exact lambda = 6 - h0^2/2 fits in a float64, but H^2 = 2 h0^2 g does not, and
    # the flow reads the soliton residual before lambda
    (["flow", "--h0", "1e154", "--steps", "3"], None,
     "curvature of the initial state does not fit in a float64"),
    (["spectrum", "--degree", "3"], None, "degree at most 2"),
    # a key the command does not read
    (["igsd"], {"h0": 3.0}, "unknown config key 'h0'"),
    (["verify"], {"metric": "full:1"}, "unknown config key 'metric'"),
    (["obstruction"], {"dt": 5.0}, "unknown config key 'dt'"),
    (["obstruction", "--u", "1/0,0,0,0,0,0,0,0,0"], None, "zero denominator"),
    # Fraction would spend hours building 10**100000000
    (["obstruction", "--u", "1e100000000,0,0,0,0,0,0,0,0"], None,
     "coefficient '1e100000000' has an exponent beyond"),
    (["obstruction"], {"u_spec": "0,0,0,0,0,0,0,0,2E-0_4301"}, "exponent beyond +-4300"),
    # int() refuses a run of over 4300 digits, with advice a CLI user cannot follow
    (["obstruction", "--u", "1" * 4400 + ",0,0,0,0,0,0,0,0"], None,
     "run of 4400 digits: at most 4300"),
    (["obstruction", "--u", "1/" + "3" * 4301 + ",0,0,0,0,0,0,0,0"], None,
     "run of 4301 digits: at most 4300"),
    # raw text: json.dumps cannot write a document nested this deeply
    (["lambda"], "[" * 100_000, "nested too deeply"),
], ids=["config-type", "config-command", "config-unknown-key", "sample-every-zero",
        "metric-indefinite", "output-dir-missing", "lambda-overflow", "flow-h0-overflow",
        "flow-metric-huge", "lambda-det-overflow", "flow-det-overflow",
        "flow-matrix-overflow", "spectrum-degree",
        "config-igsd-h0", "config-verify-metric", "config-obstruction-dt",
        "obstruction-zero-denominator", "obstruction-huge-exponent",
        "config-obstruction-huge-exponent", "obstruction-long-mantissa",
        "obstruction-long-denominator", "config-deeply-nested"])
@pytest.mark.filterwarnings("error")
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, argv, config, message):
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = argv + ["--config", str(path)]
    if "--output" in argv:
        argv[-1] = str(tmp_path / argv[-1])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


_UNREAD_FLAGS = [("verify", "--degree"), ("verify", "--h0"), ("verify", "--format"),
                 ("spectrum", "--h0"), ("spectrum", "--seed"), ("spectrum", "--format"),
                 ("igsd", "--h0"), ("igsd", "--seed"), ("igsd", "--format"),
                 ("obstruction", "--degree"), ("obstruction", "--h0"),
                 ("obstruction", "--seed"), ("obstruction", "--format"),
                 ("lambda", "--seed"), ("lambda", "--format"),
                 ("flow", "--degree"), ("flow", "--seed")]
_FLAG_VALUES = {"--h0": "3", "--format": "csv", "--seed": "4", "--degree": "7"}


@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS,
                         ids=[f"{c}-{f[2:]}" for c, f in _UNREAD_FLAGS])
def test_unread_flag_exits_2(capsys, command, flag):
    # a command takes only the flags of the settings it reads
    with pytest.raises(SystemExit) as exc:
        main([command, flag, _FLAG_VALUES[flag]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    assert "Traceback" not in err


def test_readme_lists_every_flag():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    usage = section.split("```", 2)[1]
    listed, command = {}, None
    for line in usage.strip().splitlines():
        if line.startswith("grflab "):
            command = line.split()[1]
            listed[command] = {}
        listed[command].update(re.findall(r"\[(--[a-z0-9-]+) ([^\]]+)\]", line))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(listed) == set(sub.choices)
    for name, parser in sub.choices.items():
        flags = {a.option_strings[-1]: a for a in parser._actions
                 if a.option_strings and a.dest not in ("help", "output", "config")}
        assert listed[name] == {f: str(a.default) for f, a in flags.items()}, name
        assert all(f"`{a.dest}`" in section for a in flags.values()), name
    assert "`--output FILE`" in section and "`--config FILE`" in section


def milnor_lambda(a, h0):
    """lambda = R - |H|^2/12 of g = diag(a) and H = h0 vol, Milnor's closed form."""
    a1, a2, a3 = a
    lam = (2 * math.sqrt(a1 / (a2 * a3)), 2 * math.sqrt(a2 / (a1 * a3)),
           2 * math.sqrt(a3 / (a1 * a2)))
    mu = [sum(lam) / 2 - x for x in lam]
    scalar = 2 * (mu[1] * mu[2] + mu[0] * mu[2] + mu[0] * mu[1])
    return scalar - h0 * h0 / (2 * a1 * a2 * a3)


# inputs where the float Galerkin eigensolve broke down: an operator matrix
# entry past float64, or the two lowest eigenvalues within a few eps
@pytest.mark.parametrize("diag, h0, degree", [
    ((1, 1, 1), 1e154, 0),
    ((1, 1, 1), 7e153, 2),
    ((1.1, 0.9, 1.05), 1e10, 2),
], ids=["lambda-matrix-overflow", "lambda-ground-state-lost", "lambda-ground-state-unresolved"])
@pytest.mark.filterwarnings("error")
def test_lambda_is_exact_where_the_float_solve_failed(capsys, diag, h0, degree):
    metric = "diag:" + ",".join(map(str, diag))
    code = main(["lambda", "--g", metric, "--h0", str(h0), "--degree", str(degree)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    rep = json.loads(captured.out)
    assert rep["degree"] == degree
    assert rep["lambda"] == pytest.approx(milnor_lambda(diag, h0), rel=1e-9)


@pytest.mark.filterwarnings("error")
def test_lambda_large_torsion_prints_strict_json(capsys):
    # lambda is near -float64 max, and the report is still strict JSON
    code = main(["lambda", "--h0", "3e153", "--degree", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""

    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    rep = json.loads(captured.out, parse_constant=reject)
    assert rep["lambda"] == pytest.approx(-4.5e306, rel=1e-9)


@pytest.mark.parametrize("argv, message", [
    (("--g", "diag:1,1,0.01", "--h0", "0", "--dt", "1"), "metric degenerated"),
    (("--h0", "1e60"), "metric left float64 range"),
], ids=["degenerate", "overflow"])
def test_flow_blowup_emits_partial_trajectory(capsys, argv, message):
    code, out = run(capsys, "flow", *argv, "--steps", "3")
    assert code == 1
    rep = json.loads(out)
    assert rep["blowup"].startswith(message)
    assert rep["samples"][0]["t"] == 0.0


_BIG = st.floats(min_value=-1e300, max_value=1e300)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(_BIG, st.floats(1e-3, 1e3)), min_size=3, max_size=3),
       st.one_of(_BIG, st.floats(-10, 10)), st.integers(0, 5))
@pytest.mark.filterwarnings("error")
def test_flow_keeps_the_exit_contract(diag, h0, steps):
    # every diagonal metric and torsion up to 1e300: exit 0 or 1 with strict
    # JSON on stdout, or exit 2 with one error line; never a traceback, even
    # where overflow leaves an inf or 0 * inf = nan in a stage
    argv = ["flow", "--g", "diag:" + ",".join(map(repr, diag)), f"--h0={h0!r}",
            "--steps", str(steps), "--sample-every", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code in (0, 1) and err.getvalue() == ""

        def reject(token):
            raise ValueError(f"non-finite JSON token {token}")

        report = json.loads(out.getvalue(), parse_constant=reject)
        assert report["samples"]
        assert (code == 0) == ("blowup" not in report and report["lambda_nondecreasing"])


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["spectrum", "igsd"]), st.integers(0, 3), st.booleans())
@pytest.mark.filterwarnings("error")
def test_spectrum_and_igsd_keep_the_exit_contract(tmp_path_factory, command, degree, by_config):
    # the degree as a flag or from --config: exit 0 or 1 with strict JSON on
    # stdout, or exit 2 with one error line (spectrum past degree 2)
    argv = [command, "--degree", str(degree)]
    if by_config:
        path = tmp_path_factory.mktemp("config") / "c.json"
        path.write_text(json.dumps({"degree": degree}))
        argv = [command, "--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code in (0, 1) and err.getvalue() == ""

        def reject(token):
            raise ValueError(f"non-finite JSON token {token}")

        report = json.loads(out.getvalue(), parse_constant=reject)
        assert report["command"] == command and report["degree"] == degree
    assert (code == 2) == (command == "spectrum" and degree > 2)


def test_coclosed_torsion_check_sees_a_planted_divergence():
    # H = (1 + x1) vol is not coclosed: d*H = -i_{grad x1} vol
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    round_geo = Geometry(eye, H=2)
    planted = Geometry(eye, H=(1 + X[0]) * round_geo.H)
    assert not is_zero(planted.dstar(planted.H))
    for geo, coclosed in ((round_geo, True), (planted, False)):
        passed = dict(cli._suite_bismut_flat(geo))
        assert passed["torsion is coclosed"] is coclosed
