import json
from pathlib import Path

import pytest

from grflab.cli import main, parse_metric, parse_u
from grflab.poly import Polynomial

X = [Polynomial.variable(i) for i in (1, 2, 3, 4)]
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lambda_command(capsys):
    code, out = run(capsys, "lambda", "--degree", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["lambda"] == 4.0
    assert rep["f_constant"] is True


def test_lambda_command_large_metric(capsys):
    # the ground-state cutoff scales with the metric: no coefficient is lost
    s = 1e17
    code, out = run(capsys, "lambda", "--g", "diag:1e17,1e17,1e17", "--degree", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["f_constant"] is True
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


def test_parse_u_coefficients():
    u = parse_u("x1x2")
    assert u == X[0] * X[1]
    with pytest.raises(ValueError):
        parse_u("1,2,3")


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


def test_verify_deterministic(capsys):
    code1, out1 = run(capsys, "verify", "--degree", "2", "--seed", "7")
    code2, out2 = run(capsys, "verify", "--degree", "2", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["all_passed"] is True
    assert all(a["passed"] for a in rep["assertions"])


def test_igsd_command(capsys):
    code, out = run(capsys, "igsd", "--degree", "2")
    rep = json.loads(out)
    assert code == 0
    assert rep["kernel_dim"] == 9
    assert out == (REFERENCE / "igsd_degree2.json").read_text()


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
    (["lambda", "--h0", "1e154", "--degree", "0"], None, "symmetrized operator matrix"),
    (["flow", "--h0", "1e154", "--steps", "3"], None, "symmetrized operator matrix"),
    # the degree-2 Galerkin eigenvalues coincide in float64 at this scale
    (["lambda", "--h0", "7e153", "--degree", "2"], None, "nonpositive mean square"),
    (["spectrum", "--h0", "5"], None, "h0 must be 2"),
    (["spectrum", "--degree", "3"], None, "degree at most 2"),
], ids=["config-type", "config-command", "config-unknown-key", "sample-every-zero",
        "metric-indefinite", "output-dir-missing", "lambda-overflow", "flow-h0-overflow",
        "flow-metric-huge", "lambda-det-overflow", "flow-det-overflow",
        "lambda-matrix-overflow", "flow-matrix-overflow", "lambda-ground-state-lost",
        "spectrum-h0", "spectrum-degree"])
@pytest.mark.filterwarnings("error")
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, argv, config, message):
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    if "--output" in argv:
        argv[-1] = str(tmp_path / argv[-1])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_lambda_large_torsion_prints_strict_json(capsys):
    # the residual's squared entries overflow float64; its scaled norm does not
    code = main(["lambda", "--h0", "1e153", "--degree", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""

    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    rep = json.loads(captured.out, parse_constant=reject)
    assert rep["lambda"] == pytest.approx(-5e305, rel=1e-9)
    assert 0 < rep["residual"] < 1e300


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
