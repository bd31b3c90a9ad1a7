"""Committed stdout, stderr and exit code of the CLI commands whose output the
paper's numbers come from, compared in-process through ``cli.main``. Exact
fields must match byte for byte; float literals must agree within the
relative tolerance of the benchmark's oracles, since they have moved by
rounding before (1e-14 in the flow residual, 6.5e-15 in kernel eigenvalues).

To record a case again after an intended change of output, write the
command's stdout to its file in ``golden/`` and its stderr and exit code to
``golden/cases.json``."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from grflab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _oracle():
    path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_close = _oracle()._close

# a JSON string literal (kept whole, so digits inside it stay exact) or a number
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|(-?\d+(?:\.\d+)?(?:e[+-]?\d+)?)')


def _split_floats(text):
    """text with every float literal outside a string replaced by '#', and the
    floats in order; integers and everything else stay in the text."""
    floats = []

    def mask(m):
        number = m.group(1)
        if number is None or not any(ch in number for ch in ".e"):
            return m.group(0)
        floats.append(float(number))
        return "#"

    return _TOKEN.sub(mask, text), floats


def test_split_floats_keeps_exact_fields():
    text, floats = _split_floats('{"a": 1.5e-3, "b": 7, "c": "x1.5 and 2e9", "d": -4.0}')
    assert text == '{"a": #, "b": 7, "c": "x1.5 and 2e9", "d": #}'
    assert floats == [1.5e-3, -4.0]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, capsys):
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.err == case["stderr"]
    # bytes, not read_text: the CSV writer ends its lines with \r\n
    want_text, want_floats = _split_floats((GOLDEN / case["stdout"]).read_bytes().decode())
    got_text, got_floats = _split_floats(captured.out)
    assert got_text == want_text
    assert len(got_floats) == len(want_floats)
    assert all(_close(x, ref) for x, ref in zip(got_floats, want_floats))
