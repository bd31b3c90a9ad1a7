"""The benchmark's inputs and oracles, checked with the tier-1 tests: a change
that breaks the seeded job lists or the reference checks fails here, not only
in a benchmark run. The minutes-long coverage test of bench/selftest.py is
left to the benchmark."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def selftest():
    # selftest imports its siblings jobs, oracle and run as top-level modules
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("bench_selftest", BENCH / "selftest.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_seeded_inputs_are_reproducible(selftest):
    assert selftest.seed_test() == []


def test_oracles_reject_wrong_outputs_and_accept_references(selftest):
    assert selftest.oracle_test() == []
