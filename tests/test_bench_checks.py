"""The benchmark's own output checks, once per timed workload at the golden
seed: every output against bench/reference.py and the golden file, through
bench/run.py's Checker.  A golden drift or a reference mismatch then fails
here, before any benchmark run.  Nothing under bench/ is written."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (bench/run.py)
import workloads  # noqa: E402  (bench/workloads.py)


@pytest.mark.parametrize("name", ["point-sweep", "design-scan", "mc-crosscheck"])
def test_workload_passes_benchmark_checks(name):
    w = workloads.WORKLOADS[name](run.GOLDEN_SEED, str(run.SRC))
    checker = run.Checker(w)
    for i, op in enumerate(w.ops):
        checker(i, run.run_op(op, workloads.direct))
    checker.golden(write=False)
    assert checker.problems == []
