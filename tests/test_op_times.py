"""tools/op_times.py on the smallest workload pass: one timed pass of
design-scan, every operation listed once, fastest first, with the p50 and
tail operations marked, and with --by-kind each label's count, sum and
share; and one traced pass of point-sweep with --by-call, each called
function's count, sum and share of the operations."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import op_times  # noqa: E402  (tools/op_times.py)


def test_marks_are_the_positions_a_percentile_interpolates_between():
    assert op_times.marks(5, 50.0) == {2}
    assert op_times.marks(4, 50.0) == {1, 2}
    assert op_times.marks(5, 100.0) == {4}
    assert op_times.marks(212, 90.0) == {189, 190}


def test_op_times_lists_every_design_scan_operation_sorted():
    out = subprocess.run(
        [sys.executable, "tools/op_times.py", "--workload", "design-scan", "--seed", "0", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    ).stdout.splitlines()
    assert out[0].startswith("# design-scan seed 0:")
    rows = [line.split() for line in out[1:]]
    ms = [float(r[0]) for r in rows]
    assert ms == sorted(ms)
    assert sorted(int(r[3]) for r in rows) == list(range(len(rows)))
    # 180 operations: both percentiles fall between two of them
    assert [r[5:] for r in rows if len(r) > 5] == [["p50"], ["p50"], ["p90"], ["p90"]]
    assert [i for i, r in enumerate(rows) if r[5:]] == [89, 90, 161, 162]


def test_by_kind_sums_each_label_largest_first():
    times = [(0.5, 0, "b"), (2.0, 1, "a"), (1.0, 2, "b"), (0.25, 3, "c")]
    assert op_times.by_kind(times) == [("a", 1, 2.0), ("b", 2, 1.5), ("c", 1, 0.25)]


def test_op_times_by_kind_covers_every_design_scan_operation():
    out = subprocess.run(
        [sys.executable, "tools/op_times.py", "--workload", "design-scan", "--seed", "0", "--seconds", "0",
         "--by-kind"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    ).stdout.splitlines()
    assert out[0].startswith("# design-scan seed 0: 180 operations")
    total = float(out[0].split("sum ")[1].split()[0])
    rows = [line.split() for line in out[1:]]
    counts = {r[4]: int(r[0]) for r in rows}
    # 100 fixed-n and 48 target two-way calls, 16 ALOHA calls at M <= 100 and 16 above
    assert counts == {"twoway_optimize_fixed": 100, "twoway_optimize_target": 48,
                      "aloha_optimize_small": 16, "aloha_optimize_large": 16}
    ms = [float(r[1]) for r in rows]
    assert ms == sorted(ms, reverse=True)
    assert sum(ms) == pytest.approx(total, abs=1e-3)
    assert sum(float(r[3].rstrip("%")) for r in rows) == pytest.approx(100.0, abs=0.3)


def test_by_call_takes_each_calls_fastest_pass_and_the_operations_sum():
    # two passes of two operations: op 0 calls f twice and g once, op 1 calls f once
    def pass_(scale):
        return [("w", 0, "a", "L", "f", 0.0, 1e-3 * scale, True), ("w", 0, "a", "L", "g", 0.0, 2e-3, True),
                ("w", 0, "a", "L", "f", 0.0, 3e-3 / scale, True), ("w", 0, "a", "op", "a", 0.0, 7e-3, True),
                ("w", 1, "b", "M", "f", 0.0, 4e-3, True), ("w", 1, "b", "op", "b", 0.0, 5e-3 * scale, True)]

    rows, total = op_times.by_call(pass_(1.0) + pass_(2.0))
    assert [(name, count) for name, count, _ in rows] == [("M.f", 1), ("L.f", 2), ("L.g", 1)]
    assert [ms for _, _, ms in rows] == pytest.approx([4.0, 2.5, 2.0])
    assert total == pytest.approx(12.0)


def test_op_times_by_call_covers_every_point_sweep_call():
    out = subprocess.run(
        [sys.executable, "tools/op_times.py", "--workload", "point-sweep", "--seed", "0", "--seconds", "0",
         "--by-call"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    ).stdout.splitlines()
    assert out[0].startswith("# point-sweep seed 0: 256 operations")
    total = float(out[0].split("sum ")[1].split()[0])
    rows = [line.split() for line in out[1:]]
    # every operation calls the same 13 functions once, and the last row is the rest of the operations' time
    assert rows[-1][4:] == ["(outside", "calls)"]
    counts = {r[4]: int(r[0]) for r in rows[:-1]}
    assert len(counts) == 13 and set(counts.values()) == {256}
    assert {"fading.eps_quasistatic", "awgn.eps_star", "specfun.q_func"} <= set(counts)
    ms = [float(r[1]) for r in rows]
    assert ms[:-1] == sorted(ms[:-1], reverse=True) and ms[-1] >= 0.0
    assert sum(ms) == pytest.approx(total, abs=1e-3)
    assert sum(float(r[3].rstrip("%")) for r in rows) == pytest.approx(100.0, abs=0.3)
