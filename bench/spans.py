"""Spans for the traced run, and the per-layer metrics computed from them.

A span is (workload, op_id, op_label, layer, name, start, end, ok).  The
benchmark opens one span around each operation (layer "op") and one around
each call it makes into a layer's public function, so layer spans never
nest and a layer's self time is its spans' total duration.  Spans stay in
memory and are written once, gzipped, when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

import workloads as wl

Span = tuple[str, int, str, str, str, float, float, bool]


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self.op_id = -1
        self.op_label = ""

    def call(self, layer: str, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        ok = False
        t0 = time.perf_counter()
        try:
            out = fn(*args)
            ok = True
            return out
        finally:
            self.spans.append((self.workload, self.op_id, self.op_label, layer, name, t0, time.perf_counter(), ok))

    def op(self, op_id: int, label: str, fn: Callable[[Any], Any]) -> Any:
        self.op_id, self.op_label = op_id, label
        t0 = time.perf_counter()
        try:
            return fn(self.call)
        finally:
            self.spans.append((self.workload, op_id, label, "op", label, t0, time.perf_counter(), True))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("workload", "op_id", "op", "layer", "name", "start", "end", "ok")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def layer_totals(spans: list[Span], failures: dict[str, int]) -> dict[str, float]:
    """<layer>.calls, .busy_s and .busy_share over the given spans, and
    <layer>.failed from the given count of failed checks per layer."""
    op_time = sum(s[6] - s[5] for s in spans if s[3] == "op")
    out: dict[str, float] = {}
    for layer in wl.LAYERS:
        mine = [s for s in spans if s[3] == layer]
        busy = sum(s[6] - s[5] for s in mine)
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.failed"] = failures.get(layer, 0)
        out[f"{layer}.busy_share"] = busy / op_time if op_time > 0 else 0.0
    return out


def _median_us(spans: list[Span], keep: Callable[[Span], bool]) -> float:
    return statistics.median((s[6] - s[5]) * 1e6 for s in spans if keep(s))


def _duration(spans: list[Span], label: str) -> float:
    return next(s[6] - s[5] for s in spans if s[3] != "op" and s[2] == label)


def import_breakdown(src: str) -> dict[str, float]:
    """Cumulative import seconds, as -X importtime attributes them."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import shortpacket.cli"],
        capture_output=True, text=True, env=wl.child_env(src), timeout=120, check=True,
    )
    cumulative: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
    return {
        "cli.import_s": cumulative["shortpacket.cli"],
        "cli.import.scipy_special_s": cumulative.get("scipy.special", 0.0),
        "cli.import.scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
    }


def python_start_s(repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cli_in_process(argv: list[str]) -> float:
    from shortpacket.cli import run

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"shortpacket {' '.join(argv)} exited {code}")
    return elapsed


MC_ROWS = ("sim-analytic-agreement", "mimo-outage-calibration")


def layer_suite(seed: int, src: str) -> tuple[dict[str, float], Tracer]:
    """Per-call metrics of every layer: one traced pass of each in-process
    workload's inputs, the CLI in-process, and the import breakdown."""
    tracer = Tracer("suite")
    passes: dict[str, tuple[wl.Workload, list[Span]]] = {}
    for cls in (wl.PointSweep, wl.DesignScan, wl.McCrosscheck):
        w = cls(seed, src)
        tracer.workload = w.name
        first = len(tracer.spans)
        for i, op in enumerate(w.ops):
            tracer.op(i, op.label, op.run)
        passes[w.name] = (w, tracer.spans[first:])
    m: dict[str, float] = {}

    _, point = passes["point-sweep"]
    for layer, names in (
        ("specfun", ("q_func", "q_inv", "log_q_func")),
        ("awgn", ("eps_star", "eps_star_log", "rate_na", "min_blocklength")),
        ("fading", ("eps_quasistatic", "outage_prob_siso", "outage_capacity_siso")),
    ):
        for name in names:
            m[f"{layer}.{name}.us"] = _median_us(point, lambda s, name=name: s[4] == name)
    scalar = {"twoway_reliability", "twoway_tdd_eval", "downlink_compare"}
    m["protocols.scalar_eval.us"] = _median_us(point, lambda s: s[4] in scalar)

    w, scan = passes["design-scan"]
    for label in ("twoway_optimize_fixed", "twoway_optimize_target", "aloha_optimize_small", "aloha_optimize_large"):
        m[f"protocols.{label}.us"] = _median_us(scan, lambda s, label=label: s[3] == "protocols" and s[2] == label)
    points = 0.0
    busy = 0.0
    for s in scan:
        if s[3] != "protocols" or s[2] == "twoway_optimize_target":
            continue
        p = w.inputs[s[1]]
        points += p["n_total"] - 1 if p["kind"] == "fixed" else 4 * p["M"]
        busy += s[6] - s[5]
    m["protocols.scan_points_per_s"] = points / busy

    w, mc = passes["mc-crosscheck"]
    for p, op in zip(w.inputs, w.ops):
        m[f"{op.layer}.{p['label']}.trials_per_s"] = p["trials"] / _duration(mc, p["label"])
    tracemalloc.start()
    try:
        for p, op in zip(w.inputs, w.ops):
            if p["label"].startswith("sim_aloha"):
                tracemalloc.reset_peak()
                op.run(wl.direct)
                m[f"mcsim.{p['label']}.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    cli = wl.CliSession(seed, src)
    for p in cli.inputs:
        if p["cmd"] != "reproduce-paper":
            m[f"cli.run.{p['label']}.ms"] = _cli_in_process(p["argv"]) * 1e3
    names = [ln for ln in _reproduce_list() if ln]
    analytic = [n for n in names if n not in MC_ROWS]
    m["cli.reproduce.mc_rows_s"] = _cli_in_process(["reproduce-paper", "--rows", ",".join(MC_ROWS)])
    m["cli.reproduce.analytic_rows_s"] = _cli_in_process(["reproduce-paper", "--rows", ",".join(analytic)])
    m.update(import_breakdown(src))
    m["cli.python_start_s"] = python_start_s()
    return m, tracer


def _reproduce_list() -> list[str]:
    from shortpacket.cli import run

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run(["reproduce-paper", "--list"])
    return buf.getvalue().splitlines()
