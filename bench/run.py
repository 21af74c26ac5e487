"""Layered benchmark for the shortpacket package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One process, one caller, closed
loop: the next operation starts when the previous one returns.  The
workload's fixed input set (generated from --seed) is run once untimed, with
every output checked, and then as whole passes until the next pass would
end after --seconds.  The last line of stdout is one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Lines before it, starting with '#', record the load (input digest,
operation counts, versions, thread settings, host-speed probe) and the
domain-edge inputs.  The traced run also runs the cli-session script of
shortpacket processes once and checks it.

Metric names and units are the ones declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden"
GOLDEN_SEED = 0
SETUP_REPEATS = 5
# BLAS/OpenMP pools: the MIMO simulator's slogdet calls LAPACK, and no
# thread beyond the single caller may compete for the cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# the CPUs this process may run on; on a shared VM each vCPU has slow
# phases of its own, so the timed loop and the set-up children take them in
# turn.  The loop moves every ROTATE_S seconds, not every pass: the first
# pass after a move runs the large simulator shapes 5-10% slower
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
ROTATE_S = 2.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help=f"store this run's checked outputs as the golden file (seed {GOLDEN_SEED} only)")
    args = p.parse_args(argv)
    if args.write_golden and args.seed != GOLDEN_SEED:
        p.error(f"--write-golden needs --seed {GOLDEN_SEED}")
    return args


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: tells a slow host from a slow commit."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def pin(k: int) -> None:
    """Run on the k-th allowed CPU in turn, or on all of them when k < 0."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS if k < 0 else {CPUS[k % len(CPUS)]})


def setup_times(src: str) -> list[float]:
    """Import time of shortpacket.cli in fresh interpreters, each child
    started on the next CPU in turn."""
    import workloads as wl

    code = "import time; t0 = time.perf_counter(); import shortpacket.cli; print(time.perf_counter() - t0)"
    times = []
    for k in range(SETUP_REPEATS):
        pin(k)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=wl.child_env(src), timeout=120, check=True)
        times.append(float(proc.stdout.strip()))
    pin(-1)
    return times


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of values."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Raised:
    """An operation's exception, kept in place of its output."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Raised({self.text!r})"


def run_op(op: Any, call: Any) -> Any:
    try:
        return op.run(call)
    except Exception as exc:  # an operation that raises counts as failed
        return Raised(exc)


def run_passes(w: Any, seconds: float, tracer: Any, inspect: Any) -> dict[str, Any]:
    """An untimed first pass whose outputs go to inspect(i, out), so lazy
    set-up and caches are done before timing; then whole passes until the
    next one would end after `seconds`, every second one traced when there
    is a tracer.  The timed loop takes the CPUs in turn, ROTATE_S seconds
    on each, so an operation's fastest repeat is not held to one vCPU's
    slow phase.  Outputs are kept only as fingerprints, so the benchmark
    holds no more memory than one operation's output."""
    import workloads as wl

    latencies: list[list[float]] = [[] for _ in w.ops]
    walls: list[float] = []
    traced_walls: list[float] = []
    prints = []
    for i, op in enumerate(w.ops):
        out = run_op(op, wl.direct)
        inspect(i, out)
        prints.append(hash(repr(out)))
    start = time.perf_counter()
    changed = 0
    timed = 0
    moves = 0
    pin(moves)
    moved = time.perf_counter()
    while timed < (2 if tracer else 1) or time.perf_counter() - start + max(walls + traced_walls) <= seconds:
        traced = tracer is not None and timed % 2 == 1
        if time.perf_counter() - moved >= ROTATE_S:
            moves += 1
            pin(moves)
            moved = time.perf_counter()
        wall = 0.0
        for i, op in enumerate(w.ops):
            t0 = time.perf_counter()
            out = tracer.op(i, op.label, lambda c, op=op: run_op(op, c)) if traced else run_op(op, wl.direct)
            dt = time.perf_counter() - t0
            wall += dt
            if not traced:
                latencies[i].append(dt)
            changed += hash(repr(out)) != prints[i]
        (traced_walls if traced else walls).append(wall)
        timed += 1
    pin(-1)
    return {"latencies": latencies, "walls": walls, "traced_walls": traced_walls,
            "passes": timed + 1, "changed": changed}


def golden_diff(got: Any, want: Any, tol: float, path: str = "") -> list[str]:
    import reference as ref
    import workloads as wl

    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: got {got!r}"]
        return [d for k, v in want.items() for d in golden_diff(got.get(k), v, tol, f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [d for j, (g, v) in enumerate(zip(got, want)) for d in golden_diff(g, v, tol, f"{path}[{j}]")]
    if isinstance(want, float) and isinstance(got, float) and tol > 0.0:
        ok = ref.close(got, want, tol, wl.TINY)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{path}: got {got!r}, want {want!r}"]


class Checker:
    """Checks each first-pass output and compares the records with the
    golden file at the golden seed, or writes it."""

    def __init__(self, w: Any) -> None:
        self.w = w
        self.problems: list[tuple[int, str, str]] = []  # (op index, layer, problem)
        self.records: list[Any] = []

    def __call__(self, i: int, out: Any) -> None:
        w = self.w
        if isinstance(out, Raised):
            self.problems.append((i, w.layer_of(i, out.text), f"raised {out.text}"))
            self.records.append(None)
            return
        self.problems += [(i, w.layer_of(i, p), p) for p in w.check(i, out)]
        self.records.append(w.record(i, out))

    def golden(self, write: bool) -> None:
        w = self.w
        path = GOLDEN / f"{w.name}.json"
        if write:
            if self.problems:
                raise SystemExit("refusing to write a golden file from outputs that fail their checks")
            GOLDEN.mkdir(exist_ok=True)
            lines = ",\n".join(json.dumps(r, sort_keys=True) for r in self.records)
            path.write_text(f'{{"seed": {w.seed}, "digest": "{w.digest()}", "records": [\n{lines}\n]}}\n')
            return
        if w.seed != GOLDEN_SEED:
            return
        gold = json.loads(path.read_text())
        if gold["digest"] != w.digest():
            self.problems.append((0, w.layer_of(0, "inputs"), "inputs differ from the golden run"))
            return
        for i, (rec, want) in enumerate(zip(self.records, gold["records"])):
            keyed = want if isinstance(want, dict) else {"": want}
            for key, v in keyed.items():
                got = rec.get(key) if isinstance(rec, dict) and key else rec
                for d in golden_diff(got, v, w.rel_tol(i, key), key):
                    self.problems.append((i, w.layer_of(i, f"golden {d}"), f"golden {d}"))


def cli_session(seed: int, src: str, tracer: Any, write_golden: bool) -> tuple[dict[str, float], list[Any]]:
    """Run the cli-session script once, one shortpacket process at a time,
    checking every invocation: seconds per invocation label, and problems."""
    import workloads as wl

    w = wl.CliSession(seed, src)
    checker = Checker(w)
    seconds = {}
    tracer.workload = w.name
    for i, op in enumerate(w.ops):
        t0 = time.perf_counter()
        out = tracer.op(i, op.label, lambda c, op=op: run_op(op, c))
        seconds[op.label] = time.perf_counter() - t0
        checker(i, out)
    checker.golden(write_golden)
    return seconds, checker.problems


def declared() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def emit(values: dict[str, float], units: dict[str, str], result: dict[str, Any]) -> None:
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise SystemExit(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    result["metrics"] = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "shortpacket" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a shortpacket checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    probe = host_probe()

    import numpy
    import scipy

    import shortpacket
    import spans
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared()
    src = str(SRC)
    setup = setup_times(src)
    w = wl.WORKLOADS[args.workload](args.seed, src)

    tracer = spans.Tracer(w.name) if args.trace else None
    edge_tracer = spans.Tracer("edge")
    edge = wl.edge_inputs(edge_tracer.call if tracer else wl.direct)
    checker = Checker(w)
    res = run_passes(w, args.seconds, tracer, checker)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker.golden(args.write_golden)
    problems = checker.problems
    for i, layer, msg in problems[:20]:
        print(f"check failed: {w.name} op {i} ({layer}): {msg}", file=sys.stderr)
    bad_ops = {i for i, _, _ in problems}
    attempted = res["passes"] * len(w.ops)
    failed = len(bad_ops) * res["passes"] + res["changed"]

    # each operation at its fastest repeat: a shared 2-vCPU VM changes
    # speed by up to 2x for tens of seconds at a time, which moves medians
    # over a run by up to 50% but an operation's fastest repeat by about
    # 10%; the percentiles are then over the operations
    op_ms = [min(xs) * 1e3 for xs in res["latencies"]]
    tail = percentile(op_ms, w.tail_pct)
    samples = [x for xs in res["latencies"] for x in xs]
    print("# load " + json.dumps({
        "workload": w.name, "seed": w.seed, "input_digest": w.digest(), "ops_per_pass": len(w.ops),
        "passes": res["passes"], "attempted": attempted, "nondeterministic_outputs": res["changed"],
        "latency_samples": len(samples), "sample_p50_ms": statistics.median(samples) * 1e3,
        "pass_wall_median_s": statistics.median(res["walls"]), "tail_percentile": w.tail_pct,
        "operations_beyond_tail": sum(1 for x in op_ms if x > tail),
        "host_probe_s": probe, "setup_import_s": setup,
        "cores": os.cpu_count(), "cpus_in_turn": CPUS, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "shortpacket": shortpacket.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }))
    print("# edge " + json.dumps({
        "attempted": len(edge), "failed": sum(1 for e in edge if e[2]),
        "results": [{"layer": layer, "input": label, "problem": problem} for layer, label, problem in edge],
    }))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}

    if not args.trace:
        e2e = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(op_ms) / 1e3,
            "latency_p50_ms": statistics.median(op_ms),
            "latency_tail_ms": tail,
            "peak_rss_mb": peak_rss_mb,
        }
        emit(e2e, units["end_to_end"], result)
        return 0

    session, cli_problems = cli_session(args.seed, src, tracer, args.write_golden)
    for i, layer, msg in cli_problems[:20]:
        print(f"check failed: cli-session op {i}: {msg}", file=sys.stderr)
    result["attempted"] += len(session)
    result["failed"] += len({i for i, _, _ in cli_problems})
    result["correct"] = result["failed"] == 0
    failures: dict[str, int] = {}
    for layer in [p[1] for p in problems + cli_problems] + [e[0] for e in edge if e[2]]:
        failures[layer] = failures.get(layer, 0) + 1
    layer = spans.layer_totals([s for s in tracer.spans if s[0] == w.name], failures)
    # the workloads make no CLI calls: the cli layer's totals are the script's
    cli_totals = spans.layer_totals([s for s in tracer.spans if s[0] == "cli-session"], failures)
    layer.update({k: v for k, v in cli_totals.items() if k.startswith("cli.")})
    suite, suite_tracer = spans.layer_suite(args.seed, src)
    layer.update(suite)
    layer["cli.session_s"] = sum(session.values())
    layer["cli.sweep_s"] = session["qs-eps-sweep"]
    layer["cli.reproduce_s"] = session["reproduce-paper"]
    layer["trace.overhead_s"] = statistics.median(res["traced_walls"]) - statistics.median(res["walls"])
    tracer.spans += edge_tracer.spans + suite_tracer.spans
    tracer.write(OUT / f"spans-{w.name}-{w.seed}.jsonl.gz")
    emit(layer, units["per_layer"], result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
