"""Per-operation times of one benchmark workload, sorted, in one process.

    python3 tools/op_times.py --workload mc-crosscheck --seed 0 [--seconds 10] [--by-kind | --by-call]

Run from the root of a source checkout.  It builds the workload from
bench/workloads.py with the same seed as `bench/run.py` and runs it through
the bench's own pass loop (`run.run_passes`: one untimed pass, then whole
passes for `--seconds`, taking the CPUs in turn; at least one timed pass).
It prints each operation's fastest pass in milliseconds, fastest first, and
marks the operations at p50 and at the tail percentile: those are the ones
`latency_p50_ms` and `latency_tail_ms` are interpolated between, which
bench/run.py does not print.  With --by-kind it prints one row per
operation label instead: the count, the sum of the fastest times in ms and
the label's share of that sum.  `wall_s` is a pass's sum over every
operation, so the shares say where it goes.  With --by-call the pass loop
gets the bench's span tracer, which times every `call(layer, name, fn, ...)`
an operation makes in every second pass (at least one); it prints one row
per called function: the count per pass, the sum of each call's fastest
time in ms and its share of the operations' sum of fastest traced times,
then the rest of that sum, spent outside the calls.  The BLAS thread
variables are set to 1, as bench/run.py sets them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (bench/run.py, which loads no numpy when imported)


def marks(count: int, pct: float) -> set[int]:
    """Sorted positions that run.percentile interpolates between for `count` values."""
    pos = run.percentile(list(range(count)), pct)
    return {int(pos), math.ceil(pos)}


def op_times(workload: str, seed: int, seconds: float,
             traced: bool = False) -> tuple[list[tuple[float, int, str]], float, list[tuple]]:
    """(fastest ms, index, label) for every operation, the workload's tail
    percentile, and the spans of the traced passes when `traced`."""
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    import spans
    import workloads as wl

    if workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; known: {', '.join(wl.WORKLOADS)}")
    w = wl.WORKLOADS[workload](seed, str(run.SRC))
    tracer = spans.Tracer(w.name) if traced else None
    latencies = run.run_passes(w, seconds, tracer, lambda i, out: None)["latencies"]
    times = sorted((min(xs) * 1e3, i, op.label) for i, (xs, op) in enumerate(zip(latencies, w.ops)))
    return times, w.tail_pct, tracer.spans if tracer else []


def by_kind(times: list[tuple[float, int, str]]) -> list[tuple[str, int, float]]:
    """(label, count, sum of fastest ms) per operation label, largest sum first."""
    kinds: dict[str, tuple[int, float]] = {}
    for ms, _, label in times:
        count, total = kinds.get(label, (0, 0.0))
        kinds[label] = count + 1, total + ms
    return sorted(((label, count, total) for label, (count, total) in kinds.items()), key=lambda k: -k[2])


def by_call(spans: list[tuple]) -> tuple[list[tuple[str, int, float]], float]:
    """(layer.name, calls per pass, sum of fastest ms) per called function,
    largest sum first, and the sum of the operations' fastest traced ms.

    A tracer appends an operation's call spans in order and then its "op"
    span, so the j-th call of operation i is the same call in every pass."""
    fastest: dict[tuple[int, int], tuple[str, float]] = {}
    ops: dict[int, float] = {}
    j = 0
    for _, op_id, _, layer, name, t0, t1, _ in spans:
        if layer == "op":
            ops[op_id] = min(ops.get(op_id, math.inf), t1 - t0)
            j = 0
            continue
        key = (op_id, j)
        j += 1
        fastest[key] = f"{layer}.{name}", min(fastest.get(key, ("", math.inf))[1], t1 - t0)
    calls: dict[str, tuple[int, float]] = {}
    for name, dt in fastest.values():
        count, total = calls.get(name, (0, 0.0))
        calls[name] = count + 1, total + dt * 1e3
    rows = sorted(((name, count, total) for name, (count, total) in calls.items()), key=lambda k: -k[2])
    return rows, sum(ops.values()) * 1e3


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    rows = p.add_mutually_exclusive_group()
    rows.add_argument("--by-kind", action="store_true", help="one row per operation label: count, sum, share")
    rows.add_argument("--by-call", action="store_true",
                      help="one row per function the operations call: count, sum, share of the operations")
    args = p.parse_args(argv)
    times, tail_pct, traced = op_times(args.workload, args.seed, args.seconds, traced=args.by_call)
    head = f"# {args.workload} seed {args.seed}: {len(times)} operations, fastest pass in {args.seconds:g} s; "
    if args.by_call:
        calls, total = by_call(traced)
        print(head + f"sum {total:.4f} ms over the traced operations, by call")
        for name, count, ms in calls + [("(outside calls)", len(times), total - sum(ms for _, _, ms in calls))]:
            print(f"{count:6d}  {ms:12.4f} ms  {ms / total:6.1%}  {name}")
        return 0
    if args.by_kind:
        kinds = by_kind(times)
        total = sum(ms for _, _, ms in kinds)
        print(head + f"sum {total:.4f} ms by label")
        for label, count, ms in kinds:
            print(f"{count:6d}  {ms:12.4f} ms  {ms / total:6.1%}  {label}")
        return 0
    at_p50, at_tail = marks(len(times), 50.0), marks(len(times), tail_pct)
    print(head + f"p50 and p{tail_pct:g} marked")
    for rank, (ms, i, label) in enumerate(times):
        tags = [tag for tag, at in (("p50", at_p50), (f"p{tail_pct:g}", at_tail)) if rank in at]
        print(f"{ms:12.4f} ms  op {i:4d}  {label:28s} {' '.join(tags)}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
