"""Alternating parent/change pairs of the benchmark, with a verdict.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload design-scan --seeds 12001-12010 --seconds 30 \\
        --claim latency_p50_ms --describe "what the change does" --out BENCH_N.json

DIR is the root of a source checkout (it holds bench/run.py and src/).  For
each seed the two checkouts run `python3 bench/run.py --workload W --seed S
--seconds T --trace 0` one after the other, and the side that runs first
alternates from seed to seed, so a slow phase of the host falls on both
sides alike.  Before every run the src/**/__pycache__ directories of both
checkouts are deleted: with PYTHONDONTWRITEBYTECODE=1 a stale cache is never
refreshed, and a checkout that reads compiled bytecode starts in about half
the time of one that compiles src/.

For each end-to-end metric it prints the medians and quartiles of both
sides, the pairs in which the change is better, and a verdict against the
metric's bound in BENCHMARK.json.  A metric whose parent interquartile
range exceeds the bound is unresolved, unless every run of the change is
better than every run of the parent.  A claimed metric is met when the
change is better in at least 9 of 10 pairs and the medians differ, in the
better direction, by more than the parent's interquartile range.  Any
other metric that the same rule finds worse is marked "worse in N/10", so
a regression inside the bound still shows.  --out writes the command line,
each checkout's git HEAD, a sha256 of its src/ files (so an export made
with `git archive`, which has no HEAD, is still named), the line count of
its src/**/*.py and the last hash of its tools/digest.py (null where it has
none), whether those hashes agree, the runs, the summaries and the verdicts
as JSON.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path


def parse_seeds(spec: str) -> list[int]:
    """'101-110' or '101,105,109'."""
    if "-" in spec:
        first, last = (int(x) for x in spec.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in spec.split(",")]


def clear_bytecode(root: Path) -> None:
    for cache in (root / "src").rglob("__pycache__"):
        shutil.rmtree(cache)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": round(statistics.median(runs), 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(x, 6) for x in runs]}


def git_head(root: Path) -> str | None:
    """The commit checked out at root, or None where root is not the top of
    a git work tree: an export inside another repository is not that
    repository's HEAD."""
    out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    if out.returncode != 0:
        return None
    top, head = out.stdout.split()
    return head if Path(top).resolve() == root.resolve() else None


def src_digest(root: Path) -> str:
    """sha256 over the files under root/src, __pycache__ excluded: for each
    in sorted order its path relative to src/, its size and its bytes."""
    src = root / "src"
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(src).as_posix() for p in src.rglob("*")
                      if p.is_file() and "__pycache__" not in p.parts):
        data = (src / rel).read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def src_lines(root: Path) -> int:
    """Lines in the .py files under root/src, __pycache__ excluded."""
    return sum(len(p.read_bytes().splitlines()) for p in (root / "src").rglob("*.py")
               if "__pycache__" not in p.parts)


def outputs_digest(root: Path) -> str | None:
    """The sha256 on the last line of `python3 tools/digest.py` run in root,
    or None where root has no such tool."""
    if not (root / "tools" / "digest.py").is_file():
        return None
    out = subprocess.run([sys.executable, "tools/digest.py"], cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{root}: tools/digest.py exited {out.returncode}\n{out.stderr}")
    return out.stdout.split()[-1]


def host() -> str:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        names = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                 if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    libs = []
    for lib in ("numpy", "scipy"):
        try:
            libs.append(f"{lib} {metadata.version(lib)}")
        except metadata.PackageNotFoundError:
            libs.append(f"no {lib}")
    bytecode = "PYTHONDONTWRITEBYTECODE=1" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "bytecode written"
    return (f"{os.cpu_count()} CPUs, {cpu}, {platform.system()} {platform.release()}, "
            f"Python {platform.python_version()}, {', '.join(libs)}; {bytecode}; "
            "src/**/__pycache__ deleted before every run")


def pairs(args: argparse.Namespace, workload: str, metrics: dict[str, dict]) -> dict:
    sides = {"parent": Path(args.parent), "change": Path(args.change)}
    got: dict[str, list[dict]] = {"parent": [], "change": []}
    for j, seed in enumerate(args.seeds):
        order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
        for side in order:
            for root in sides.values():
                clear_bytecode(root)
            got[side].append(run_once(sides[side], workload, seed, args.seconds))
        p, c = (got[s][-1]["metrics"][args.claim or "wall_s"]["value"] for s in ("parent", "change"))
        print(f"# {workload} seed {seed}: {args.claim or 'wall_s'} parent {p:.6g} change {c:.6g}", flush=True)
    result = {
        "pairs": len(args.seeds),
        "seeds": args.seeds,
        "correct": {s: all(r["correct"] for r in got[s]) for s in got},
        "failed": {s: sum(r["failed"] for r in got[s]) for s in got},
        "attempted": {s: sum(r["attempted"] for r in got[s]) for s in got},
        "metrics": {},
    }
    for name, spec in metrics.items():
        runs = {s: [r["metrics"][name]["value"] for r in got[s]] for s in got}
        result["metrics"][name] = compare(spec, runs["parent"], runs["change"])
    return result


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's runs, paired in order: both sides' summaries and the
    pairs in which the change is better and worse."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    entry = {"unit": spec["unit"], "parent": summary(parent), "change": summary(change),
             f"change_{spec['better']}_in": f"{wins}/{len(parent)}",
             "change_worse_in": f"{losses}/{len(parent)}"}
    par, chg = entry["parent"]["median"], entry["change"]["median"]
    entry["relative_change"] = round((chg - par) / par, 4)
    return entry


def verdicts(workload: str, result: dict, metrics: dict[str, dict], claim: str | None) -> dict | None:
    """Print one line per metric and store its verdict in result; return
    the claim's verdict if claimed here."""
    print(f"{workload}: correct {result['correct']}, failed {result['failed']}")
    claimed = None
    for name, entry in result["metrics"].items():
        spec = metrics[name]
        par, chg = entry["parent"], entry["change"]
        iqr = par["q3"] - par["q1"]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        gap = sign * (par["median"] - chg["median"])  # > 0 when the change is better
        wins = entry[f"change_{spec['better']}_in"]
        won, n = (int(x) for x in wins.split("/"))
        lost = int(entry["change_worse_in"].split("/")[0])
        # every change run better than every parent run settles a spread wider than the bound
        apart = max(sign * x for x in chg["runs"]) < min(sign * x for x in par["runs"])
        if iqr / par["median"] > spec["bound"] and not apart:
            verdict = f"unresolved: parent IQR {iqr / par['median']:.0%} exceeds the bound {spec['bound']:.0%}"
        elif -gap > spec["bound"] * par["median"]:
            verdict = f"WORSE than the bound {spec['bound']:.0%}"
        else:
            verdict = "within the bound"
        if name == claim:
            met = won >= 0.9 * n and gap > iqr
            claimed = {"workload": workload, "metric": name, "met": met,
                       "rule": "change better in >= 9/10 pairs and median gap above the parent's interquartile range",
                       f"change_{spec['better']}_in": wins, "median_gap": round(gap, 6),
                       "parent_iqr": round(iqr, 6), "relative_change": entry["relative_change"]}
            verdict += f"; claim {'MET' if met else 'NOT MET'} (gap {gap:.4g} vs IQR {iqr:.4g})"
        elif lost >= 0.9 * n and -gap > iqr:
            # the claim rule turned round: a regression inside the bound still shows
            verdict += f"; worse in {lost}/{n} (gap {-gap:.4g} vs IQR {iqr:.4g})"
        entry["verdict"] = verdict
        print(f"  {name:16s} parent {par['median']:.6g} [{par['q1']:.6g}, {par['q3']:.6g}]  "
              f"change {chg['median']:.6g} [{chg['q1']:.6g}, {chg['q3']:.6g}]  "
              f"{entry['relative_change']:+.1%}  better in {wins}  {verdict}")
    return claimed


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent's checkout")
    p.add_argument("--change", required=True, help="root of the change's checkout")
    p.add_argument("--workload", action="append", help="repeatable; default design-scan")
    p.add_argument("--seeds", type=parse_seeds, required=True, help="'A-B' or a comma list")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--claim", help="the end-to-end metric the change claims to improve (first workload)")
    p.add_argument("--describe", default="", help="what the change does, for --out")
    p.add_argument("--out", help="write the runs and summaries here as JSON")
    argv = sys.argv[1:] if argv is None else argv
    args = p.parse_args(argv)
    workloads = args.workload or ["design-scan"]
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    roots = {"parent": Path(args.parent), "change": Path(args.change)}
    outputs = {side: outputs_digest(root) for side, root in roots.items()}
    doc = {
        "change": args.describe,
        "parent": git_head(roots["parent"]),
        "sides": {side: {"head": git_head(root), "src_sha256": src_digest(root), "src_lines": src_lines(root),
                         "outputs_sha256": outputs[side]}
                  for side, root in roots.items()},
        "outputs_identical": None if None in outputs.values() else outputs["parent"] == outputs["change"],
        "command": shlex.join(["python3", "tools/bench_pairs.py", *argv]),
        "each_run": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0 "
                    "in each checkout, parent and change alternating which runs first",
        "host": host(),
        "workloads": {},
    }
    for k, workload in enumerate(workloads):
        doc["workloads"][workload] = pairs(args, workload, metrics)
        claimed = verdicts(workload, doc["workloads"][workload], metrics, args.claim if k == 0 else None)
        if claimed:
            doc["claim"] = claimed
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
