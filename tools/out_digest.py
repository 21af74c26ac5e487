"""Every output of the point-sweep and design-scan workloads, hashed per seed.

    python3 tools/out_digest.py

Run from anywhere in a source checkout; it imports the package from that
checkout's src/ and the workloads from its bench/workloads.py, which it
only reads.  For each of the two workloads at seeds 0-3 it builds the
seeded input set, runs every operation once and hashes a canonical byte
form of the outputs: a float as float.hex, an int (or bool) as written, a
dataclass as its type name and its fields in order, and a tuple, a list or
an ALOHA profile as its items in order, the profile's items being its
(K, success probability) pairs.  It prints one sha256 per workload and
seed, then one over those lines, so two checkouts whose outputs agree bit
for bit print the same last line; hash(), whose str hashing is salted per
process, could not show that across processes.  It writes no bytecode, so
bench/ is left as it was.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from collections.abc import Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("point-sweep", "design-scan")
SEEDS = range(4)


def canonical(value: object):
    """The canonical form of value, as a stream of str pieces."""
    if isinstance(value, float):
        yield value.hex()
    elif isinstance(value, int):
        yield repr(value)
    elif dataclasses.is_dataclass(value):
        yield f"{type(value).__name__}("
        for f in dataclasses.fields(value):
            yield from canonical(getattr(value, f.name))
            yield ","
        yield ")"
    elif isinstance(value, Sequence) and not isinstance(value, str):  # a tuple, a list or an ALOHA profile
        yield "("
        for v in value:
            yield from canonical(v)
            yield ","
        yield ")"
    else:
        raise TypeError(f"no canonical form for {type(value).__name__}")


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True
    import workloads

    lines = []
    for name in WORKLOADS:
        for seed in SEEDS:
            h = hashlib.sha256()
            for op in workloads.WORKLOADS[name](seed, str(ROOT / "src")).ops:
                h.update("".join(canonical(op.run(workloads.direct))).encode())
                h.update(b"\n")
            lines.append(f"{name} seed={seed} {h.hexdigest()}")
            print(lines[-1])
    print("sha256", hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
