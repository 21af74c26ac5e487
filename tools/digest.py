"""Every output the pinned results rest on, hashed, and one sha256 over them.

    python3 tools/digest.py

Run from anywhere in a source checkout; it imports the package from that
checkout's src/ and the workloads from its bench/workloads.py, which it only
reads, and it writes no bytecode.  It prints one `<label> <sha256>` line per
unit, in this order:
- point-sweep and design-scan at seeds 0-3: every operation run once, the
  canonical form of each output followed by a newline;
- the simulators at fixed shapes and seeds 7 and 12345: sim_aloha at M/K
  10/6, 100/60, 200/1000 and 30/30000, sim_twoway at the split 132/71, and
  the MIMO outage estimator at 1x1, 2x4, 4x2, 4x4 over l = 4 blocks and 8x8
  over l = 2, each the canonical form of its whole report.  Every trial
  count falls off the block grid, and each l = 1 MIMO run ends on a block of
  one trial;
- `reproduce-paper`: its stdout, run in-process.
The last line is the sha256 of the lines before it, so two checkouts whose
outputs agree bit for bit print the same last line; hash(), whose str
hashing is salted per process, could not show that across processes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import sys
from collections.abc import Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (M, D, n, K); the last two send 104 bits in 60-use slots, which decode with
# probability 0.64
ALOHA = [(10, 192.0, 800.0, 6), (100, 192.0, 7500.0, 60), (200, 104.0, 60_000.0, 1000),
         (30, 104.0, 1_800_000.0, 30_000)]
# (m_t, m_r, l, rate) at snr 10
MIMO = [(1, 1, 1, 1.0), (2, 4, 1, 7.0), (4, 2, 1, 5.0), (4, 4, 4, 10.0), (8, 8, 2, 21.0)]


def canonical(value: object, out: list[str]) -> list[str]:
    """Append the canonical form of value to out and return out: a float as
    float.hex, an int (or bool) and a str as repr, a dataclass as its type
    name and its fields in order, a dict as its (key, value) items in sorted
    key order, and a tuple, a list or an ALOHA profile as its items in
    order, the profile's items being its (K, success probability) pairs.
    Exact types are tested first; the isinstance tests are the slow path."""
    t = type(value)
    if t is float:
        out.append(value.hex())
    elif t is int or t is bool or t is str:
        out.append(repr(value))
    elif t is tuple or t is list:
        out.append("(")
        for v in value:
            tv = type(v)  # floats and ints inline: a profile holds 10**4 (K, p) pairs
            if tv is float:
                out.append(v.hex())
            elif tv is int:
                out.append(repr(v))
            else:
                canonical(v, out)
            out.append(",")
        out.append(")")
    elif t is dict:
        canonical(sorted(value.items()), out)
    elif isinstance(value, float):
        out.append(value.hex())
    elif isinstance(value, int):
        out.append(repr(value))
    elif dataclasses.is_dataclass(value):
        out.append(f"{t.__name__}(")
        for f in dataclasses.fields(value):
            canonical(getattr(value, f.name), out)
            out.append(",")
        out.append(")")
    elif isinstance(value, Sequence) and not isinstance(value, str):
        canonical(tuple(value), out)
    else:
        raise TypeError(f"no canonical form for {t.__name__}")
    return out


def reports():
    """(label, report) for every simulator call, in order."""
    from shortpacket.awgn import Channel, Convention
    from shortpacket.mcsim import (_BLOCK, _MIMO_BLOCK, QuasiStaticConfig, outage_prob_mimo_mc, sim_aloha,
                                   sim_twoway)
    from shortpacket.protocols import AlohaConfig, TwoWayConfig

    ch = Channel(10.0, Convention.REAL_CU)
    for seed in (7, 12345):
        for M, D, n, K in ALOHA:
            trials = _BLOCK + 777
            yield (f"sim_aloha M={M} K={K} trials={trials} seed={seed}",
                   sim_aloha(AlohaConfig(M, D, n, ch, K=K), trials, seed))
        trials = 3 * _BLOCK + 12_345
        yield (f"sim_twoway n1=132 n2=71 trials={trials} seed={seed}",
               sim_twoway(TwoWayConfig(193.0, 97.0, ch), 132, 71, trials, seed))
        for m_t, m_r, l, rate in MIMO:
            trials = 2 * _MIMO_BLOCK + 1
            yield (f"mimo {m_t}x{m_r} l={l} R={rate!r} trials={trials} seed={seed}",
                   outage_prob_mimo_mc(QuasiStaticConfig(10.0, m_t, m_r), l, rate, trials, seed))


def units():
    """(label, the str chunks hashed under it) for every unit, in order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from shortpacket import cli

    for name in ("point-sweep", "design-scan"):
        for seed in range(4):
            ops = workloads.WORKLOADS[name](seed, str(ROOT / "src")).ops
            yield f"{name} seed={seed}", ("".join(canonical(op.run(workloads.direct), [])) + "\n" for op in ops)
    for label, rep in reports():
        yield label, canonical(rep, [])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.run(["reproduce-paper"])
    if code != 0:
        raise SystemExit(f"reproduce-paper exited {code}")
    yield "reproduce-paper", [stdout.getvalue()]


def main() -> None:
    sys.dont_write_bytecode = True
    lines = []
    for label, chunks in units():
        h = hashlib.sha256()
        for chunk in chunks:
            h.update(chunk.encode())
        lines.append(f"{label} {h.hexdigest()}")
        print(lines[-1], flush=True)
    print("sha256", hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
