"""Every simulator's report at fixed shapes and seeds, and one sha256 over them.

    python3 tools/mc_digest.py

Run from anywhere in a source checkout; it imports the package from that
checkout's src/.  It prints one line per report: sim_aloha at M/K 10/6,
100/60, 200/1000 and 30/30000, sim_twoway at the split 132/71, and the MIMO
outage estimator at 1x1, 2x4, 4x2, 4x4 over l = 4 blocks and 8x8 over
l = 2, each at seeds 7 and 12345.  Every trial count falls off the block
grid, and each l = 1 MIMO run ends on a block of one trial.  The last line
is the sha256 of the report lines, so two checkouts whose simulators agree
bit for bit print the same last line.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shortpacket.awgn import Channel, Convention  # noqa: E402
from shortpacket.mcsim import (  # noqa: E402
    _BLOCK,
    _MIMO_BLOCK,
    QuasiStaticConfig,
    outage_prob_mimo_mc,
    sim_aloha,
    sim_twoway,
)
from shortpacket.protocols import AlohaConfig, TwoWayConfig  # noqa: E402

SEEDS = (7, 12345)
CH = Channel(10.0, Convention.REAL_CU)
# (M, D, n, K); the last two send 104 bits in 60-use slots, which decode with
# probability 0.64
ALOHA = [(10, 192.0, 800.0, 6), (100, 192.0, 7500.0, 60), (200, 104.0, 60_000.0, 1000),
         (30, 104.0, 1_800_000.0, 30_000)]
# (m_t, m_r, l, rate) at snr 10
MIMO = [(1, 1, 1, 1.0), (2, 4, 1, 7.0), (4, 2, 1, 5.0), (4, 4, 4, 10.0), (8, 8, 2, 21.0)]


def reports() -> list[str]:
    """One line per report: the call, its trials and seed, and the repr of each estimate and error."""
    lines = []
    for seed in SEEDS:
        for M, D, n, K in ALOHA:
            trials = _BLOCK + 777
            reps = sim_aloha(AlohaConfig(M, D, n, CH, K=K), trials, seed)
            s, d = reps.per_slot_throughput, reps.per_device_success
            lines.append(f"sim_aloha M={M} K={K} trials={trials} seed={seed} "
                         f"{s.estimate!r} {s.std_error!r} {d.estimate!r} {d.std_error!r}")
        trials = 3 * _BLOCK + 12_345
        rep = sim_twoway(TwoWayConfig(193.0, 97.0, CH), 132, 71, trials, seed)
        lines.append(f"sim_twoway n1=132 n2=71 trials={trials} seed={seed} "
                     f"{rep.estimate!r} {rep.std_error!r}")
        for m_t, m_r, l, rate in MIMO:
            trials = 2 * _MIMO_BLOCK + 1
            rep = outage_prob_mimo_mc(QuasiStaticConfig(10.0, m_t, m_r), l, rate, trials, seed)
            lines.append(f"mimo {m_t}x{m_r} l={l} R={rate!r} trials={trials} seed={seed} "
                         f"{rep.estimate!r} {rep.std_error!r}")
    return lines


def main() -> None:
    lines = reports()
    for line in lines:
        print(line)
    print("sha256", hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
