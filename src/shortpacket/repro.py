"""The reproduction table: the package's reference operating points, each
a named check that recomputes its numbers and compares them with the
expected values.

These are the normal-approximation operating points of Polyanskiy, Poor
and Verdu (IEEE T-IT 2010) applied to the short-packet scenarios (two-way
exchange, downlink broadcast, uplink random access), plus the fading and
Monte-Carlo checks.  A row is (name, fn) with fn() -> (ok, detail).  The
protocol rows' reference values hold under real channel uses, so they
share one REAL_CU channel; awgn-rate-point and convention-sensitivity
build their own complex one.  ``shortpacket reproduce-paper`` and the
acceptance tests both render this one table.
"""

from __future__ import annotations

import math
from typing import Callable

from .awgn import Channel, CodeSpec, Convention, eps_star, rate_na
from .fading import (
    DmtMode,
    dmt_curve,
    dmt_eval,
    eps_quasistatic,
    outage_capacity_siso,
    outage_prob_siso,
)
from .mcsim import QuasiStaticConfig, outage_prob_mimo_mc, sim_aloha, sim_twoway
from .protocols import (
    AlohaConfig,
    DownlinkConfig,
    TwoWayConfig,
    aloha_optimize,
    aloha_success,
    downlink_compare,
    twoway_optimize,
    twoway_reliability,
    twoway_tdd_eval,
)

__all__ = ["ROWS"]

_SNR10 = 10.0  # 10 dB as a linear ratio
_CH = Channel(_SNR10, Convention.REAL_CU)


def _tdd_operating_point() -> tuple[bool, str]:
    r = twoway_tdd_eval(194.0, 96.0, 125.0, _CH)
    ok = abs(r.eps - 0.0118) <= 3e-4 and abs(r.throughput - 0.759) <= 1e-3
    return ok, f"eps={r.eps:.6g} (want 0.0118±0.0003) throughput={r.throughput:.6g} (want 0.759±0.001)"


def _two_way_min_n() -> tuple[bool, str]:
    res = twoway_optimize(TwoWayConfig(193.0, 97.0, _CH, target_reliability=0.999), 96.0)
    # every split of one use fewer, scanned here rather than taken from the optimizer
    cfg = TwoWayConfig(193.0, 97.0, _CH)
    best_below = max(twoway_reliability(cfg, n1, 202 - n1) for n1 in range(1, 202))
    ok = (
        res.feasible
        and (res.n, res.n1, res.n2) == (203, 132, 71)
        and best_below < 0.999
    )
    return ok, (
        f"n={res.n} split=({res.n1},{res.n2}) (want 203=(132,71)); "
        f"best reliability at n=202 is {best_below:.6f} (must be <0.999)"
    )


def _two_way_fixed_n() -> tuple[bool, str]:
    res = twoway_optimize(TwoWayConfig(193.0, 97.0, _CH, n_total=250), 96.0)
    ok = (res.n1, res.n2) == (158, 92) and abs(res.throughput - 0.384) <= 1e-3
    return ok, (
        f"split=({res.n1},{res.n2}) (want (158,92)) "
        f"throughput={res.throughput:.6g} (want 0.384±0.001)"
    )


def _downlink_strategies() -> tuple[bool, str]:
    res = downlink_compare(DownlinkConfig(10, 192.0, 125.0, _CH))
    ok = abs(res.eps_tdma - 0.007) <= 5e-4 and 1e-12 <= res.eps_concat <= 1e-11
    return ok, (
        f"eps_tdma={res.eps_tdma:.6g} (want 0.007±0.0005) "
        f"eps_concat={res.eps_concat:.3g} (want within [1e-12, 1e-11])"
    )


def _aloha_slot_count() -> tuple[bool, str]:
    cfg = AlohaConfig(10, 192.0, 800.0, _CH)
    k = aloha_optimize(cfg).k_opt
    k_perfect = aloha_optimize(cfg, assume_perfect_decoding=True).k_opt
    ok = k == 6 and k_perfect == 10
    return ok, f"k_opt={k} (want 6); with perfect decoding k_opt={k_perfect} (want 10)"


def _awgn_rate_point() -> tuple[bool, str]:
    r = rate_na(Channel(1.0, Convention.COMPLEX_CU), 138.0, 1e-3)
    ok = abs(r.rate - 0.697) <= 3e-3
    return ok, f"rate={r.rate:.6g} at n=138, eps=1e-3, snr=0dB complex (want 0.697±0.003)"


def _convention_sensitivity() -> tuple[bool, str]:
    ch = Channel(_SNR10, Convention.COMPLEX_CU)
    e_tdd = eps_star(ch, CodeSpec(194.0, 125.0))
    e_dl = eps_star(ch, CodeSpec(192.0, 125.0))
    n = twoway_optimize(TwoWayConfig(193.0, 97.0, ch, target_reliability=0.999), 96.0).n
    fixed = twoway_optimize(TwoWayConfig(193.0, 97.0, ch, n_total=250), 96.0)
    k = aloha_optimize(AlohaConfig(10, 192.0, 800.0, ch)).k_opt
    ok = (
        e_tdd < 1e-9
        and e_dl < 1e-9
        and n < 203
        and (fixed.n1, fixed.n2) != (158, 92)
        and k == 10
    )
    return ok, (
        f"complex convention: eps(194,125)={e_tdd:.3g} eps(192,125)={e_dl:.3g} (both <1e-9) "
        f"min_n={n} (<203) k_opt={k} (want 10)"
    )


def _outage_round_trip() -> tuple[bool, str]:
    snr = _SNR10
    grid = [1e-9, 1e-6, 1e-4] + [i / 1000.0 for i in range(1, 1000, 7)]
    worst = max(
        abs(outage_prob_siso(snr, outage_capacity_siso(snr, e)) - e) for e in grid
    )
    anchor = abs(outage_prob_siso(snr, math.log2(1.0 + snr)) - (1.0 - math.exp(-1.0)))
    ok = worst <= 1e-10 and anchor <= 1e-12
    return ok, f"round-trip max error {worst:.2e} (<=1e-10); capacity-rate outage error {anchor:.2e} (<=1e-12)"


def _quasi_static_limit() -> tuple[bool, str]:
    c01 = outage_capacity_siso(_SNR10, 0.1)
    gap_large = abs(eps_quasistatic(_SNR10, c01, 1e4) - 0.1)
    gap_small = abs(eps_quasistatic(_SNR10, c01, 1e2) - 0.1)
    ok = gap_large <= 0.02 and gap_large < gap_small
    return ok, f"|eps-0.1| at n=1e4: {gap_large:.2e} (<=0.02), at n=1e2: {gap_small:.2e} (must be larger)"


def _sim_analytic_agreement() -> tuple[bool, str]:
    k_slots = 6
    n_slot = int(800 // k_slots)
    analytic_aloha = aloha_success(
        AlohaConfig(10, 192.0, float(k_slots * n_slot), _CH, K=k_slots)
    )
    cfg = AlohaConfig(10, 192.0, 800.0, _CH, K=k_slots)
    two = TwoWayConfig(193.0, 97.0, _CH)
    rel = twoway_reliability(two, 132, 71)
    runs = [(sim_aloha(cfg, 1_000_000, seed).per_slot_throughput, analytic_aloha) for seed in (0, 1)]
    runs += [(sim_twoway(two, 132, 71, 10_000_000, seed), rel) for seed in (0, 1)]
    worst = max(abs(rep.estimate - truth) / rep.std_error for rep, truth in runs)
    return worst <= 3.0, f"worst deviation {worst:.2f} sigma across both simulators, two seeds each (<=3)"


def _mimo_outage_calibration() -> tuple[bool, str]:
    cfg = QuasiStaticConfig(_SNR10, 1, 1)
    runs = [
        (outage_prob_mimo_mc(cfg, 1, outage_capacity_siso(_SNR10, e), 1_000_000, seed=0), e)
        for e in (0.02, 0.05, 0.1, 0.2, 0.4)
    ]
    worst = max(abs(rep.estimate - truth) / rep.std_error for rep, truth in runs)
    return worst <= 3.0, f"worst deviation {worst:.2f} sigma over the 5-point rate grid (<=3)"


def _dmt_exactness() -> tuple[bool, str]:
    coh = dmt_curve(2, 2, DmtMode.COHERENT)
    non = dmt_curve(2, 2, DmtMode.NONCOHERENT, n_c=10)
    mid = dmt_eval(coh, 2.5)
    ok = (
        coh.breakpoints == ((4.0, 0.0), (1.0, 1.0), (0.0, 2.0))
        and non.scaling == 0.8
        and non.breakpoints == ((4.0, 0.0), (1.0, 0.8), (0.0, 1.6))
        and all(dmt_eval(coh, d) == r for d, r in coh.breakpoints)
        and all(dmt_eval(non, d) == r for d, r in non.breakpoints)
        and abs(mid - 0.5) <= 1e-12
    )
    return ok, f"coherent/noncoherent breakpoints exact; r(d=2.5)={mid:.12g} (want 0.5)"


ROWS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("tdd-operating-point", _tdd_operating_point),
    ("two-way-min-n", _two_way_min_n),
    ("two-way-fixed-n", _two_way_fixed_n),
    ("downlink-strategies", _downlink_strategies),
    ("aloha-slot-count", _aloha_slot_count),
    ("awgn-rate-point", _awgn_rate_point),
    ("convention-sensitivity", _convention_sensitivity),
    ("outage-round-trip", _outage_round_trip),
    ("quasi-static-limit", _quasi_static_limit),
    ("sim-analytic-agreement", _sim_analytic_agreement),
    ("mimo-outage-calibration", _mimo_outage_calibration),
    ("dmt-exactness", _dmt_exactness),
)
