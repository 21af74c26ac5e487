"""Two-way exchange optimization, TDD throughput, downlink strategy
comparison, and framed slotted ALOHA."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from from_scratch import tail_args
from shortpacket import protocols
from shortpacket.awgn import Channel, CodeSpec, Convention, eps_star
from shortpacket.protocols import (
    AlohaConfig,
    AlohaOptResult,
    _aloha_profile,
    DownlinkConfig,
    TwoWayConfig,
    aloha_optimize,
    aloha_success,
    downlink_compare,
    twoway_optimize,
    twoway_reliability,
    twoway_tdd_eval,
)
from shortpacket.specfun import q_array

CH = Channel(10.0, Convention.REAL_CU)


def scan_best_split(cfg, n):
    """Reference optimizer: plain exhaustive scan, first maximum wins."""
    best_n1, best_rel = 1, -1.0
    for n1 in range(1, n):
        rel = twoway_reliability(cfg, n1, n - n1)
        if rel > best_rel:
            best_n1, best_rel = n1, rel
    return best_n1, best_rel


def from_scratch_best_split(cfg, n):
    """Reference optimizer: every split's eps* evaluated anew for this n, as
    one array per leg with Q at every entry; first argmax wins."""
    n1 = np.arange(1, n, dtype=float)
    e1 = q_array(tail_args(cfg.ch, cfg.k1, n1))
    e2 = q_array(tail_args(cfg.ch, cfg.k2, float(n) - n1))
    rel = (1.0 - e1) * (1.0 - e2)
    i = int(np.argmax(rel))
    return int(n1[i]), float(rel[i])


# ---------------------------------------------------------------------------
# two-way exchange


def test_twoway_reliability_spot_value():
    cfg = TwoWayConfig(193.0, 97.0, CH)
    rel = twoway_reliability(cfg, 132, 71)
    assert rel == pytest.approx(0.999192803642461, rel=1e-9)
    assert rel > 0.999


def test_twoway_reliability_improves_with_resources():
    cfg = TwoWayConfig(193.0, 97.0, CH)
    assert twoway_reliability(cfg, 133, 71) > twoway_reliability(cfg, 132, 71)
    assert twoway_reliability(cfg, 132, 72) > twoway_reliability(cfg, 132, 71)


def test_twoway_reliability_saturates():
    cfg = TwoWayConfig(193.0, 97.0, CH)
    assert twoway_reliability(cfg, 10**6, 10**6) == 1.0


def test_twoway_optimize_matches_exhaustive_scan():
    cfg_base = TwoWayConfig(193.0, 97.0, CH)
    # a fixed n reads a grid pair of n - 1 entries, 256 and 257 here
    for n in (10, 47, 100, 203, 257, 258):
        res = twoway_optimize(TwoWayConfig(193.0, 97.0, CH, n_total=n), 96.0)
        n1_ref, rel_ref = scan_best_split(cfg_base, n)
        assert res.n1 == n1_ref
        assert res.n2 == n - n1_ref
        assert res.reliability == pytest.approx(rel_ref, rel=1e-12)


def test_twoway_optimize_min_n():
    res = twoway_optimize(TwoWayConfig(193.0, 97.0, CH, target_reliability=0.999), 96.0)
    assert res.feasible
    assert (res.n, res.n1, res.n2) == (203, 132, 71)
    assert res.reliability > 0.999
    assert res.throughput == pytest.approx(res.reliability * 96.0 / 203.0)
    # one channel use fewer cannot meet the target, whatever the split
    cfg = TwoWayConfig(193.0, 97.0, CH)
    assert all(twoway_reliability(cfg, n1, 202 - n1) < 0.999 for n1 in range(1, 202))


def test_twoway_optimize_min_n_matches_linear_scan():
    target = 0.99
    res = twoway_optimize(TwoWayConfig(20.0, 10.0, CH, target_reliability=target), 20.0)
    cfg = TwoWayConfig(20.0, 10.0, CH)
    expected = next(n for n in range(2, 10_000) if scan_best_split(cfg, n)[1] > target)
    assert res.n == expected
    assert res.feasible


def test_twoway_optimize_fixed_n():
    res = twoway_optimize(TwoWayConfig(193.0, 97.0, CH, n_total=250), 96.0)
    assert (res.n1, res.n2) == (158, 92)
    assert res.reliability > 1.0 - 1e-10
    assert res.throughput == pytest.approx(0.384, abs=1e-3)


def test_twoway_optimize_symmetric_split():
    # equal payloads over an even total land exactly on the even split
    res = twoway_optimize(TwoWayConfig(97.0, 97.0, CH, n_total=144), 96.0)
    assert res.n1 == res.n2 == 72


def test_twoway_optimize_infeasible_below_ceiling():
    res = twoway_optimize(
        TwoWayConfig(193.0, 97.0, CH, target_reliability=0.999), 96.0, n_ceiling=50
    )
    assert not res.feasible
    assert res.n == 50
    assert res.reliability < 0.999
    assert res.n1 + res.n2 == 50
    assert res.throughput == pytest.approx(res.reliability * 96.0 / 50.0)


# At snr >= -5 dB and k >= 1, k + 3/(2 ln 2) > log2(1/(2C ln 2))/2 holds with
# room (C >= 0.198 bits, so 3.16 > 0.93): eps_star falls strictly in n on
# both legs, and the best reliability rises with n
TWOWAY_LINKS = dict(
    k1=st.floats(1.0, 300.0),
    k2=st.floats(1.0, 300.0),
    snr_db=st.floats(-5.0, 20.0),
    conv=st.sampled_from(list(Convention)),
)


@settings(max_examples=50)
@given(**TWOWAY_LINKS, n=st.integers(2, 3000))
def test_twoway_optimize_fixed_n_matches_from_scratch_scan(k1, k2, snr_db, conv, n):
    cfg = TwoWayConfig(k1, k2, Channel(10.0 ** (snr_db / 10.0), conv), n_total=n)
    res = twoway_optimize(cfg, 1.0)
    assert (res.n1, res.reliability) == from_scratch_best_split(cfg, n)
    assert res.n == n and res.n2 == n - res.n1


@settings(max_examples=50)
@given(**TWOWAY_LINKS, log_miss=st.floats(1.0, 6.0))
def test_twoway_optimize_target_is_tight(k1, k2, snr_db, conv, log_miss):
    target = 1.0 - 10.0**-log_miss  # in [0.9, 1 - 1e-6]
    cfg = TwoWayConfig(k1, k2, Channel(10.0 ** (snr_db / 10.0), conv), target_reliability=target)
    res = twoway_optimize(cfg, 1.0)
    assert res.feasible
    assert (res.n1, res.reliability) == from_scratch_best_split(cfg, res.n)
    assert scan_best_split(cfg, res.n)[1] > target
    assert res.n == 2 or scan_best_split(cfg, res.n - 1)[1] <= target


def reference_legs(cfg, top):
    """1 - eps*(k1, m) and 1 - eps*(k2, m) for m = 1..top-1, evaluated anew
    with Q at every entry."""
    m = np.arange(1, top, dtype=float)
    return tuple(1.0 - q_array(tail_args(cfg.ch, k, m)) for k in (cfg.k1, cfg.k2))


def from_scratch_target_search(cfg, n_ceiling):
    """Reference target search: every n = 2..n_ceiling in turn, each over
    every split, with no floor, window or monotonicity assumed.  Returns
    (n, n1, reliability) for the first n whose best split (first argmax)
    beats the target, or None."""
    s1, s2 = reference_legs(cfg, n_ceiling)
    for n in range(2, n_ceiling + 1):
        rel = s1[: n - 1] * s2[n - 2 :: -1]
        i = int(np.argmax(rel))
        if rel[i] > cfg.target_reliability:
            return n, i + 1, float(rel[i])
    return None


def assert_target_search_matches(cfg, n_ceiling, found):
    # found: the reference answer at any ceiling >= n_ceiling
    res = twoway_optimize(cfg, 1.0, n_ceiling=n_ceiling)
    if found is not None and found[0] <= n_ceiling:
        assert res.feasible and (res.n, res.n1, res.reliability) == found
    else:
        assert not res.feasible and res.n == n_ceiling
        assert (res.n1, res.reliability) == from_scratch_best_split(cfg, n_ceiling)


@settings(max_examples=100, deadline=None)
@given(
    log_k1=st.floats(-1.0, 3.5),
    log_k2=st.floats(-1.0, 3.5),
    snr_db=st.floats(-20.0, 30.0),
    conv=st.sampled_from(list(Convention)),
    log_miss=st.floats(1.0, 8.0),
    data=st.data(),
)
def test_twoway_target_search_matches_from_scratch_search(log_k1, log_k2, snr_db, conv, log_miss, data):
    target = 1.0 - 10.0**-log_miss  # in [0.9, 1 - 1e-8]
    ch = Channel(10.0 ** (snr_db / 10.0), conv)
    cfg = TwoWayConfig(10.0**log_k1, 10.0**log_k2, ch, target_reliability=target)
    found = from_scratch_target_search(cfg, 3000)
    # any ceiling, or the answer's own: met at the ceiling, missed one below
    edges = [found[0], found[0] - 1] if found is not None and found[0] > 2 else [3000]
    n_ceiling = data.draw(st.one_of(st.integers(2, 3000), st.sampled_from(edges)))
    assert_target_search_matches(cfg, n_ceiling, found)


# (snr dB, convention, k1, k2, target, answer n, n - a1 - b2), where the
# floor a1 (b2) is the first m whose 1 - eps*(k1, m) beats the target
TARGET_EDGES = [
    # a far floor, 252 of a 360-entry saturated grid pair, and the answer
    # three diagonals above the floors
    (6.9, Convention.REAL_CU, 12.5, 288.8, 1.0 - 1e-2, 271, 3),
    # an answer 18 diagonals up: the probes at 15 and 31 bracket it, and
    # the bisection between them finds it
    (-3.1, Convention.REAL_CU, 0.6, 5.0, 1.0 - 1e-5, 260, 18),
    # a floor at 849 of a 1391-entry saturated grid pair
    (-3.2, Convention.REAL_CU, 2.9, 140.2, 1.0 - 1e-6, 1026, 21),
    # floors 30 and 1016 of a 1135-entry saturated grid pair
    (4.0, Convention.COMPLEX_CU, 20.8, 1636.1, 1.0 - 1e-6, 1049, 3),
    # the answer on diagonal 32, past the probe at 31: at the ceiling n it
    # is the last diagonal, where the next probe stops, and it must still
    # be read
    (-5.7, Convention.REAL_CU, 1.0, 0.5, 1.0 - 1e-3, 224, 32),
    # low snr: the answer lies more than 128 diagonals above the floors,
    # past the probe at 127, and the bisection reads 128..254; the legs
    # saturate past the ceiling, so the grid pair has its 2999 entries
    (-15.2, Convention.REAL_CU, 1.3, 1.9, 1.0 - 1e-1, 227, 133),
    (-12.0, Convention.REAL_CU, 0.1, 32.6, 1.0 - 1e-3, 2123, 165),
    # the rest are one float below the best reliability at n, so n is the
    # first total that beats them.  Low snr and k below 1: each leg's
    # success peaks and falls again within a few uses, so the totals just
    # past n miss the target again, and only the legs' running maxima make
    # the probes rise with d
    (-27.8, Convention.COMPLEX_CU, 0.12, 0.32, 0.9999999094119407, 20, 4),
    (-22.4, Convention.REAL_CU, 0.3, 0.22, 0.9999695793308011, 23, 8),
    # answers 73 and 109 diagonals up, where the probe at 127 reads far
    # past both floors
    (-9.7, Convention.REAL_CU, 0.57, 2.42, 0.9831872814940965, 279, 73),
    (-13.7, Convention.COMPLEX_CU, 0.57, 0.1, 0.9979756097372028, 598, 109),
    # the best reliability at n - 1 equals the target, which it does not beat
    (3.8, Convention.REAL_CU, 0.17, 2.31, 0.9999999999999991, 150, 3),
]


@pytest.mark.parametrize("snr_db, conv, k1, k2, target, n, above_floors", TARGET_EDGES)
def test_twoway_target_search_edges(snr_db, conv, k1, k2, target, n, above_floors):
    cfg = TwoWayConfig(k1, k2, Channel(10.0 ** (snr_db / 10.0), conv), target_reliability=target)
    found = from_scratch_target_search(cfg, 3000)
    s1, s2 = reference_legs(cfg, 3000)
    a1, b2 = (int(np.argmax(s > cfg.target_reliability)) + 1 for s in (s1, s2))
    assert found[0] == n and n - a1 - b2 == above_floors
    # met at the ceiling; one below it, where the floors still fit; below
    # the floors' sum; and with a floor past the ceiling's grid
    for n_ceiling in (3000, n, n - 1, a1 + b2 - 1, max(a1, b2)):
        assert_target_search_matches(cfg, n_ceiling, found)


def test_twoway_target_search_builds_its_grids_once(monkeypatch):
    grids = []
    success_grid = protocols._success_grid

    def spy_success_grid(ch, k, n):
        grids.append((np.ravel(k).tolist(), len(n)))
        return success_grid(ch, k, n)

    monkeypatch.setattr(protocols, "_success_grid", spy_success_grid)
    # n = 203: one grid pair, both legs in one call, up to the length where
    # both legs are exactly 1.0
    res = twoway_optimize(TwoWayConfig(193.0, 97.0, CH, target_reliability=0.999), 96.0)
    assert (res.n, res.n1) == (203, 132)
    assert grids == [([193.0, 97.0], 184)] and protocols._saturation(CH, 193.0) == 184
    # the floors add up past the ceiling, so the search on the saturated
    # grid fails and the final split at the ceiling builds n_ceiling - 1
    grids.clear()
    cfg = TwoWayConfig(6000.0, 3000.0, CH, target_reliability=1.0 - 1e-6)
    res = twoway_optimize(cfg, 1.0, n_ceiling=5000)
    assert not res.feasible and res.n == 5000
    assert grids == [([6000.0, 3000.0], size) for size in (3795, 4999)]
    assert (res.n1, res.reliability) == from_scratch_best_split(cfg, 5000)
    # fixed n: one grid pair of n - 1 entries
    grids.clear()
    res = twoway_optimize(TwoWayConfig(193.0, 97.0, CH, n_total=1000), 96.0)
    assert grids == [([193.0, 97.0], 999)]


def test_twoway_at_the_least_snr_is_eps_star():
    # at snr 5e-324 sqrt(mV) was subnormal; that snr is refused.  At the
    # bottom of the range, 2**-52, the first leg's tail argument is near
    # -1e23 at the largest payload a config takes: twoway_reliability gives
    # 0.0 at every split, and so does the grid, without numpy's overflow
    # warning (an error under the test filter)
    with pytest.raises(ValueError, match="^snr must be"):
        Channel(5e-324)
    cfg = TwoWayConfig(2.0**53, 1.0, Channel(2.0**-52), n_total=4)
    assert all(twoway_reliability(cfg, n1, 4 - n1) == 0.0 for n1 in range(1, 4))
    res = twoway_optimize(cfg, 1.0)
    assert (res.n1, res.n2, res.reliability) == (1, 3, 0.0)


def test_twoway_config_validation():
    with pytest.raises(ValueError):
        TwoWayConfig(0.0, 97.0, CH)
    with pytest.raises(ValueError):
        TwoWayConfig(193.0, -1.0, CH)
    with pytest.raises(ValueError):
        TwoWayConfig(193.0, 97.0, CH, n_total=1)
    with pytest.raises(ValueError):
        TwoWayConfig(193.0, 97.0, CH, target_reliability=1.0)
    with pytest.raises(ValueError):
        TwoWayConfig(193.0, 97.0, CH, n_total=100, target_reliability=0.99)


def test_twoway_optimize_requires_one_objective():
    with pytest.raises(ValueError):
        twoway_optimize(TwoWayConfig(193.0, 97.0, CH), 96.0)
    with pytest.raises(ValueError):
        twoway_optimize(TwoWayConfig(193.0, 97.0, CH, n_total=100), 0.0)


def test_twoway_reliability_rejects_bad_split():
    cfg = TwoWayConfig(193.0, 97.0, CH)
    with pytest.raises(ValueError):
        twoway_reliability(cfg, 0, 71)
    with pytest.raises(ValueError):
        twoway_reliability(cfg, 132, 0)


# ---------------------------------------------------------------------------
# TDD round


def test_tdd_spot_values():
    r = twoway_tdd_eval(194.0, 96.0, 125.0, CH)
    assert r.eps == pytest.approx(0.011835261773, rel=1e-9)
    assert r.throughput == pytest.approx(0.7589105190, rel=1e-9)
    assert r.throughput == pytest.approx((1.0 - r.eps) * 96.0 / 125.0)


def test_tdd_collapses_under_complex_convention():
    r = twoway_tdd_eval(194.0, 96.0, 125.0, Channel(10.0, Convention.COMPLEX_CU))
    assert r.eps < 1e-50


def test_tdd_validation():
    with pytest.raises(ValueError):
        twoway_tdd_eval(194.0, 0.0, 125.0, CH)
    with pytest.raises(ValueError):
        twoway_tdd_eval(194.0, 195.0, 125.0, CH)
    # crediting every bit is legal
    assert twoway_tdd_eval(194.0, 194.0, 125.0, CH).throughput > 0.0


# ---------------------------------------------------------------------------
# downlink broadcast


def test_downlink_spot_values():
    res = downlink_compare(DownlinkConfig(10, 192.0, 125.0, CH))
    assert res.eps_tdma == pytest.approx(0.0073738058126, rel=1e-9)
    assert res.eps_concat == pytest.approx(2.8933380986e-12, rel=1e-6)
    assert 1e-12 <= res.eps_concat <= 1e-11
    assert math.exp(res.log_eps_concat) == pytest.approx(res.eps_concat, rel=1e-9)
    assert res.per_device_decoded_bits == 1920.0


def test_downlink_single_device_strategies_coincide():
    # concat goes through the log-domain path, so agreement is to rounding
    res = downlink_compare(DownlinkConfig(1, 192.0, 125.0, CH))
    assert res.eps_tdma == pytest.approx(res.eps_concat, rel=1e-12)


def test_downlink_concatenation_dominates():
    # whenever the short packets are even moderately reliable, the long
    # packet is strictly better
    for conv in Convention:
        for M in (2, 5, 10):
            for D, n in [(100.0, 80.0), (192.0, 125.0), (50.0, 40.0)]:
                res = downlink_compare(DownlinkConfig(M, D, n, Channel(10.0, conv)))
                if res.eps_tdma < 0.5:
                    assert res.eps_concat < res.eps_tdma


def test_downlink_config_refuses_a_slot_past_2_53():
    # at n = 1.2e307 the concatenated packet's M*n*C overflowed, so ln eps*
    # was -inf; the config now refuses the slot, and at n = 2**53 the log
    # stays finite where eps* itself underflows
    with pytest.raises(ValueError, match=r"^n must be >= 1.0 and <= 9007199254740992, got 1.2e\+307$"):
        DownlinkConfig(10, 1.0, 1.2e307, Channel(10.0, Convention.REAL_CU))
    res = downlink_compare(DownlinkConfig(10, 1.0, 2.0**53, Channel(10.0, Convention.REAL_CU)))
    assert res.eps_concat == 0.0 and -math.inf < res.log_eps_concat < -1e17


def test_downlink_frame_properties():
    cfg = DownlinkConfig(10, 192.0, 125.0, CH)
    assert cfg.frame_length == 1250.0
    assert cfg.total_bits == 1920.0


def test_downlink_validation():
    with pytest.raises(ValueError):
        DownlinkConfig(0, 192.0, 125.0, CH)
    with pytest.raises(ValueError):
        DownlinkConfig(10, 0.0, 125.0, CH)
    with pytest.raises(ValueError):
        DownlinkConfig(10, 192.0, 0.5, CH)


# ---------------------------------------------------------------------------
# framed slotted ALOHA


def test_aloha_success_spot_value():
    cfg = AlohaConfig(10, 192.0, 800.0, CH, K=6)
    assert aloha_success(cfg) == pytest.approx(0.32295853527798685, rel=1e-9)


def test_aloha_success_closed_form_with_perfect_decoding():
    cfg = AlohaConfig(10, 192.0, 800.0, CH, K=10)
    expected = (10.0 / 10.0) * (1.0 - 1.0 / 10.0) ** 9
    assert aloha_success(cfg, assume_perfect_decoding=True) == pytest.approx(expected, rel=1e-12)


def test_aloha_single_slot_always_collides():
    cfg = AlohaConfig(2, 10.0, 100.0, CH, K=1)
    assert aloha_success(cfg, assume_perfect_decoding=True) == 0.0


def test_aloha_single_device_single_slot():
    cfg = AlohaConfig(1, 10.0, 100.0, CH, K=1)
    assert aloha_success(cfg, assume_perfect_decoding=True) == 1.0
    # a payload near the slot's limit leaves only the decoding factor
    tight = AlohaConfig(1, 100.0, 60.0, CH, K=1)
    expected = 1.0 - eps_star(CH, CodeSpec(100.0, 60.0))
    assert 0.05 < expected < 0.95
    assert aloha_success(tight) == pytest.approx(expected, rel=1e-12)


def test_aloha_config_refuses_a_payload_or_frame_past_2_53():
    # at K = 1 a 1e308-use frame made nC and nV both overflow, and the
    # profile value was nan; the config now refuses such a payload or frame
    with pytest.raises(ValueError, match=r"^D must be > 0.0 and <= 9007199254740992, got 1e\+308$"):
        AlohaConfig(10, 1e308, 1e308, Channel(10.0))
    with pytest.raises(ValueError, match=r"^n must be >= 1.0 and <= 9007199254740992, got 1e\+308$"):
        AlohaConfig(10, 1.0, 1e308, Channel(10.0), K=1)
    # at 2**53 each slot decodes surely or not at all, so the profile is the
    # collision term up to the last slot count that carries the payload
    cfg = AlohaConfig(10, 2.0**53, 2.0**53, Channel(10.0))
    res = aloha_optimize(cfg)
    assert res.k_opt == 3 and res.profile[3:] == tuple((K, 0.0) for K in range(4, 41))
    for K in (1, 2, 3):
        at_k = AlohaConfig(10, 2.0**53, 2.0**53, Channel(10.0), K=K)
        assert res.profile[K - 1][1] == aloha_success(at_k) == aloha_success(at_k, assume_perfect_decoding=True)


def test_aloha_refuses_underflowing_dispersion():
    # slots of 1/K uses at snr 5e-324 made nV underflow to 0, where the
    # profile divided by zero with a RuntimeWarning; that snr is refused.  At
    # the bottom of the range, 2**-52, slots of 1/K uses keep nV positive,
    # and the profile agrees with eps_star
    with pytest.raises(ValueError, match="^snr must be"):
        Channel(5e-324)
    ch = Channel(2.0**-52)
    profile = aloha_optimize(AlohaConfig(1, 1.0, 1.0, ch), k_max=1000).profile
    for K in (1, 10, 1000):
        assert profile[K - 1][1] == 1.0 - eps_star(ch, CodeSpec(1.0, 1.0 / K))
    assert aloha_success(AlohaConfig(1, 1.0, 1.0, ch, K=1000)) == 1.0 - eps_star(ch, CodeSpec(1.0, 0.001))


def test_aloha_at_the_least_snr_is_eps_star():
    # at snr 5e-324 and 1e-300 sqrt(nV) was subnormal or tiny; both are
    # refused.  At the bottom of the range, 2**-52, the tail argument at the
    # largest payload a config takes is below -1e23: both paths give Q = 1
    # exactly, and the array path without numpy's overflow warning (an
    # error under the test filter)
    for snr in (5e-324, 1e-300):
        with pytest.raises(ValueError, match="^snr must be"):
            Channel(snr)
    ch = Channel(2.0**-52)
    assert eps_star(ch, CodeSpec(2.0**53, 1.0)) == 1.0
    assert aloha_success(AlohaConfig(1, 2.0**53, 1.0, ch, K=1)) == 0.0
    res = aloha_optimize(AlohaConfig(2, 2.0**53, 10.0, ch))
    assert all(eps_star(ch, CodeSpec(2.0**53, 10.0 / K)) == 1.0 for K in range(1, 9))
    assert res.k_opt == 1
    assert res.profile == tuple((K, 0.0) for K in range(1, 9))


def test_aloha_optimize_spot_values():
    cfg = AlohaConfig(10, 192.0, 800.0, CH)
    res = aloha_optimize(cfg)
    assert res.k_opt == 6
    assert len(res.profile) == 40
    assert res.profile[5] == (6, pytest.approx(0.32295853527798685, rel=1e-9))
    perfect = aloha_optimize(cfg, assume_perfect_decoding=True)
    assert perfect.k_opt == 10


def test_aloha_optimize_matches_profile_argmax():
    cfg = AlohaConfig(10, 192.0, 800.0, CH)
    res = aloha_optimize(cfg)
    best_by_scan = max(res.profile, key=lambda kp: kp[1])
    assert res.k_opt == best_by_scan[0]


def test_aloha_perfect_decoding_optimum_is_device_count():
    # the pure collision term (M/K)(1-1/K)^(M-1) peaks at K = M
    for M in range(2, 21):
        cfg = AlohaConfig(M, 10.0, 1000.0, CH)
        assert aloha_optimize(cfg, assume_perfect_decoding=True).k_opt == M


def test_aloha_long_packets_push_optimum_down():
    # decoding pressure: bigger payloads favor fewer, longer slots
    res_small = aloha_optimize(AlohaConfig(10, 50.0, 800.0, CH))
    res_big = aloha_optimize(AlohaConfig(10, 300.0, 800.0, CH))
    assert res_big.k_opt < res_small.k_opt <= 10


def test_aloha_validation():
    with pytest.raises(ValueError):
        aloha_success(AlohaConfig(10, 192.0, 800.0, CH))  # K unset
    with pytest.raises(ValueError):
        AlohaConfig(0, 192.0, 800.0, CH)
    with pytest.raises(ValueError):
        AlohaConfig(10, 192.0, 800.0, CH, K=0)
    with pytest.raises(ValueError):
        aloha_optimize(AlohaConfig(10, 192.0, 800.0, CH), k_max=0)
    cfg = AlohaConfig(10, 192.0, 800.0, CH)
    with pytest.raises(ValueError):
        cfg.slot_length


# ---------------------------------------------------------------------------
# the ALOHA profile: a read-only sequence that acts as a tuple of pairs


def tuple_profile(cfg, k_max, perfect):
    """The profile as a tuple of (int, float) pairs, built pair by pair."""
    return tuple((k, float(p)) for k, p in zip(range(1, k_max + 1), _aloha_profile(cfg, k_max, perfect)))


@pytest.mark.parametrize("perfect", [False, True])
@pytest.mark.parametrize("conv", list(Convention))
@pytest.mark.parametrize("M", [10, 100, 10_000])
def test_aloha_profile_acts_as_tuple(M, conv, perfect):
    cfg = AlohaConfig(M, 192.0, 80.0 * M, Channel(10.0, conv))
    res = aloha_optimize(cfg, assume_perfect_decoding=perfect)
    prof, want = res.profile, tuple_profile(cfg, 4 * M, perfect)
    assert prof == want and want == prof
    assert not prof != want and not want != prof
    assert prof != want[:-1] and prof != list(want)
    assert hash(prof) == hash(want)
    assert repr(prof) == repr(want)
    assert len(prof) == len(want) == 4 * M
    for i in (0, 1, M - 1, 4 * M - 1, -1, -2, -4 * M):
        assert prof[i] == want[i]
        assert type(prof[i][0]) is int and type(prof[i][1]) is float
    for bad in (4 * M, -4 * M - 1):
        with pytest.raises(IndexError):
            prof[bad]
    for sl in (slice(None), slice(3), slice(-5, None), slice(1, None, 7), slice(None, None, -3),
               slice(M, 2, -1), slice(4 * M + 5, None)):
        assert prof[sl] == want[sl] and type(prof[sl]) is tuple
    assert all(type(k) is int and type(p) is float for k, p in prof)
    assert tuple(prof) == want and list(reversed(prof)) == list(reversed(want))
    assert want[M - 1] in prof and prof.index(want[M - 1]) == M - 1
    with pytest.raises(TypeError):
        prof[0] = (1, 0.0)
    back = pickle.loads(pickle.dumps(res))
    assert back == res and hash(back) == hash(res) and back.profile == want
    as_tuple = AlohaOptResult(res.k_opt, want)
    assert res == as_tuple and as_tuple == res and hash(res) == hash(as_tuple)
    assert repr(res) == repr(as_tuple)


def test_aloha_profile_is_the_formula_over_contiguous_slots_bit_for_bit():
    # numpy's log2 may round an entry of a strided view differently from a
    # contiguous array; here K = 21,977 is such an entry, inside the live
    # window, so a reversed view of the slot grid moves its profile by an ulp
    cfg = AlohaConfig(10_000, 125.54928637028534, 781929.649289362, Channel(13.777644359039146))
    ks = np.arange(1, 4 * cfg.M + 1, dtype=float)
    collision = (cfg.M / ks) * (1.0 - 1.0 / ks) ** (cfg.M - 1)
    want = collision * (1.0 - q_array(tail_args(cfg.ch, cfg.D, cfg.n / ks)))
    got = np.array([p for _, p in aloha_optimize(cfg).profile])
    assert got.tobytes() == want.tobytes()


def test_aloha_profile_holds_only_its_array():
    cfg = AlohaConfig(10_000, 192.0, 800_000.0, Channel(10.0))
    aloha_optimize(cfg)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        res = aloha_optimize(cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 40,000 float64 values are 0.32 MB; 40,000 boxed pairs were 4.68 MB
    assert len(res.profile) == 40_000
    assert held < 1_000_000


@pytest.mark.parametrize("perfect", [False, True])
def test_aloha_optimize_holds_two_full_arrays_at_most(perfect):
    # the profile's 40,000 floats are 0.32 MB; the collision term makes one
    # more array, and the decoding factor's arrays span only its live slots
    # (15,424 here), made before the collision term's two
    cfg = AlohaConfig(10_000, 192.0, 800_000.0, Channel(10.0))
    aloha_optimize(cfg, assume_perfect_decoding=perfect)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        aloha_optimize(cfg, assume_perfect_decoding=perfect)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 800_000


def dense_profile(cfg, k_max, perfect):
    """The profile from the formula at every K, with the slot lengths n/K as
    one contiguous array."""
    ks = np.arange(1.0, k_max + 1.0)
    ps = (cfg.M / ks) * (1.0 - 1.0 / ks) ** (cfg.M - 1)
    return ps if perfect else ps * (1.0 - q_array(tail_args(cfg.ch, cfg.D, cfg.n / ks)))


@settings(max_examples=300)
@given(
    M=st.integers(1, 20_000),
    D=st.one_of(st.floats(1.0, 1e3), st.floats(1e-3, 2.0**53), st.just(2.0**53)),
    slot=st.one_of(st.floats(0.01, 1e3), st.floats(1e-3, 1e308)),
    snr=st.one_of(st.floats(0.1, 1e3), st.floats(2.0**-52, 2.0**52), st.sampled_from([2.0**-52, 2.0**52])),
    conv=st.sampled_from(list(Convention)),
    k_max=st.integers(1, 3000),
    perfect=st.booleans(),
)
def test_aloha_profile_is_the_dense_formula_byte_for_byte(M, D, slot, snr, conv, k_max, perfect):
    # slot is the slot length at K = k_max: below 1 the shortest slots are
    # shorter than one use; payload and frame stop at 2**53, as the config
    # does, and snr spans its range: no slot length is refused
    cfg = AlohaConfig(M, D, min(max(slot * k_max, 1.0), 2.0**53), Channel(snr, conv))
    got = aloha_optimize(cfg, k_max, perfect).profile
    assert np.array([p for _, p in got]).tobytes() == dense_profile(cfg, k_max, perfect).tobytes()


@given(
    M=st.integers(1, 200),
    D=st.floats(10.0, 400.0),
    per_device=st.floats(20.0, 300.0),
    snr_db=st.floats(0.0, 20.0),
    conv=st.sampled_from(list(Convention)),
    perfect=st.booleans(),
    k_max=st.one_of(st.none(), st.integers(1, 300)),
)
def test_aloha_optimize_profile_properties(M, D, per_device, snr_db, conv, perfect, k_max):
    cfg = AlohaConfig(M, D, M * per_device, Channel(10.0 ** (snr_db / 10.0), conv))
    res = aloha_optimize(cfg, k_max=k_max, assume_perfect_decoding=perfect)
    assert [k for k, _ in res.profile] == list(range(1, (4 * M if k_max is None else k_max) + 1))
    for k, p in res.profile:
        at_k = AlohaConfig(M, D, cfg.n, cfg.ch, K=k)
        assert math.isclose(p, aloha_success(at_k, perfect), rel_tol=1e-12, abs_tol=0.0)
    # k_opt is the first argmax
    vals = [p for _, p in res.profile]
    best = max(vals)
    assert vals[res.k_opt - 1] == best and best not in vals[: res.k_opt - 1]
