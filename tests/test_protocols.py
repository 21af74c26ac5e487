"""Two-way exchange optimization, TDD throughput, downlink strategy
comparison, and framed slotted ALOHA."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

CH = Channel(10.0, Convention.REAL_CU)


def scan_best_split(cfg, n):
    """Reference optimizer: plain exhaustive scan, first maximum wins."""
    best_n1, best_rel = 1, -1.0
    for n1 in range(1, n):
        rel = twoway_reliability(cfg, n1, n - n1)
        if rel > best_rel:
            best_n1, best_rel = n1, rel
    return best_n1, best_rel


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
    for n in (10, 47, 100, 203):
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
    ks = np.arange(1, k_max + 1)
    return tuple((int(k), float(p)) for k, p in zip(ks, _aloha_profile(cfg, ks, perfect)))


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
