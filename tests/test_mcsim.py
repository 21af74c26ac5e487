"""Monte-Carlo cross-checks: determinism, the documented draw layouts,
agreement with the analytic formulas, memory, and config validation."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from from_scratch import gram_log_dets_full
from hypothesis import given
from hypothesis import strategies as st

from shortpacket.awgn import Channel, CodeSpec, Convention, capacity, eps_star
from shortpacket.mcsim import (
    _BLOCK,
    _CHUNK,
    _MIMO_BLOCK,
    MIN_TRIALS,
    AlohaSimReports,
    QuasiStaticConfig,
    SimConfigError,
    _GramLogDets,
    _Integers,
    _unrejected_words,
    outage_prob_mimo_mc,
    sim_aloha,
    sim_twoway,
)
from shortpacket.protocols import AlohaConfig, TwoWayConfig, aloha_success, twoway_reliability

CH = Channel(10.0, Convention.REAL_CU)


# Reference kernels: each draws whole blocks in the documented layout, all
# at once, and slices off the trials it needs.  The simulators read blocks
# in chunks and must reproduce these outcomes trial for trial.

def _block_rngs(seed, trials, block):
    """The Philox generator of each block covering `trials`, keyed by (seed, block index)."""
    keys = [np.array([seed, b], dtype=np.uint64) for b in range(-(-trials // block))]
    return [np.random.Generator(np.random.Philox(key=k)) for k in keys]


def twoway_outcomes(cfg, n1, n2, trials, seed):
    """Per-trial exchange success: each block draws (_BLOCK, 2) uniforms."""
    e1 = eps_star(cfg.ch, CodeSpec(cfg.k1, n1))
    e2 = eps_star(cfg.ch, CodeSpec(cfg.k2, n2))
    u = np.concatenate([rng.random((_BLOCK, 2)) for rng in _block_rngs(seed, trials, _BLOCK)])
    return (u[:trials, 0] >= e1) & (u[:trials, 1] >= e2)


def aloha_successes(cfg, trials, seed):
    """Per-frame success counts: each block draws its (_BLOCK, M) slot
    choices, then its (_BLOCK, M) decoding uniforms.  A device is alone when
    its (frame, slot) cell occurs once in the block; the cells are ranked
    before the count, so it runs at any K up to 2**47."""
    p_decode = 1.0 - eps_star(cfg.ch, CodeSpec(cfg.D, float(cfg.n // cfg.K)))
    out = []
    for rng in _block_rngs(seed, trials, _BLOCK):
        slots = rng.integers(0, cfg.K, size=(_BLOCK, cfg.M))
        u = rng.random((_BLOCK, cfg.M))
        cells = (slots + cfg.K * np.arange(_BLOCK)[:, None]).ravel()
        rank = np.unique(cells, return_inverse=True)[1].ravel()
        alone = (np.bincount(rank)[rank] == 1).reshape(slots.shape)
        out.append((alone & (u < p_decode)).sum(axis=1))
    return np.concatenate(out)[:trials]


def mimo_outages(cfg, l, rate, trials, seed):
    """Per-trial outage: each block draws (_MIMO_BLOCK, l, m_t, m_r, 2)
    normals, the real and imaginary parts of its fading matrices."""
    out = []
    for rng in _block_rngs(seed, trials, _MIMO_BLOCK):
        z = rng.standard_normal((_MIMO_BLOCK, l, cfg.m_t, cfg.m_r, 2))
        h = (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)
        gram = np.eye(cfg.m_r) + cfg.snr / cfg.m_t * np.einsum("blti,bltj->blij", h.conj(), h)
        out.append(np.linalg.slogdet(gram)[1].mean(axis=1) / math.log(2.0) <= rate)
    return np.concatenate(out)[:trials]


TRIALS = st.integers(MIN_TRIALS, 3 * _BLOCK - 1)
SEEDS = st.integers(0, 2**64 - 1)


@given(trials=TRIALS, seed=SEEDS)
def test_sim_twoway_follows_full_block_layout(trials, seed):
    cfg = TwoWayConfig(193.0, 97.0, CH)
    ok = twoway_outcomes(cfg, 115, 62, trials, seed)
    assert sim_twoway(cfg, 115, 62, trials, seed).estimate == np.count_nonzero(ok) / trials


@given(trials=TRIALS, seed=SEEDS, devices=st.integers(1, 8), slots=st.integers(1, 16))
def test_sim_aloha_follows_full_block_layout(trials, seed, devices, slots):
    # 104 bits in a 60-use slot decode with probability 0.64, so the uniforms count
    cfg = AlohaConfig(devices, 104.0, 60.0 * slots, CH, K=slots)
    s = aloha_successes(cfg, trials, seed)
    rep = sim_aloha(cfg, trials, seed).per_device_success
    assert rep.estimate == int(s.sum()) / trials / devices
    assert rep.std_error == pytest.approx(s.std(ddof=1) / (devices * math.sqrt(trials)), rel=1e-9)


@given(
    trials=TRIALS,
    seed=SEEDS,
    shape=st.sampled_from([(1, 1, 1), (2, 1, 3), (3, 2, 2), (1, 3, 2), (4, 4, 4)]),
)
def test_mimo_mc_follows_full_block_layout(trials, seed, shape):
    m_t, m_r, l = shape
    cfg = QuasiStaticConfig(10.0, m_t, m_r)
    rate = 1.0 + m_r
    outage = mimo_outages(cfg, l, rate, trials, seed)
    assert outage_prob_mimo_mc(cfg, l, rate, trials, seed).estimate == np.count_nonzero(outage) / trials


# K where numpy's Lemire sampler rejects never (1, 2), almost never (6, 60,
# 2**32 - 1), a quarter (3 * 2**30) or about half (2**31 + 1) of all halves
READER_KS = [1, 2, 6, 60, 3 << 30, (1 << 31) + 1, (1 << 32) - 1]


@pytest.mark.parametrize("K", READER_KS)
def test_integers_reader_matches_numpy(K):
    key = np.array([2015, 6526], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    bits = np.random.Philox(key=key)
    reader = _Integers(bits, K)
    # odd, even and chunk-spanning calls, so a pending half carries over
    for count in (1, 2, 3, 70_001, 4, _CHUNK + 1, 2 * _CHUNK + 3):
        want = rng.integers(0, K, size=count)
        assert np.array_equal(reader.fill(np.empty(count, dtype=np.int64)), want), count
    # after a skip the uniforms start where numpy's do, and a pending half
    # waits past them for the next bounded draw
    for count in (1, 2 * _CHUNK + 1, 2 * _CHUNK, 5):
        rng.integers(0, K, size=count)
        reader.skip(count)
        assert np.random.Generator(bits).random(3).tolist() == rng.random(3).tolist()
        want = rng.integers(0, K, size=(3, 5))
        assert np.array_equal(reader.fill(np.empty((3, 5), dtype=np.int64)), want)


# past 64 M slots (or 2**16) the kernel sorts each frame's slots to find
# the lone devices; 20 devices in 2**16 + 1 slots collide in about 3 frames
# of a thousand, and at 2**32 - 1, the most slots sim_aloha takes, 2**32 mod K
# is 1, so it guesses the uniforms' start.  193, 1000 and 1921 slots are the
# first past 64 M, or well past it, for 3, 10 and 30 devices
@pytest.mark.parametrize("devices, slots", [
    (1, (1 << 31) + 1), (3, (1 << 31) + 1), (20, (1 << 16) + 1), (3, (1 << 32) - 1),
    (3, 193), (10, 1000), (30, 1921),
])
def test_sim_aloha_follows_full_block_layout_at_large_k(devices, slots):
    cfg = AlohaConfig(devices, 104.0, 60.0 * slots, CH, K=slots)
    s = aloha_successes(cfg, MIN_TRIALS, 17)
    rep = sim_aloha(cfg, MIN_TRIALS, 17).per_device_success
    assert rep.estimate == int(s.sum()) / MIN_TRIALS / devices
    assert rep.std_error == pytest.approx(s.std(ddof=1) / (devices * math.sqrt(MIN_TRIALS)), rel=1e-9)


# K where the slot choices reject a quarter (3 * 2**30) or about half
# (2**31 + 1) of all halves, where the kernel walks each block first; on a
# full block and on a partial one
@pytest.mark.parametrize("trials", [_BLOCK, MIN_TRIALS])
@pytest.mark.parametrize("slots", [3 << 30, (1 << 31) + 1])
def test_sim_aloha_follows_full_block_layout_under_heavy_rejection(slots, trials):
    cfg = AlohaConfig(3, 104.0, 60.0 * slots, CH, K=slots)
    s = aloha_successes(cfg, trials, 29)
    rep = sim_aloha(cfg, trials, 29).per_device_success
    assert rep.estimate == int(s.sum()) / trials / 3
    assert rep.std_error == pytest.approx(s.std(ddof=1) / (3 * math.sqrt(trials)), rel=1e-9)


def test_uniforms_are_guessed_only_where_a_block_expects_at_most_a_sixteenth_of_a_rejection():
    draws = _BLOCK * 100
    assert _unrejected_words(1, draws) == 0  # K = 1 draws nothing
    # 2**32 mod 60 = 16: 16 * 100 * 2**16 halves is below 2**28
    assert _unrejected_words(60, draws) == draws // 2
    assert _unrejected_words((1 << 32) - 1, draws) == draws // 2  # 2**32 mod K = 1
    # 2**32 mod 1000 = 296: 0.45 expected rejections, where a guess was slower
    assert _unrejected_words(1000, draws) is None
    assert _unrejected_words(3 << 30, draws) is None
    assert _unrejected_words((1 << 31) + 1, draws) is None
    # the edge: (2**32 mod K) * count == 2**28 still guesses, one more draw does not
    # at K = 3 (2**32 mod 3 = 1)
    assert _unrejected_words(3, 1 << 28) == 1 << 27
    assert _unrejected_words(3, (1 << 28) + 1) is None


# a frame of 2**32 slots needs at least 2**32 channel uses, far past short
# packets; refusing it keeps every slot choice on the raw-word reader
@pytest.mark.parametrize("slots", [1 << 32, (1 << 32) + 1])
def test_sim_aloha_refuses_k_from_2_to_the_32(slots):
    cfg = AlohaConfig(3, 104.0, 60.0 * slots, CH, K=slots)
    with pytest.raises(ValueError, match=f"K must be an integer .*, got {slots}"):
        sim_aloha(cfg, MIN_TRIALS, 17)


def _philox_words(bits):
    """How many raw words a Philox has given since it was keyed: it makes
    four per counter step, increments the counter before each step, and
    advance() empties its buffer."""
    state = bits.state
    return 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]


def test_advance_lands_on_the_guessed_word():
    # sim_aloha's uniform cursor: advance(words // 4) then words % 4 raw
    # words reads on from the word a cursor that took `words` words reads
    key = np.array([7, 1], dtype=np.uint64)
    for words in (0, 1, 3, 4, 5, 4096 + 2):
        bits = np.random.Philox(key=key)
        bits.random_raw(words)
        jumped = np.random.Philox(key=key)
        jumped.advance(words // 4)
        jumped.random_raw(words % 4)
        assert _philox_words(jumped) == _philox_words(bits) == words
        assert jumped.random_raw(3).tolist() == bits.random_raw(3).tolist()


@pytest.mark.parametrize("K", [1, 6, 3 << 30, (1 << 32) - 1])
def test_integers_reader_counts_its_raw_words(K):
    # sim_aloha checks a guessed start against the reader's count, so the
    # count is the Philox's own, a pending half's word included
    bits = np.random.Philox(key=np.array([2015, 31], dtype=np.uint64))
    reader = _Integers(bits, K)
    for count in (1, 2, 3, 70_001, _CHUNK + 1):
        reader.fill(np.empty(count, dtype=np.int64))
        assert reader.words == _philox_words(bits)
        reader.skip(count)
        assert reader.words == _philox_words(bits)
    assert (reader.words == 0) == (K == 1)


def _mc_crosscheck_seed(seed, op):
    """The simulator seed of mc-crosscheck's operation `op` at bench seed `seed`."""
    return int.from_bytes(hashlib.sha256(f"mc-crosscheck:{seed}:{op}".encode()).digest()[:8], "little")


# mc-crosscheck's M=100, K=60 operation (op 1, 2**14 trials) at bench seeds
# where a slot choice is rejected, so the guessed start of the uniforms
# misses and the block is read again: at seed 2312 inside the kept frames
# (half 310,852), at seed 63 in the walked rest.  Reports captured before
# the kernel guessed the start: (per-slot estimate, std error, per-device
# estimate, std error)
MISS_GOLDEN = {
    2312: (0.31373189290364584, 0.0004380005578893691, 0.1882391357421875, 0.00026280033473362145),
    63: (0.31386922200520834, 0.0004418671059576148, 0.188321533203125, 0.0002651202635745689),
}


@pytest.mark.parametrize("bench_seed", sorted(MISS_GOLDEN))
def test_sim_aloha_reports_pinned_where_the_guess_misses(bench_seed, monkeypatch):
    reads = []
    fill = _Integers.fill
    monkeypatch.setattr(_Integers, "fill", lambda self, out: reads.append(out.size) or fill(self, out))
    cfg, trials = ALOHA_SHAPES[100]
    rep = sim_aloha(cfg, trials, _mc_crosscheck_seed(bench_seed, 1))
    s, d = rep.per_slot_throughput, rep.per_device_success
    assert (s.estimate, s.std_error, d.estimate, d.std_error) == MISS_GOLDEN[bench_seed]
    assert sum(reads) == 2 * trials * cfg.M  # the kept slot choices are read twice


@pytest.mark.parametrize("trials", [_BLOCK, MIN_TRIALS])
def test_sim_aloha_walks_only_the_unread_rest_of_a_block(trials, monkeypatch):
    walked, reads = [], []
    skip, fill = _Integers.skip, _Integers.fill
    monkeypatch.setattr(_Integers, "skip", lambda self, count: walked.append(count) or skip(self, count))
    monkeypatch.setattr(_Integers, "fill", lambda self, out: reads.append(out.size) or fill(self, out))
    cfg = AlohaConfig(10, 192.0, 800.0, CH, K=6)
    sim_aloha(cfg, trials, 0)
    assert sum(walked) == (_BLOCK - trials) * 10
    assert sum(reads) == trials * 10  # each kept slot choice is read once


def test_sim_aloha_sizes_sorted_chunk_rows_by_devices(monkeypatch):
    # rows sized by max(M, K) gave 30000 slots two frames a chunk: 32,768
    # chunks a block; sized by M, a chunk holds 2**16 // 30 = 2184 frames
    reads = []
    fill = _Integers.fill
    monkeypatch.setattr(_Integers, "fill", lambda self, out: reads.append(out.size) or fill(self, out))
    sim_aloha(AlohaConfig(30, 104.0, 60.0 * 30_000, CH, K=30_000), _BLOCK, 5)
    assert len(reads) <= 31 and sum(reads) == _BLOCK * 30  # no guess at this K: read once


@pytest.mark.parametrize("m_t, m_r", [(1, 1), (2, 1), (1, 3), (3, 2), (4, 4), (1, 8)])
def test_gram_log_dets_match_slogdet(m_t, m_r):
    z = np.random.default_rng(10 * m_t + m_r).standard_normal((300, m_t, m_r, 2))
    h = (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)
    log_dets = _GramLogDets(m_t, m_r, 400)  # sized past the batch, as for a chunk at a block's end
    for snr in (1.0, 10.0, 1e3):
        gram = np.eye(m_r) + snr / m_t * np.einsum("bti,btj->bij", h.conj(), h)
        got = log_dets(z, 0.5 * snr / m_t)
        np.testing.assert_allclose(got, np.linalg.slogdet(gram)[1], rtol=1e-12, atol=0.0)


# For m_t < m_r the Schur complements of an m_r x m_r Gram subtract entries
# of size b*|z|^2 to leave pivots near 1, so each such pivot is off by about
# eps*snr; over these 300 draws at snr 1e12 its worst relative log-det error
# is 3.8e-5 (1x3), 3.5e-5 (1x8) and 7.0e-6 (2x4).  det(I + b Z^H Z) =
# det(I + b Z Z^H) (Sylvester's identity) lets the estimator factor the
# m_t x m_t Gram instead.
def test_gram_log_dets_match_the_m_t_gram_when_m_t_below_m_r():
    for m_t, m_r in [(1, 3), (1, 8), (2, 4)]:
        z = np.random.default_rng(10 * m_t + m_r).standard_normal((300, m_t, m_r, 2))
        h = (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)
        log_dets = _GramLogDets(m_t, m_r, 400)
        for snr in (1e3, 1e9, 1e12):
            gram = np.eye(m_t) + snr / m_t * np.einsum("bik,bjk->bij", h, h.conj())
            got = log_dets(z, 0.5 * snr / m_t)
            np.testing.assert_allclose(got, np.linalg.slogdet(gram)[1], rtol=1e-12, atol=0.0)


# The kernel keeps the Gram's lower triangle, packed, and gives each kept
# entry the full kernel's complex ufuncs on the same operands in the same
# order, so the log-dets agree bit for bit, inf and nan included.  numpy's
# SIMD complex multiply fuses its products but not into a one-element output, so
# the full kernel's log-det of a lone matrix can differ from the one it gets
# in a batch; the packed kernel runs a lone matrix as a pair, and a batch of
# one is compared with the full kernel's log-det of that matrix in a pair.
@given(
    m_t=st.integers(1, 8),
    m_r=st.integers(1, 8),
    batches=st.lists(st.integers(1, 600), min_size=2, max_size=2),
    b=st.sampled_from([1e-300, 0.05, 1.25, 1e3, 1e300, 1e308]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_log_dets_are_the_full_kernels_bit_for_bit(m_t, m_r, batches, b, seed):
    rng = np.random.default_rng(seed)
    log_dets = _GramLogDets(m_t, m_r, 640)
    for n in batches:  # two batches through one kernel, so its scratch buffers are reused
        z = rng.standard_normal((n, m_t, m_r, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            got = log_dets(z, b)
            want = gram_log_dets_full(z if n > 1 else np.concatenate((z, z)), b)[:n]
        assert np.array_equal(got, want, equal_nan=True)


def test_gram_log_det_of_a_matrix_is_the_same_in_any_batch():
    z = np.random.default_rng(30).standard_normal((64, 8, 8, 2))
    log_dets = _GramLogDets(8, 8, 64)
    batch = log_dets(z, 1e3).copy()
    assert all(log_dets(z[i : i + 1], 1e3)[0] == batch[i] for i in range(64))
    assert all(log_dets(z[i : i + 2], 1e3)[0] == batch[i] for i in range(63))


def test_sim_twoway_deterministic():
    cfg = TwoWayConfig(193.0, 97.0, CH)
    a = sim_twoway(cfg, 132, 71, trials=50_000, seed=42)
    b = sim_twoway(cfg, 132, 71, trials=50_000, seed=42)
    assert a == b


def test_sim_twoway_block_invariance():
    # the first trials of a longer run reuse the exact same randomness: every
    # run counts a prefix of one outcome sequence, on and off the block grid
    cfg = TwoWayConfig(193.0, 97.0, CH)
    ok = twoway_outcomes(cfg, 132, 71, 200_000, 7)
    for trials in (MIN_TRIALS, 100_000, 2 * _BLOCK + 5, 200_000):
        rep = sim_twoway(cfg, 132, 71, trials=trials, seed=7)
        assert rep.estimate == np.count_nonzero(ok[:trials]) / trials


def test_sim_twoway_matches_analytic():
    cfg = TwoWayConfig(193.0, 97.0, CH)
    truth = twoway_reliability(cfg, 132, 71)
    for seed in (0, 1):
        rep = sim_twoway(cfg, 132, 71, trials=100_000, seed=seed)
        assert abs(rep.estimate - truth) <= 3.0 * rep.std_error
        assert rep.trials == 100_000
        assert rep.seed == seed
        assert rep.metric_name == "exchange_reliability"


# eps_star exactly 0, where a decoding word's raw bound is 0 (two-way) or
# 2**64 (ALOHA), past uint64, and exactly 1, where it is the other one
CERTAIN = [(1.0, 2000.0), (5000.0, 100.0)]


@pytest.mark.parametrize("k, n", CERTAIN)
@pytest.mark.parametrize("devices, slots", [(1, 1), (3, 2), (10, 6)])
def test_sim_aloha_follows_full_block_layout_at_certain_decoding(k, n, devices, slots):
    assert eps_star(CH, CodeSpec(k, n)) in (0.0, 1.0)
    cfg = AlohaConfig(devices, k, n * slots, CH, K=slots)
    trials = _BLOCK + 4321
    s = aloha_successes(cfg, trials, 11)
    rep = sim_aloha(cfg, trials, 11).per_device_success
    assert rep.estimate == int(s.sum()) / trials / devices


LEGS = CERTAIN + [(193.0, 115.0)]  # the last leg fails with probability 0.196


@pytest.mark.parametrize("leg1, leg2", [(a, b) for a in LEGS for b in LEGS if CERTAIN.count(a) + CERTAIN.count(b)])
def test_sim_twoway_follows_full_block_layout_at_certain_decoding(leg1, leg2):
    (k1, n1), (k2, n2) = leg1, leg2
    cfg = TwoWayConfig(k1, k2, CH)
    trials = _BLOCK + 4321
    ok = twoway_outcomes(cfg, int(n1), int(n2), trials, 11)
    assert sim_twoway(cfg, int(n1), int(n2), trials, 11).estimate == np.count_nonzero(ok) / trials


def test_sim_twoway_degenerate_certain_success():
    cfg = TwoWayConfig(1.0, 1.0, CH)
    rep = sim_twoway(cfg, 10_000, 10_000, trials=MIN_TRIALS, seed=0)
    assert rep.estimate == 1.0
    assert rep.std_error == 0.0


def test_sim_twoway_degenerate_certain_failure():
    cfg = TwoWayConfig(193.0, 97.0, CH)
    rep = sim_twoway(cfg, 1, 71, trials=MIN_TRIALS, seed=0)
    assert rep.estimate == 0.0
    assert rep.std_error == 0.0


def test_sim_twoway_config_echo():
    cfg = TwoWayConfig(193.0, 97.0, CH)
    rep = sim_twoway(cfg, 132, 71, trials=MIN_TRIALS, seed=3)
    assert rep.config["n1"] == 132
    assert rep.config["n2"] == 71
    assert rep.config["snr"] == 10.0


def test_sim_aloha_deterministic():
    cfg = AlohaConfig(10, 192.0, 800.0, CH, K=6)
    a = sim_aloha(cfg, trials=50_000, seed=9)
    b = sim_aloha(cfg, trials=50_000, seed=9)
    assert isinstance(a, AlohaSimReports)
    assert a == b


def test_sim_aloha_seeds_differ():
    cfg = AlohaConfig(10, 192.0, 800.0, CH, K=6)
    a = sim_aloha(cfg, trials=50_000, seed=0)
    b = sim_aloha(cfg, trials=50_000, seed=1)
    assert a.per_slot_throughput.estimate != b.per_slot_throughput.estimate


def test_sim_aloha_per_slot_per_device_identity():
    # both reports count the same successes, normalized by K and by M
    cfg = AlohaConfig(10, 192.0, 800.0, CH, K=6)
    rep = sim_aloha(cfg, trials=50_000, seed=5)
    s = rep.per_slot_throughput
    d = rep.per_device_success
    assert s.estimate * 6 == pytest.approx(d.estimate * 10, rel=1e-12)
    assert s.std_error * 6 == pytest.approx(d.std_error * 10, rel=1e-12)
    assert s.trials == d.trials == 50_000


def test_sim_aloha_matches_analytic_at_integer_slots():
    # the analytic value is a per-slot quantity; the simulator floors the
    # slot length, so evaluate the formula at that same integer length
    ch = CH
    cfg = AlohaConfig(10, 192.0, 800.0, ch, K=6)
    floored = AlohaConfig(10, 192.0, float(6 * (800 // 6)), ch, K=6)
    truth = aloha_success(floored)
    for seed in (0, 1):
        rep = sim_aloha(cfg, trials=200_000, seed=seed).per_slot_throughput
        assert abs(rep.estimate - truth) <= 3.0 * rep.std_error


def test_sim_aloha_single_device_is_bernoulli_decode():
    # M=1, K=1: no contention, success iff the decoder succeeds
    cfg = AlohaConfig(1, 100.0, 60.0, CH, K=1)
    truth = 1.0 - eps_star(CH, CodeSpec(100.0, 60.0))
    rep = sim_aloha(cfg, trials=200_000, seed=0).per_device_success
    assert 0.05 < truth < 0.95
    assert abs(rep.estimate - truth) <= 3.0 * rep.std_error


def test_sim_aloha_two_devices_two_slots():
    # trivially decodable payload: success probability is pure collision
    # avoidance, (1 - 1/K)^(M-1) = 1/2
    cfg = AlohaConfig(2, 1.0, 2000.0, CH, K=2)
    rep = sim_aloha(cfg, trials=200_000, seed=0).per_device_success
    assert abs(rep.estimate - 0.5) <= 3.0 * rep.std_error


def test_sim_aloha_collision_term():
    # per-device success with a trivially decodable payload is pure
    # collision avoidance, (1 - 1/K)^(M-1)
    cfg = AlohaConfig(7, 1.0, 7000.0, CH, K=5)
    truth = (1.0 - 1.0 / 5.0) ** 6
    rep = sim_aloha(cfg, trials=200_000, seed=2).per_device_success
    assert abs(rep.estimate - truth) <= 3.0 * rep.std_error


def test_sim_aloha_undecodable_payload():
    # payload far beyond the slot's capacity: nothing ever gets through
    cfg = AlohaConfig(4, 5000.0, 100.0, CH, K=4)
    rep = sim_aloha(cfg, trials=MIN_TRIALS, seed=0)
    assert rep.per_device_success.estimate == 0.0
    assert rep.per_slot_throughput.std_error == 0.0


LINKS = {"snr_db": st.floats(0.0, 20.0), "conv": st.sampled_from(list(Convention))}
# a payload is a share of what its packet's uses carry at capacity, so the
# error probabilities spread over (0, 1) rather than sit at 0 or 1
LOAD = st.floats(0.3, 1.0)


@given(**LINKS, M=st.integers(1, 20), K=st.integers(1, 20), slot=st.integers(10, 300),
       load=LOAD, trials=st.integers(MIN_TRIALS, 2**16), seed=SEEDS)
def test_sim_aloha_agrees_with_analytic(snr_db, conv, M, K, slot, load, trials, seed):
    # the frame is K whole slots, so floor(n/K) and n/K are the same slot;
    # sigma is the exact standard error of the mean success count per slot
    ch = Channel(10.0 ** (snr_db / 10.0), conv)
    cfg = AlohaConfig(M, load * slot * capacity(ch), float(K * slot), ch, K=K)
    p = 1.0 - eps_star(ch, CodeSpec(cfg.D, float(slot)))
    alone = (1.0 - 1.0 / K) ** (M - 1) * p  # one device's success
    both = (1.0 - 1.0 / K) * (1.0 - 2.0 / K) ** max(M - 2, 0) * p * p  # two devices' joint success
    var = M * alone * (1.0 - alone) + M * (M - 1) * (both - alone * alone)
    rep = sim_aloha(cfg, trials, seed).per_slot_throughput
    assert abs(rep.estimate - aloha_success(cfg)) <= 5.0 * math.sqrt(max(var, 0.0) / trials) / K


@given(**LINKS, n1=st.integers(10, 500), n2=st.integers(10, 500), load1=LOAD, load2=LOAD,
       trials=st.integers(MIN_TRIALS, 2**16), seed=SEEDS)
def test_sim_twoway_agrees_with_analytic(snr_db, conv, n1, n2, load1, load2, trials, seed):
    ch = Channel(10.0 ** (snr_db / 10.0), conv)
    cfg = TwoWayConfig(load1 * n1 * capacity(ch), load2 * n2 * capacity(ch), ch)
    truth = twoway_reliability(cfg, n1, n2)
    rep = sim_twoway(cfg, n1, n2, trials, seed)
    assert abs(rep.estimate - truth) <= 5.0 * math.sqrt(truth * (1.0 - truth) / trials)


def test_sim_aloha_config_echo():
    cfg = AlohaConfig(10, 192.0, 800.0, CH, K=6)
    rep = sim_aloha(cfg, trials=MIN_TRIALS, seed=11)
    for r in (rep.per_slot_throughput, rep.per_device_success):
        assert r.config["devices"] == 10
        assert r.config["slots"] == 6
        assert r.config["slot_length"] == 133
        assert r.seed == 11
    assert rep.per_slot_throughput.metric_name == "per_slot_throughput"
    assert rep.per_device_success.metric_name == "per_device_success"


# reports captured from the (trials, M, K) comparison-tensor occupancy count
# that the flat count replaced: (per-slot estimate, std error, per-device
# estimate, std error) for two configurations and two seeds each
ALOHA_GOLDEN = {
    (10, 0): (0.3224266666666667, 0.0005547243270026719, 0.19345600000000002, 0.0003328345962016032),
    (10, 1): (0.3240633333333333, 0.000553397948178746, 0.194438, 0.0003320387689072476),
    (100, 0): (0.3134409586588542, 0.0004400563499896286, 0.1880645751953125, 0.0002640338099937772),
    (100, 1): (0.3135325113932292, 0.0004393436213097958, 0.1881195068359375, 0.00026360617278587745),
}
ALOHA_SHAPES = {
    10: (AlohaConfig(10, 192.0, 800.0, CH, K=6), 100_000),
    100: (AlohaConfig(100, 192.0, 7500.0, CH, K=60), 1 << 14),
}


@pytest.mark.parametrize("devices, seed", sorted(ALOHA_GOLDEN))
def test_sim_aloha_reports_pinned(devices, seed):
    cfg, trials = ALOHA_SHAPES[devices]
    rep = sim_aloha(cfg, trials, seed)
    s, d = rep.per_slot_throughput, rep.per_device_success
    assert (s.estimate, s.std_error, d.estimate, d.std_error) == ALOHA_GOLDEN[devices, seed]


# (estimate, std error) captured while every block was still drawn whole;
# the trial counts fall off both the block grid and the chunk grid
TWOWAY_GOLDEN = {
    0: (0.7656167743095235, 0.0015179351711617222),
    1: (0.7661046981933977, 0.0015168374839751588),
}
# keyed by (m_t, m_r, l, seed) at snr 10; the rectangular links and 8x8 were
# captured from the full-Gram kernel, before the Gram was packed
MIMO_GOLDEN = {
    (1, 1, 1, 0): (0.0955655264844706, 0.002244232702417179),
    (1, 1, 1, 1): (0.09463317988462211, 0.0022344091870598504),
    (4, 4, 4, 0): (0.06806130178894004, 0.0019225272447490399),
    (4, 4, 4, 1): (0.06730377017656314, 0.001912575161964913),
    (2, 4, 1, 0): (0.16048015849892197, 0.0028019143732780746),
    (2, 4, 1, 1): (0.15989744187401667, 0.0027977932353399756),
    (4, 2, 2, 0): (0.12889691742905426, 0.0025579069698355083),
    (4, 2, 2, 1): (0.12639123594196142, 0.0025365631317509157),
    (1, 8, 1, 0): (0.2958452304644251, 0.003484135631678063),
    (1, 8, 1, 1): (0.2987588135889517, 0.00349399899180231),
    (8, 8, 2, 0): (0.18174931530796573, 0.002943799890181048),
    (8, 8, 2, 1): (0.17871918885845814, 0.002924557298764241),
}
MIMO_RATES = {(1, 1, 1): 1.0, (4, 4, 4): 10.0, (2, 4, 1): 7.0, (4, 2, 2): 5.5, (1, 8, 1): 6.0,
              (8, 8, 2): 21.0}


@pytest.mark.parametrize("seed", sorted(TWOWAY_GOLDEN))
def test_sim_twoway_reports_pinned(seed):
    rep = sim_twoway(TwoWayConfig(193.0, 97.0, CH), 115, 62, _BLOCK + 12_345, seed)
    assert (rep.estimate, rep.std_error) == TWOWAY_GOLDEN[seed]


# The goldens rebuilt from Philox.random_raw words alone, so a report
# depends on the raw stream, which NumPy keeps stable (NEP 19), and on no
# Generator method.  integers(0, K) for K < 2**32 is Lemire's method on the
# words' 32-bit halves, low half first: half h is rejected when
# (h*K) mod 2**32 < 2**32 mod K and otherwise gives (h*K) >> 32; random()
# is (raw >> 11) * 2**-53 and starts at the whole word after the last half.

def _raw_block(seed, b, words):
    return np.random.Philox(key=np.array([seed, b], dtype=np.uint64)).random_raw(words)


def _raw_aloha_counts(cfg, seed, b, kept):
    draws = _BLOCK * cfg.M
    raw = _raw_block(seed, b, draws // 2 + 1024 + draws)  # room for 2048 rejections
    halves = raw[: draws // 2 + 1024].view("<u4").astype(np.uint64)
    product = halves * np.uint64(cfg.K)
    accepted = np.flatnonzero(product % (1 << 32) >= (1 << 32) % cfg.K)[:draws]
    slots = (product[accepted] >> np.uint64(32)).astype(np.int64).reshape(_BLOCK, cfg.M)[:kept]
    start = (int(accepted[-1]) + 2) // 2  # the whole word after the last half read
    u = (raw[start : start + kept * cfg.M] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    p = 1.0 - eps_star(cfg.ch, CodeSpec(cfg.D, float(cfg.n // cfg.K)))
    cells = slots + cfg.K * np.arange(kept)[:, None]
    alone = np.bincount(cells.ravel())[cells] == 1
    return (alone & (u.reshape(kept, cfg.M) < p)).sum(axis=1)


def test_aloha_golden_rebuilt_from_raw_words():
    cfg, trials = ALOHA_SHAPES[10]
    s = np.concatenate([_raw_aloha_counts(cfg, 0, b, min(_BLOCK, trials - b * _BLOCK))
                        for b in range(-(-trials // _BLOCK))])
    sum_s, sum_s2 = int(s.sum()), int((s * s).sum())
    sd = math.sqrt(max((sum_s2 - sum_s * sum_s / trials) / (trials - 1), 0.0))
    per_slot = (sum_s / trials / cfg.K, sd / (cfg.K * math.sqrt(trials)))
    per_device = (sum_s / trials / cfg.M, sd / (cfg.M * math.sqrt(trials)))
    assert per_slot + per_device == ALOHA_GOLDEN[10, 0]


def test_twoway_golden_rebuilt_from_raw_words():
    cfg, trials = TwoWayConfig(193.0, 97.0, CH), _BLOCK + 12_345
    e1, e2 = eps_star(CH, CodeSpec(cfg.k1, 115)), eps_star(CH, CodeSpec(cfg.k2, 62))
    ok = 0
    for b in range(2):
        kept = min(_BLOCK, trials - b * _BLOCK)
        u = (_raw_block(0, b, 2 * kept) >> np.uint64(11)).astype(np.float64).reshape(kept, 2) * 2.0**-53
        ok += int(np.count_nonzero((u[:, 0] >= e1) & (u[:, 1] >= e2)))
    p = ok / trials
    assert (p, math.sqrt(p * (1.0 - p) / trials)) == TWOWAY_GOLDEN[0]


class _NoMethodGenerator(np.random.Generator):
    """A Generator whose bounded-integer and uniform methods refuse to run."""

    def integers(self, *args, **kwargs):
        raise AssertionError("Generator.integers called")

    def random(self, *args, **kwargs):
        raise AssertionError("Generator.random called")


# the packet simulators read raw words only, so no report depends on a
# Generator method's algorithm, which NEP 19 does not keep stable: at every
# K sim_aloha takes, on the guessed-start, walk-first and sorted-row paths
@pytest.mark.parametrize("cfg", [
    AlohaConfig(10, 192.0, 800.0, CH, K=1),
    ALOHA_SHAPES[10][0],
    ALOHA_SHAPES[100][0],
    AlohaConfig(3, 104.0, 60.0 * (3 << 30), CH, K=3 << 30),
    AlohaConfig(3, 104.0, 60.0 * ((1 << 32) - 1), CH, K=(1 << 32) - 1),
    AlohaConfig(200, 104.0, 60_000.0, CH, K=1000),
    AlohaConfig(30, 104.0, 60.0 * 30_000, CH, K=30_000),
], ids=lambda cfg: f"M{cfg.M}-K{cfg.K}")
def test_sim_aloha_calls_no_generator_method(cfg, monkeypatch):
    want = sim_aloha(cfg, MIN_TRIALS, 5)
    monkeypatch.setattr(np.random, "Generator", _NoMethodGenerator)
    assert sim_aloha(cfg, MIN_TRIALS, 5) == want


def test_sim_twoway_calls_no_generator_method(monkeypatch):
    cfg = TwoWayConfig(193.0, 97.0, CH)
    want = sim_twoway(cfg, 115, 62, _BLOCK + 12_345, 0)
    monkeypatch.setattr(np.random, "Generator", _NoMethodGenerator)
    assert sim_twoway(cfg, 115, 62, _BLOCK + 12_345, 0) == want


@pytest.mark.parametrize("m_t, m_r, l, seed", sorted(MIMO_GOLDEN))
def test_mimo_mc_reports_pinned(m_t, m_r, l, seed):
    cfg = QuasiStaticConfig(10.0, m_t, m_r)
    rep = outage_prob_mimo_mc(cfg, l, MIMO_RATES[m_t, m_r, l], 2 * _MIMO_BLOCK + 777, seed)
    assert (rep.estimate, rep.std_error) == MIMO_GOLDEN[m_t, m_r, l, seed]


def test_mimo_mc_refuses_snr_past_the_range():
    # b*Z^H Z overflowed at snr 1e308, where an outage past 1024 bits was
    # undecidable; such an snr is refused.  At the top of the range, 2**52,
    # every log-det is finite (an overflow warning is an error under the
    # test filter): a 2x2 link carries about 104 bits, so every trial is an
    # outage at 2000 bits and none at 50
    for snr in (1e308, 1e300, math.nextafter(2.0**52, math.inf)):
        with pytest.raises(ValueError, match="^snr must be"):
            QuasiStaticConfig(snr, 2, 2)
    cfg = QuasiStaticConfig(2.0**52, 2, 2)
    assert outage_prob_mimo_mc(cfg, 1, 2000.0, MIN_TRIALS).estimate == 1.0
    assert outage_prob_mimo_mc(cfg, 1, 50.0, MIN_TRIALS).estimate == 0.0


# every simulator call reads its blocks in chunks of about 2**16 draws, so
# its peak stays near 2.5 MB whatever the trials, devices, slots or antennas
MEMORY_BOUND = 16e6


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sim_aloha_memory_does_not_grow_with_m_times_k():
    # drawing each (65536, M) block whole took the peak to 139 MB here, and
    # counting occupancy through a (trials, M, K) tensor past 200 MB
    cfg, trials = ALOHA_SHAPES[100]
    assert _peak_bytes(lambda: sim_aloha(cfg, trials, 0)) < MEMORY_BOUND


@pytest.mark.parametrize("run", [
    lambda: sim_aloha(AlohaConfig(1000, 192.0, 60_000.0, CH, K=600), MIN_TRIALS, 0),
    lambda: sim_aloha(AlohaConfig(10, 192.0, 2e6, CH, K=10_000), MIN_TRIALS, 0),
    # a count table over all 2**22 slots took the peak to 34 MB
    lambda: sim_aloha(AlohaConfig(3, 1.0, 2.0**22, CH, K=1 << 22), MIN_TRIALS, 0),
    lambda: outage_prob_mimo_mc(QuasiStaticConfig(10.0, 4, 4), 4, 10.0, 1 << 14, 0),
    lambda: outage_prob_mimo_mc(QuasiStaticConfig(10.0, 1, 8), 1, 3.0, 1 << 14, 0),
    # chunk rows sized by m_t * m_r alone left an m_r x m_r Gram per row: 36 MB
    lambda: outage_prob_mimo_mc(QuasiStaticConfig(10.0, 1, 32), 1, 3.0, MIN_TRIALS, 0),
], ids=["aloha-1000x600", "aloha-10x10000", "aloha-3x4194304", "mimo-4x4-l4", "mimo-1x8", "mimo-1x32"])
def test_simulator_memory_is_chunk_sized(run):
    assert _peak_bytes(run) < MEMORY_BOUND


def test_trial_floor_enforced():
    cfg = TwoWayConfig(193.0, 97.0, CH)
    with pytest.raises(SimConfigError):
        sim_twoway(cfg, 132, 71, trials=MIN_TRIALS - 1, seed=0)
    with pytest.raises(SimConfigError):
        sim_aloha(AlohaConfig(10, 192.0, 800.0, CH, K=6), trials=100, seed=0)


def test_sim_config_error_is_value_error():
    assert issubclass(SimConfigError, ValueError)


def test_seed_validation():
    cfg = TwoWayConfig(193.0, 97.0, CH)
    with pytest.raises(ValueError):
        sim_twoway(cfg, 132, 71, trials=MIN_TRIALS, seed=-1)
    with pytest.raises(ValueError):
        sim_twoway(cfg, 132, 71, trials=MIN_TRIALS, seed=2**64)
    with pytest.raises(ValueError):
        sim_twoway(cfg, 132, 71, trials=MIN_TRIALS, seed=True)
    rep = sim_twoway(cfg, 132, 71, trials=MIN_TRIALS, seed=2**64 - 1)
    assert rep.seed == 2**64 - 1


def test_sim_aloha_requires_slot_assignment():
    with pytest.raises(ValueError):
        sim_aloha(AlohaConfig(10, 192.0, 800.0, CH), trials=MIN_TRIALS, seed=0)
    with pytest.raises(ValueError):
        # floor(n/K) = 0: no room to transmit anything
        sim_aloha(AlohaConfig(10, 192.0, 5.0, CH, K=6), trials=MIN_TRIALS, seed=0)
