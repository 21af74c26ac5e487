"""Seeded Monte-Carlo estimators that cross-check the closed forms: the
ALOHA and two-way packet simulators, which abstract decoding as a Bernoulli
failure with the packet's finite-blocklength error probability and so test
the protocol combinatorics (collisions, split blocklengths, request/response
coupling) on their own, and the MIMO outage estimator.

Determinism contract: identical (config, seed, trials) give bit-identical
reports.  Trials are split into fixed-width blocks, and block b draws from a
Philox generator keyed by (seed, b) in the estimator's full-block draw
layout, so trial i depends only on the seed, i and that layout -- never on
execution order, parallelism or the trial count.  Philox fills arrays in
stream order, so a kernel reads a block in chunks of about _CHUNK draws with
the same values: it never makes draws past the last one it keeps, and memory
stays O(_CHUNK) whatever the trials or width.  Philox is counter-based, so
a second cursor with the block's key can jump to any word with advance():
sim_aloha starts its uniforms at the word where they begin if no slot
choice is rejected, checks that start by walking the block's unread slot
choices, and reads the block again from the walked cursor on a miss.
Counts accumulate as exact integers, so aggregation is order-independent
too.

Draws read as raw words: the ALOHA slot choices, through _Integers
(Generator.integers(0, K) by Lemire's method on 32-bit halves), and the
ALOHA and two-way uniforms, compared as integers (random() is
(raw >> 11) * 2**-53).  NumPy keeps the raw stream stable across versions
(NEP 19), not the Generator methods' algorithms; only the MIMO normals
still go through one (standard_normal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator

from ._check import SimConfigError, integer, linear_snr, real
from .awgn import CodeSpec, eps_star
from .protocols import AlohaConfig, TwoWayConfig

__all__ = [
    "SimConfigError",
    "SimReport",
    "AlohaSimReports",
    "MIN_TRIALS",
    "QuasiStaticConfig",
    "sim_aloha",
    "sim_twoway",
    "outage_prob_mimo_mc",
]

# below this the normal-theory standard error is not a trustworthy summary
MIN_TRIALS = 10_000

_CHUNK = 1 << 16  # draws per chunk when a kernel reads a block
_BLOCK = 1 << 16
_MIMO_BLOCK = 1 << 13
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SimReport:
    """One Monte-Carlo estimate with its provenance.

    config echoes the inputs that produced the estimate so a report is
    self-describing; std_error is the normal-theory standard error of the
    estimate.
    """

    metric_name: str
    estimate: float
    std_error: float
    trials: int
    seed: int
    config: dict[str, Any]


def _binomial_report(
    metric_name: str, count: int, trials: int, seed: int, config: dict[str, Any]
) -> SimReport:
    """The fraction of trials counted, with its binomial standard error."""
    p = count / trials
    return SimReport(metric_name, p, math.sqrt(p * (1.0 - p) / trials), trials, seed, config)


def _check_trials(trials: int) -> int:
    return integer("trials", trials, ge=MIN_TRIALS, error=SimConfigError)


def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed and return it as a plain int."""
    return integer("seed", seed, ge=0, le=2**64 - 1)


def trial_blocks(seed: int, trials: int, block: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (kept, key) for the keyed blocks covering range(trials): block b
    keeps `kept` of its trials and is read by Philox cursors keyed by (seed, b).

    Callers draw in their full-block layout, in _chunks, up to the last draw
    they keep.  A caller may read one block through several cursors: a second
    Philox with the same key, moved by advance(), reads the same words
    further on (sim_aloha starts its uniforms that way and then checks the
    start).  Callers pass a seed from check_seed and at least one trial and block.
    """
    import numpy as np
    for b in range((trials + block - 1) // block):
        yield min(block, trials - b * block), np.array([seed, b], dtype=np.uint64)


def _chunks(rows: int, width: int) -> Iterator[int]:
    """Row counts that sum to rows: _CHUNK // width each (at least one), then the rest."""
    step = max(1, _CHUNK // width)
    for lo in range(0, rows, step):
        yield min(step, rows - lo)


class _Integers:
    """The values of successive Generator.integers(0, K) calls, 1 <= K < 2**32,
    on a bit generator's stream, read from its raw 64-bit words.

    For K > 1 numpy applies Lemire's method to the words' 32-bit halves, low
    half first: half h gives (h*K) >> 32, unless (h*K) mod 2**32 is below
    2**32 mod K, when it is rejected and the next half is tried.  A call
    that ends on a low half leaves the high half pending for the next call,
    and Generator.random() starts at the next whole word.  K = 1 draws
    nothing.  `words` counts the raw words taken.  A reader that has walked a
    whole block's slot choices leaves its bit generator where the block's
    uniforms begin, which is how sim_aloha checks a guessed start (by
    `words`) and finds the true one on a miss.
    """

    def __init__(self, bit_generator: np.random.BitGenerator, K: int) -> None:
        import numpy as np
        self._bits = bit_generator
        self._K = K
        self.words = 0
        self._threshold = np.uint32((1 << 32) % K)
        self._no_half = np.empty(0, dtype=np.uint32)
        self._pending = self._no_half  # at most one half

    def skip(self, count: int) -> None:
        """Consume the next `count` draws without keeping them."""
        if self._K > 1:
            for _ in self._accepted(count):
                pass

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Write the next out.size draws into the contiguous int64 array out."""
        import numpy as np
        if self._K == 1:
            out.fill(0)
        else:
            flat = out.reshape(-1).view(np.uint64)
            pos = 0
            for halves in self._accepted(flat.size):
                dst = flat[pos : pos + halves.size]
                np.multiply(halves, self._K, out=dst, dtype=np.uint64)
                dst >>= np.uint64(32)
                pos += halves.size
        return out

    def _accepted(self, count: int) -> Iterator[np.ndarray]:
        """The accepted halves of the next `count` draws, _CHUNK or fewer at a time."""
        import numpy as np
        while count > 0:
            need = min(count, _CHUNK)
            words = self._bits.random_raw((need - self._pending.size + 1) // 2)
            self.words += words.size
            halves = np.asarray(words, dtype="<u8").view("<u4")
            if self._pending.size:
                halves = np.concatenate((self._pending, halves))
                self._pending = self._no_half
            rejected = halves * np.uint32(self._K) < self._threshold
            if rejected.any():
                halves = halves[~rejected]
            if halves.size > count:  # no rejection, and the call ends on a low half
                self._pending = halves[-1:].copy()
                halves = halves[:count]
            count -= halves.size
            yield halves


def _unrejected_words(K: int, count: int) -> int | None:
    """The raw words that `count` integers(0, K) draws take from a fresh
    stream when none is rejected, or None when a rejection is too likely
    for a guessed start to pay.

    A draw takes a 32-bit half, rejected with probability (2**32 mod K) /
    2**32, so `count` draws expect (2**32 mod K) * count / 2**32
    rejections.  A hit saves walking the kept slot choices and a miss reads
    the kept frames again, so guessing pays while the miss probability,
    1 - e**-x at x expected rejections, stays below the time of that walk
    over the time of a read.  Timed on full blocks at M from 3 to 1000 and
    K from 6 to 2**31 + 1, that ratio was 0.075-0.27 (0.003 at M=30,
    K=30000, where x is 7.9, when a chunk held two frames there), so the
    guess is taken up to x = 1/16.
    """
    if K == 1:
        return 0
    if (1 << 32) % K * count > 1 << 28:
        return None
    return -(-count // 2)


@dataclass(frozen=True)
class AlohaSimReports:
    """The two metrics of one ALOHA run, from the same trials: expected
    successes per slot, and per-device delivery probability.  They satisfy
    per_slot.estimate * K == per_device.estimate * M."""

    per_slot_throughput: SimReport
    per_device_success: SimReport


def sim_aloha(cfg: AlohaConfig, trials: int, seed: int = 0) -> AlohaSimReports:
    """Simulate framed slotted ALOHA for `trials` frames.

    Each frame: every one of the M devices picks one of the K slots
    uniformly; a packet alone in its slot decodes with probability
    1 - eps*(D, floor(n/K)) (collided packets are always lost).

    Draw layout per block: (_BLOCK, M) slot choices from integers(0, K),
    then (_BLOCK, M) decoding uniforms from random().  The slot choices'
    rejection sampler makes the uniforms' start data-dependent, so two
    cursors read the block's keyed stream, in chunks:
    - Guessed start, where a block expects at most 1/16 of a rejection
      (_unrejected_words): a second Philox with the block's key jumps by
      advance() to the word where the uniforms begin if no slot choice is
      rejected.  The block generator reads the kept frames' slot choices
      through _Integers next to those uniforms, once, and then walks only
      the block's unread rest.  If it ends on the guessed word, the block's
      sums stand.
    - Miss, or no guess (heavy rejection): the block generator has walked
      every slot choice to where the uniforms begin, and the block is read
      again with it as the uniform cursor and a fresh Philox reading the
      slot choices.
    A decoding draw u = (raw >> 11) * 2**-53 is below p exactly when
    raw >> 11 is below ceil(p * 2**53), that is when raw is below
    ceil(p * 2**53) * 2**11, so the uniforms are compared as raw words in
    one pass; at p = 1 that bound is 2**64, every word decodes and none is
    read.  K must be below 2**32, so the slot choices come from raw words too.
    """
    import numpy as np
    integer("K", cfg.K, ge=1, le=2**32 - 1)
    trials = _check_trials(trials)
    seed = check_seed(seed)
    n_slot = int(cfg.n // cfg.K)
    if n_slot < 1:
        raise ValueError(f"slot length floor(n/K) must be >= 1, got {n_slot}")
    p_decode = 1.0 - eps_star(cfg.ch, CodeSpec(cfg.D, float(n_slot)))
    bound = math.ceil(p_decode * 2.0**53) << 11  # 0 at p_decode = 0, where no word is below it
    decodes_below = np.uint64(bound) if bound < 1 << 64 else None

    # up to K = min(64 M, 2**16), rows are sized by max(M, K), so the count
    # over (frame, slot) cells is chunk-sized too; past that rows are sized
    # by M and each row's slots are sorted instead, so a chunk holds
    # 2**16 / M frames however many slots (past 64 M sorting was no slower
    # at every shape timed; below it counting was faster at M=3, K=100 and
    # M=1000, K=10000).  The chunk-sized arrays are reused buffers or die
    # within their statement: fresh ones that outlive it made the allocator
    # return memory to the system and fault it back in
    sorted_rows = cfg.K > min(64 * cfg.M, _CHUNK)
    width = cfg.M if sorted_rows else max(cfg.M, cfg.K)
    size = next(_chunks(min(trials, _BLOCK), width))
    slot_buf = np.empty((size, cfg.M), dtype=np.int64)
    alone_buf = np.empty((size, cfg.M), dtype=bool)
    row_offset = None if sorted_rows else cfg.K * np.arange(size)[:, None]
    ones = np.ones(cfg.M)

    def read(slots: _Integers, uniforms: np.random.BitGenerator, kept: int) -> tuple[int, int]:
        """Sums of the success count s and of s**2 over a block's first
        `kept` frames: slot choices from `slots`, decoding words from `uniforms`."""
        sum_s = sum_s2 = 0
        for rows in _chunks(kept, width):
            slot = slots.fill(slot_buf[:rows])
            alone = alone_buf[:rows]
            if sorted_rows:  # a device is alone when its sorted neighbours differ
                order = np.argsort(slot, axis=1)
                ranked = np.take_along_axis(slot, order, axis=1)
                lone = np.ones(slot.shape, dtype=bool)
                same = ranked[:, 1:] == ranked[:, :-1]
                lone[:, 1:] &= ~same
                lone[:, :-1] &= ~same
                np.put_along_axis(alone, order, lone, axis=1)
            else:
                slot += row_offset[:rows]
                np.take(np.bincount(slot.ravel()) == 1, slot, out=alone)
            if decodes_below is not None:
                alone &= (uniforms.random_raw(rows * cfg.M) < decodes_below).reshape(rows, cfg.M)
            s = alone @ ones  # exact: counts below 2**53
            sum_s += int(s.sum())
            sum_s2 += int(s @ s)
        return sum_s, sum_s2

    guess = _unrejected_words(cfg.K, _BLOCK * cfg.M)
    sum_s = sum_s2 = 0
    for kept, key in trial_blocks(seed, trials, _BLOCK):
        bits = np.random.Philox(key=key)
        walked = _Integers(bits, cfg.K)
        if guess is None:
            walked.skip(_BLOCK * cfg.M)
        else:
            uniforms = np.random.Philox(key=key)
            uniforms.advance(guess // 4)
            uniforms.random_raw(guess % 4)
            sums = read(walked, uniforms, kept)
            walked.skip((_BLOCK - kept) * cfg.M)
        if guess is None or walked.words != guess:
            sums = read(_Integers(np.random.Philox(key=key), cfg.K), bits, kept)
        sum_s += sums[0]
        sum_s2 += sums[1]

    mean_s = sum_s / trials
    sd_s = math.sqrt(max((sum_s2 - sum_s * sum_s / trials) / (trials - 1), 0.0))
    config = {
        "devices": cfg.M,
        "bits_per_packet": cfg.D,
        "frame_length": cfg.n,
        "slots": cfg.K,
        "slot_length": n_slot,
        "snr": cfg.ch.snr,
        "convention": cfg.ch.convention.value,
    }

    def report(metric_name: str, scale: int) -> SimReport:
        """Successes per frame divided by scale (K per slot, M per device)."""
        return SimReport(metric_name, mean_s / scale, sd_s / (scale * math.sqrt(trials)), trials, seed, config)

    return AlohaSimReports(report("per_slot_throughput", cfg.K), report("per_device_success", cfg.M))


def sim_twoway(cfg: TwoWayConfig, n1: int, n2: int, trials: int, seed: int = 0) -> SimReport:
    """Simulate the two-way exchange at a fixed split (n1, n2).

    Each trial draws two uniforms; leg i fails when its uniform falls below
    eps*(ki, ni), and the exchange succeeds only if both legs decode.  The
    uniforms are read as the block generator's raw words: random() gives
    u = (raw >> 11) * 2**-53, so u >= e exactly when raw >> 11 is at least
    ceil(e * 2**53), that is when raw is at least ceil(e * 2**53) * 2**11.
    At e = 0 that bound is 0 and every word passes; at e = 1 it is 2**64,
    no exchange succeeds and no word is read.
    """
    import numpy as np
    n1 = integer("n1", n1, ge=1)
    n2 = integer("n2", n2, ge=1)
    trials = _check_trials(trials)
    seed = check_seed(seed)
    e1 = eps_star(cfg.ch, CodeSpec(cfg.k1, n1))
    e2 = eps_star(cfg.ch, CodeSpec(cfg.k2, n2))

    floor1, floor2 = (math.ceil(e * 2.0**53) << 11 for e in (e1, e2))
    successes = 0
    if max(floor1, floor2) < 1 << 64:
        floor1, floor2 = np.uint64(floor1), np.uint64(floor2)
        for kept, key in trial_blocks(seed, trials, _BLOCK):
            bits = np.random.Philox(key=key)
            for rows in _chunks(kept, 2):
                raw = bits.random_raw(2 * rows).reshape(rows, 2)
                successes += int(np.count_nonzero((raw[:, 0] >= floor1) & (raw[:, 1] >= floor2)))

    config = {
        "k1": cfg.k1,
        "k2": cfg.k2,
        "n1": n1,
        "n2": n2,
        "snr": cfg.ch.snr,
        "convention": cfg.ch.convention.value,
    }
    return _binomial_report("exchange_reliability", successes, trials, seed, config)


@dataclass(frozen=True)
class QuasiStaticConfig:
    """A quasi-static MIMO link: one fading realization per codeword."""

    snr: float
    m_t: int = 1
    m_r: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr", linear_snr(self.snr))
        object.__setattr__(self, "m_t", integer("m_t", self.m_t, ge=1))
        object.__setattr__(self, "m_r", integer("m_r", self.m_r, ge=1))


class _GramLogDets:
    """log det(I + b*Z^H Z) for batches of m_t x m_r complex matrices Z, given
    as normals of shape (n, m_t, m_r, 2): the real and imaginary parts.

    The Gram matrix is p x p with p = min(m_t, m_r): when m_t < m_r the
    normals are copied transposed, since det(I + b*Z^H Z) = det(I + b*Z Z^H)
    (Sylvester's identity; that Gram is conj(Z Z^H)) and the m_r x m_r Gram's
    pivots near 1 would come from subtracting entries of size b*|z|^2.  The
    copy moves complex elements into a batch-last (max(m_t, m_r), p, n)
    layout.  Only the Gram's lower triangle is kept, packed by columns: column
    j holds rows j..p-1 at row j*p - j*(j-1)/2.  An unpivoted LDL^H runs over
    it column by column, vectorized across the batch; every eigenvalue is
    >= 1, so no pivot is below 1 and the log-det is the sum of log d_k.  Each
    kept entry gets the complex ufuncs, operands and order of the full
    factorization, so the pivots match it bit for bit.  Real ufuncs could not:
    numpy's SIMD complex multiply may round one product inside the other (FMA),
    but not into a one-element output, so a lone matrix runs as a pair.  Scratch
    arrays are allocated once, for n <= size: per chunk, 4x4 ran a third slower.
    """

    def __init__(self, m_t: int, m_r: int, size: int) -> None:
        import numpy as np
        rows, p, size = max(m_t, m_r), min(m_t, m_r), max(size, 2)
        # the complex normals' axes (batch, m_t, m_r) in the order of z
        self._axes = (1, 2, 0) if m_t >= m_r else (2, 1, 0)
        # z, its conjugate, the packed Gram, a product term, a Schur column; then the pivots
        shapes = [(rows, p), (rows, p), (p * (p + 1) // 2,), (p,), (p,)]
        self._scratch = [np.empty((*s, size), dtype=np.complex128) for s in shapes] + [np.empty((p, size))]

    def __call__(self, normals: np.ndarray, b: float) -> np.ndarray:
        import numpy as np
        n = normals.shape[0]
        z, z_conj, g, term, col, d = (a[..., : max(n, 2)] for a in self._scratch)
        rows, p = z.shape[:2]
        np.copyto(z, normals.view(np.complex128)[..., 0].transpose(self._axes))  # a lone matrix twice
        np.conjugate(z, out=z_conj)
        cols = [g[j * p - j * (j - 1) // 2 : (j + 1) * p - (j + 1) * j // 2] for j in range(p)]
        for j, g_j in enumerate(cols):  # G[j:, j] = b * sum over t of conj(z[t, j:]) z[t, j], plus I
            np.multiply(z_conj[0, j:], z[0, j], out=g_j)
            for t in range(1, rows):
                g_j += np.multiply(z_conj[t, j:], z[t, j], out=term[: p - j])
            g_j *= b
            g_j[0] += 1.0
        for k in range(p - 1):  # Schur complement: G[j:, j] -= G[j:, k] conj(G[j, k]) / d_k for j > k
            d[k] = cols[k][0].real
            np.divide(np.conjugate(cols[k][1:], out=col[: p - 1 - k]), d[k], out=col[: p - 1 - k])
            for j in range(k + 1, p):
                cols[j] -= np.multiply(cols[k][j - k :], col[j - k - 1], out=term[: p - j])
        d[p - 1] = cols[p - 1][0].real
        return np.log(d, out=d).sum(axis=0)[:n]


def outage_prob_mimo_mc(
    cfg: QuasiStaticConfig, l: int, R: float, trials: int, seed: int = 0
) -> SimReport:
    """Monte-Carlo outage probability of an isotropic-input MIMO link:

        Pr[ (1/l) * sum_k log2 det(I + (snr/m_t) H_k^H H_k) <= R ]

    over l independent fading blocks per trial.  Deterministic in
    (cfg, l, R, trials, seed).
    """
    import numpy as np
    l = integer("l", l, ge=1)
    R = real("R", R, ge=0.0)
    trials = _check_trials(trials)
    seed = check_seed(seed)

    # the fading law: i.i.d. unit-variance complex-Gaussian entries (Rayleigh),
    # H = (X + iY)/sqrt(2) for standard normals X, Y, so snr/m_t H^H H = b Z^H Z
    b = 0.5 * cfg.snr / cfg.m_t
    # a chunk's rows are sized by its normals, 2*m_t*m_r floats per matrix, which
    # the p*(p+1)/2 packed Gram rows never exceed, p = min(m_t, m_r); the draws
    # follow one another in the block's stream, so the chunking does not change them
    width = 2 * l * cfg.m_t * cfg.m_r
    log_dets = _GramLogDets(cfg.m_t, cfg.m_r, next(_chunks(min(trials, _MIMO_BLOCK), width)) * l)
    # numpy's normals have |x| <= 13.7, so at snr <= 2**52 a Gram entry is at
    # most 2**51 * 375 * m_r + 1 and a Schur product below 1e36 * m_r**2: every
    # log-det is finite
    count = 0
    for kept, key in trial_blocks(seed, trials, _MIMO_BLOCK):
        rng = np.random.Generator(np.random.Philox(key=key))
        for rows in _chunks(kept, width):
            logdet = log_dets(rng.standard_normal((rows * l, cfg.m_t, cfg.m_r, 2)), b)
            count += int(np.count_nonzero(logdet.reshape(rows, l).mean(axis=1) / _LN2 <= R))

    config = {"snr": cfg.snr, "m_t": cfg.m_t, "m_r": cfg.m_r, "fading_blocks": l, "rate": R}
    return _binomial_report("mimo_outage_probability", count, trials, seed, config)
