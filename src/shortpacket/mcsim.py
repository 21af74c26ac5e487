"""Seeded packet-level Monte-Carlo simulators for the protocol analyses.

Decoding is abstracted as a Bernoulli failure with the finite-blocklength
error probability of the packet, so these simulators validate the protocol
combinatorics (collisions, split blocklengths, request/response coupling)
independently of the closed-form expressions they are checked against.

Determinism contract: identical (config, seed, trials) produce bit-identical
reports, regardless of execution order, because every trial's draws come
from a counter-based stream keyed by the seed and the trial's block index
(see _rand).  Aggregation uses exact integer accumulation, so it is
order-independent too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._check import integer
from ._rand import (
    MIN_TRIALS,
    SimConfigError,
    SimReport,
    _CHUNK,
    _binomial_report,
    _check_trials,
    _chunks,
    _Integers,
    check_seed,
    trial_blocks,
)
from .awgn import CodeSpec, eps_star
from .protocols import AlohaConfig, TwoWayConfig

__all__ = [
    "SimConfigError",
    "SimReport",
    "AlohaSimReports",
    "MIN_TRIALS",
    "sim_aloha",
    "sim_twoway",
]

_BLOCK = 1 << 16


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
    then (_BLOCK, M) decoding uniforms.  The slot choices' rejection sampler
    makes the uniforms' offset data-dependent, so two cursors read the
    block's keyed stream through _Integers: the block generator counts past
    all slot choices to where the uniforms begin, and a fresh Philox with
    the same key reads the kept frames' slot choices next to their
    uniforms; both in chunks.
    """
    import numpy as np
    if cfg.K is None:
        raise ValueError("sim_aloha requires cfg.K to be set")
    trials = _check_trials(trials)
    seed = check_seed(seed)
    n_slot = int(cfg.n // cfg.K)
    if n_slot < 1:
        raise ValueError(f"slot length floor(n/K) must be >= 1, got {n_slot}")
    p_decode = 1.0 - eps_star(cfg.ch, CodeSpec(cfg.D, float(n_slot)))

    # rows sized by max(M, K), so the count over (trial, slot) cells is chunk-sized too;
    # the slot and uniform buffers are reused, which measured faster than fresh arrays per chunk
    width = max(cfg.M, cfg.K)
    size = next(_chunks(min(trials, _BLOCK), width))
    slots = np.empty((size, cfg.M), dtype=np.int64)
    u = np.empty((size, cfg.M))
    row_offset = cfg.K * np.arange(size)[:, None]
    sum_s = 0
    sum_s2 = 0
    for start, stop, rng in trial_blocks(seed, trials, _BLOCK):
        kept = _Integers(np.random.Philox(key=rng.bit_generator.state["state"]["key"]), cfg.K)
        _Integers(rng.bit_generator, cfg.K).skip(_BLOCK * cfg.M)
        for rows in _chunks(stop - start, width):
            cell = kept.fill(slots[:rows])
            cell += row_offset[:rows]
            if cfg.K > _CHUNK:  # rank the cells, so the count table stays chunk-sized
                cell = np.unique(cell, return_inverse=True)[1].reshape(cell.shape)
            alone = np.bincount(cell.ravel())[cell] == 1
            s = (alone & (rng.random(out=u[:rows]) < p_decode)).sum(axis=1)
            sum_s += int(s.sum())
            sum_s2 += int((s * s).sum())

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
    eps*(ki, ni), and the exchange succeeds only if both legs decode.
    """
    import numpy as np
    n1 = integer("n1", n1, ge=1)
    n2 = integer("n2", n2, ge=1)
    trials = _check_trials(trials)
    seed = check_seed(seed)
    e1 = eps_star(cfg.ch, CodeSpec(cfg.k1, n1))
    e2 = eps_star(cfg.ch, CodeSpec(cfg.k2, n2))

    successes = 0
    for start, stop, rng in trial_blocks(seed, trials, _BLOCK):
        for rows in _chunks(stop - start, 2):
            u = rng.random((rows, 2))
            successes += int(np.count_nonzero((u[:, 0] >= e1) & (u[:, 1] >= e2)))

    config = {
        "k1": cfg.k1,
        "k2": cfg.k2,
        "n1": n1,
        "n2": n2,
        "snr": cfg.ch.snr,
        "convention": cfg.ch.convention.value,
    }
    return _binomial_report("exchange_reliability", successes, trials, seed, config)
