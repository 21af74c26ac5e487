"""Monte-Carlo groundwork shared by every estimator: deterministic
counter-based random streams, the trial-count check, and the report type.

Trials are partitioned into fixed-width blocks and block b draws from a
Philox generator keyed by (seed, b) in the estimator's full-block draw
layout, so the outcome of trial i depends only on the seed, i, and that
layout -- never on scheduling order, parallelism, or the trial count.
Philox fills arrays in stream order, so a kernel reads a block in chunks of
about _CHUNK draws with the same values: it never makes the draws after the
last one it keeps, and memory stays O(_CHUNK) whatever the trials or width.
_Integers reads the values of Generator.integers(0, K) straight from the
raw words, so a kernel can count past bounded draws it does not keep.

This module sits below both fading and mcsim, so neither imports the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator

from ._check import integer

__all__ = ["MIN_TRIALS", "SimConfigError", "SimReport", "check_seed", "trial_blocks"]

# below this the normal-theory standard error is not a trustworthy summary
MIN_TRIALS = 10_000

_CHUNK = 1 << 16  # draws per chunk when a kernel reads a block


class SimConfigError(ValueError):
    """A Monte-Carlo run was configured too weakly to be meaningful."""


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


def trial_blocks(
    seed: int, trials: int, block: int
) -> Iterator[tuple[int, int, np.random.Generator]]:
    """Yield (start, stop, generator) covering range(trials) in keyed blocks.

    The generator for block b is Philox keyed by (seed, b); callers draw in
    their full-block layout, in _chunks, up to the last draw they keep.
    They pass a seed from check_seed and at least one trial and block.
    """
    import numpy as np
    for b in range((trials + block - 1) // block):
        start = b * block
        stop = min(start + block, trials)
        key = np.array([seed, b], dtype=np.uint64)
        yield start, stop, np.random.Generator(np.random.Philox(key=key))


def _chunks(rows: int, width: int) -> Iterator[int]:
    """Row counts that sum to rows: _CHUNK // width each (at least one), then the rest."""
    step = max(1, _CHUNK // width)
    for lo in range(0, rows, step):
        yield min(step, rows - lo)


class _Integers:
    """The values of successive Generator.integers(0, K) calls on a bit
    generator's stream, read from its raw 64-bit words.

    For 1 < K < 2**32 numpy applies Lemire's method to the words' 32-bit
    halves, low half first: half h gives (h*K) >> 32, unless (h*K) mod 2**32
    is below 2**32 mod K, when it is rejected and the next half is tried.  A
    call that ends on a low half leaves the high half pending for the next
    call, and Generator.random() starts at the next whole word.  K = 1 draws
    nothing, and K >= 2**32 takes numpy's 64-bit path through integers().
    """

    def __init__(self, bit_generator: np.random.BitGenerator, K: int) -> None:
        import numpy as np
        self._bits = bit_generator
        self._K = K
        self._threshold = np.uint32((1 << 32) % K) if K < 1 << 32 else None
        self._no_half = np.empty(0, dtype=np.uint32)
        self._pending = self._no_half  # at most one half

    def skip(self, count: int) -> None:
        """Consume the next `count` draws without keeping them."""
        import numpy as np
        if self._K >= 1 << 32:
            rng = np.random.Generator(self._bits)
            for n in _chunks(count, 1):
                rng.integers(0, self._K, size=n)
        elif self._K > 1:
            for _ in self._accepted(count):
                pass

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Write the next out.size draws into the contiguous int64 array out."""
        import numpy as np
        if self._K == 1:
            out.fill(0)
        elif self._K >= 1 << 32:
            out[...] = np.random.Generator(self._bits).integers(0, self._K, size=out.shape)
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
