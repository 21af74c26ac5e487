"""Monte-Carlo groundwork shared by every estimator: deterministic
counter-based random streams, the trial-count check, and the report type.

Trials are partitioned into fixed-width blocks and block b draws from a
Philox generator keyed by (seed, b) in the estimator's full-block draw
layout, so the outcome of trial i depends only on the seed, i, and that
layout -- never on scheduling order, parallelism, or the trial count.
Philox fills arrays in stream order, so a kernel reads a block in chunks of
about _CHUNK draws with the same values: it never makes the draws after the
last one it keeps, and memory stays O(_CHUNK) whatever the trials or width.

This module sits below both fading and mcsim, so neither imports the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

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
