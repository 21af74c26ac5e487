"""Monte-Carlo groundwork shared by every estimator: deterministic
counter-based random streams, the trial-count check, and the report type.

Trials are partitioned into fixed-width blocks and block b draws from a
Philox generator keyed by (seed, b).  Every block generates draws for its
full width in a fixed per-trial layout and slices off what it needs, so the
outcome of trial i depends only on the seed, i, and the estimator's draw
layout -- never on scheduling order, degree of parallelism, or the total
trial count.

This module sits below both fading and mcsim, so neither imports the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

__all__ = ["MIN_TRIALS", "SimConfigError", "SimReport", "check_seed", "trial_blocks"]

# below this the normal-theory standard error is not a trustworthy summary
MIN_TRIALS = 10_000


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
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool):
        raise SimConfigError(f"trials must be an integer, got {trials!r}")
    trials = int(trials)
    if trials < MIN_TRIALS:
        raise SimConfigError(f"trials must be >= {MIN_TRIALS}, got {trials}")
    return trials


def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed and return it as a plain int."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def trial_blocks(
    seed: int, trials: int, block: int
) -> Iterator[tuple[int, int, np.random.Generator]]:
    """Yield (start, stop, generator) covering range(trials) in keyed blocks.

    The generator for block b is Philox keyed by (seed, b); callers must
    always draw the full block's worth of variates and slice to stop-start.
    """
    seed = check_seed(seed)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    for b in range((trials + block - 1) // block):
        start = b * block
        stop = min(start + block, trials)
        key = np.array([seed, b], dtype=np.uint64)
        yield start, stop, np.random.Generator(np.random.Philox(key=key))
