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

from ._check import integer

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
    return integer("trials", trials, ge=MIN_TRIALS, error=SimConfigError)


def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed and return it as a plain int."""
    return integer("seed", seed, ge=0, le=2**64 - 1)


def trial_blocks(
    seed: int, trials: int, block: int
) -> Iterator[tuple[int, int, np.random.Generator]]:
    """Yield (start, stop, generator) covering range(trials) in keyed blocks.

    The generator for block b is Philox keyed by (seed, b); callers must
    always draw the full block's worth of variates and slice to stop-start.
    They pass a seed from check_seed and at least one trial and block.
    """
    for b in range((trials + block - 1) // block):
        start = b * block
        stop = min(start + block, trials)
        key = np.array([seed, b], dtype=np.uint64)
        yield start, stop, np.random.Generator(np.random.Philox(key=key))
