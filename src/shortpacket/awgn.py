"""Gaussian-channel capacity, dispersion, and the normal approximation of
the maximal coding rate at finite blocklength, together with its two
inversions: packet error probability for a given payload and blocklength,
and minimum blocklength for a target error probability.

Rates are in bits per channel use and every logarithm is base 2, including
the log2(n)/(2n) remainder term.  A :class:`Channel` carries the
channel-use convention explicitly: one complex channel use equals two real
dimensions, so the real-dimension convention halves both capacity and
dispersion.  The convention changes short-packet conclusions by orders of
magnitude, which is why it is a required, visible field rather than a
global setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import log_ndtr, ndtr

from ._check import probability, real
from .specfun import q_inv

__all__ = [
    "Convention",
    "Channel",
    "CodeSpec",
    "RateResult",
    "capacity",
    "dispersion",
    "rate_na",
    "eps_star",
    "eps_star_log",
    "min_blocklength",
]

_LOG2_E_SQ = math.log2(math.e) ** 2

# blocklength ceiling for the bracketing search in min_blocklength; the
# error probability is strictly decreasing in n, so this is unreachable
# for any satisfiable target and exists only to bound the loop
_MAX_BLOCKLENGTH = 1 << 50


class Convention(Enum):
    """Channel-use accounting: one complex symbol, or one real dimension."""

    COMPLEX_CU = "complex"
    REAL_CU = "real"


@dataclass(frozen=True)
class Channel:
    """Gaussian channel at a fixed SNR.

    Args:
        snr: linear signal-to-noise power ratio (not dB), > 0.
        convention: channel-use accounting; the real-dimension convention
            halves capacity and dispersion relative to the complex one.
    """

    snr: float
    convention: Convention = Convention.COMPLEX_CU

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr", real("snr", self.snr, gt=0.0))
        if not isinstance(self.convention, Convention):
            raise ValueError(f"convention must be a Convention member, got {self.convention!r}")


@dataclass(frozen=True)
class CodeSpec:
    """A code operating point: k information bits in n channel uses."""

    k: float
    n: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", real("k", self.k, gt=0.0))
        object.__setattr__(self, "n", real("n", self.n, gt=0.0))


@dataclass(frozen=True)
class RateResult:
    """Normal-approximation rate and its additive decomposition.

    The identity rate = capacity - penalty + correction holds exactly
    (same floating-point operations, no re-derivation).
    """

    rate: float
    capacity: float
    dispersion: float
    penalty: float
    correction: float


def _cv_complex(snr: float) -> tuple[float, float]:
    """Capacity and dispersion per complex channel use at linear SNR snr.

    V = snr(2 + snr)/(1 + snr)^2 * log2(e)^2, evaluated as a product of two
    ratios so it stays finite for any finite snr.
    """
    r = 1.0 + snr
    return math.log2(r), snr / r * ((2.0 + snr) / r) * _LOG2_E_SQ


def _cv(ch: Channel) -> tuple[float, float]:
    # both halved exactly under REAL_CU, so the two conventions stay consistent
    c, v = _cv_complex(ch.snr)
    return (0.5 * c, 0.5 * v) if ch.convention is Convention.REAL_CU else (c, v)


def capacity(ch: Channel) -> float:
    """Capacity in bits per channel use: log2(1 + snr), halved under REAL_CU."""
    return _cv(ch)[0]


def dispersion(ch: Channel) -> float:
    """Channel dispersion in bits^2 per channel use.

    snr(2 + snr)/(1 + snr)^2 * log2(e)^2 for complex channel uses, halved
    under REAL_CU.
    """
    return _cv(ch)[1]


def rate_na(ch: Channel, n: float, eps: float) -> RateResult:
    """Maximal coding rate supported at blocklength n and error probability eps.

    rate = C - sqrt(V/n) * Qinv(eps) + log2(n)/(2n), in bits per channel use.

    Args:
        ch: channel (fixes C and V, including the convention).
        n: blocklength in channel uses, > 0 (real-valued is allowed).
        eps: target packet error probability, in (0, 1).
    """
    n = real("n", n, gt=0.0)
    eps = probability("eps", eps)
    cap, disp = _cv(ch)
    penalty = math.sqrt(disp / n) * q_inv(eps)
    correction = math.log2(n) / (2.0 * n)
    if not (math.isfinite(penalty) and math.isfinite(correction)):
        raise ValueError(f"n={n!r} is too small: the normal approximation is not finite there")
    return RateResult(
        rate=cap - penalty + correction,
        capacity=cap,
        dispersion=disp,
        penalty=penalty,
        correction=correction,
    )


def _tail_args(ch: Channel, k, n) -> np.ndarray:
    # (nC - k + log2(n)/2) / sqrt(nV); array-safe in k and n
    c, v = _cv(ch)
    k = np.asarray(k, dtype=float)
    n = np.asarray(n, dtype=float)
    return (n * c - k + 0.5 * np.log2(n)) / np.sqrt(n * v)


def _eps_star_grid(ch: Channel, k, n) -> np.ndarray:
    """Vectorized error probability over arrays of k and/or n (internal)."""
    return ndtr(-_tail_args(ch, k, n))


def eps_star(ch: Channel, code: CodeSpec) -> float:
    """Packet error probability of the best code with k bits in n uses.

    Evaluates Q((nC - k + log2(n)/2) / sqrt(nV)); strictly decreasing in n,
    strictly increasing in k.
    """
    return float(_eps_star_grid(ch, code.k, code.n))


def eps_star_log(ch: Channel, code: CodeSpec) -> float:
    """Natural log of eps_star, finite even where eps_star underflows to 0."""
    return float(log_ndtr(-_tail_args(ch, code.k, code.n)))


def _smallest_n(holds: Callable[[int], bool], lo: int, ceiling: int) -> int | None:
    """Smallest n in [lo, ceiling] where holds(n), or None; holds must stay
    true once true.  Brackets by doubling from lo, then bisects."""
    below, n = lo - 1, lo
    while not holds(n):
        if n >= ceiling:
            return None
        below, n = n, min(2 * n, ceiling)
    while n - below > 1:
        mid = (below + n) // 2
        if holds(mid):
            n = mid
        else:
            below = mid
    return n


def min_blocklength(ch: Channel, k: float, eps_target: float) -> int:
    """Smallest integer n with eps_star(ch, (k, n)) <= eps_target.

    The search leans on eps_star being strictly decreasing in n.
    """
    k = real("k", k, gt=0.0)
    eps_target = probability("eps_target", eps_target)
    n = _smallest_n(lambda m: float(_eps_star_grid(ch, k, m)) <= eps_target, 1, _MAX_BLOCKLENGTH)
    if n is None:
        raise ValueError(f"no blocklength up to {_MAX_BLOCKLENGTH} meets eps_target={eps_target!r}")
    return n
