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
import sys
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

_LN2 = math.log(2.0)
_LOG2_E_SQ = math.log2(math.e) ** 2

# blocklength ceiling for the bracketing search in min_blocklength; it
# exists only to bound the loop
_MAX_BLOCKLENGTH = 1 << 50

# candidates min_blocklength evaluates below its closed-form seed; the
# log2(n)/2 term the seed drops moved the answer by at most 33 uses over
# 10,240 point-sweep operating points of bench/ (SNR -5..25 dB, n 50..2000)
_SEED_WINDOW = 64

# C <= 1024 and V < 2.1 for every finite snr, so nC and nV stay finite for
# n below this; the scalar eps_star path pays for its overflow check (an
# np.errstate of about 2 us) only past it
_N_NO_OVERFLOW = sys.float_info.max / 1024.0


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
        n: blocklength in channel uses, >= 1 (real-valued is allowed);
            below 1 the log2(n)/(2n) correction turns large and negative.
        eps: target packet error probability, in (0, 1).
    """
    n = real("n", n, ge=1.0)
    eps = probability("eps", eps)
    cap, disp = _cv(ch)
    penalty = math.sqrt(disp / n) * q_inv(eps)
    correction = math.log2(n) / (2.0 * n)
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


def _checked_tail_args(ch: Channel, k: float, n, n_max: float) -> np.ndarray:
    # _tail_args for one k over n <= n_max; past _N_NO_OVERFLOW, nC and nV
    # may both overflow and the argument be inf/inf = nan, which is no
    # probability.  Below it the check is one comparison of n_max
    if n_max < _N_NO_OVERFLOW:
        return _tail_args(ch, k, n)
    with np.errstate(over="ignore", invalid="ignore"):
        t = _tail_args(ch, k, n)
    nan = np.isnan(t)
    if nan.any():
        n_bad = float(np.broadcast_to(n, t.shape)[nan][0])
        raise ValueError(f"eps_star is undefined at k={k!r}, n={n_bad!r}: nC and nV overflow")
    return t


def eps_star(ch: Channel, code: CodeSpec) -> float:
    """Packet error probability of the best code with k bits in n uses.

    Evaluates Q((nC - k + log2(n)/2) / sqrt(nV)); strictly increasing in k.
    It is strictly decreasing in n where k + 3/(2 ln 2) > log2(1/(2C ln 2))/2.
    That fails only when C and k are both small, and then it can rise with
    n: at snr 1e-6 (complex) with k = 1 it is 0.0 at n = 8, 5.2e-5 at
    n = 1e7 and 8.4e-15 at n = 1e8.  Raises ValueError where nC and nV
    both overflow (n near 1e308), so the argument is nan.
    """
    return float(ndtr(-_checked_tail_args(ch, code.k, code.n, code.n)))


def eps_star_log(ch: Channel, code: CodeSpec) -> float:
    """Natural log of eps_star, finite even where eps_star underflows to 0.
    Raises ValueError where eps_star does."""
    return float(log_ndtr(-_checked_tail_args(ch, code.k, code.n, code.n)))


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


def _seeded_min_blocklength(ch: Channel, k: float, eps_target: float) -> int | None:
    """min_blocklength from one array evaluation below a closed-form seed;
    None where eps_star may not fall strictly in n, or where that window
    does not bracket the answer."""
    c, v = _cv(ch)
    # d/dn of the tail argument has the sign of nC + k + 1/ln 2 - log2(n)/2,
    # whose minimum over n > 0, at n = 1/(2C ln 2), is
    # k + 3/(2 ln 2) - log2(1/(2C ln 2))/2
    if not (c > 0.0 and k + 1.5 / _LN2 > -0.5 * math.log2(2.0 * c * _LN2)):
        return None
    # without log2(n)/2, nC - k = Qinv(eps) sqrt(nV) is a quadratic in
    # sqrt(n); for n >= 1 the dropped term only lowers eps_star, so the
    # answer lies at or below the root's ceiling
    b = q_inv(eps_target) * math.sqrt(v)
    root = (b + math.sqrt(b * b + 4.0 * c * k)) / (2.0 * c)
    n0 = root * root
    if not n0 <= _MAX_BLOCKLENGTH:  # inf and nan fall back too
        return None
    top = max(math.ceil(n0), 1)
    cand = np.arange(max(top - _SEED_WINDOW + 1, 1), top + 1, dtype=float)
    met = np.flatnonzero(_eps_star_grid(ch, k, cand) <= eps_target)
    if met.size == 0 or (met[0] == 0 and cand[0] > 1.0):
        return None
    return int(cand[met[0]])


def min_blocklength(ch: Channel, k: float, eps_target: float) -> int:
    """Smallest integer n with eps_star(ch, (k, n)) <= eps_target, wherever
    eps_star falls strictly in n: k + 3/(2 ln 2) > log2(1/(2C ln 2))/2.

    There n is read from one window of candidates below the closed-form
    root of the normal approximation without its log2(n)/2 term, and a
    doubling-then-bisection search takes over when the window does not
    bracket it.  Outside that condition only the search runs, and it
    returns the first crossing it finds, which need not be the smallest n.
    """
    k = real("k", k, gt=0.0)
    eps_target = probability("eps_target", eps_target)
    n = _seeded_min_blocklength(ch, k, eps_target)
    if n is None:
        n = _smallest_n(
            lambda m: float(_eps_star_grid(ch, k, m)) <= eps_target, 1, _MAX_BLOCKLENGTH
        )
    if n is None:
        raise ValueError(f"no blocklength up to {_MAX_BLOCKLENGTH} meets eps_target={eps_target!r}")
    return n
