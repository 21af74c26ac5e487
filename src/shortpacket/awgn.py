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

The public functions take floats and evaluate in stdlib math, so they
never load numpy or scipy.  The protocol optimizers take 1 - eps_star over
numpy arrays of k and ascending n through _success_grid, which evaluates Q
by scipy.special (loaded on its first call) inside a closed-form window of
n; _slot_success builds ALOHA's grid over slot lengths n/K only for the
slot counts K inside that window.  _tail_formula writes the tail argument
once.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum

from ._check import MAX_EXACT, linear_snr, probability, real
from .specfun import _log_q, _q, q_array, q_inv

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

_LIVE_T = 9.0  # |t| outside _success_grid's window; 1 - Q(t) is exactly 0 or 1 from |t| = 8.2924


class Convention(Enum):
    """Channel-use accounting: one complex symbol, or one real dimension."""

    COMPLEX_CU = "complex"
    REAL_CU = "real"


@dataclass(frozen=True)
class Channel:
    """Gaussian channel at a fixed SNR.

    Args:
        snr: linear signal-to-noise power ratio (not dB), in [2**-52, 2**52],
            -156.5 to 156.5 dB.
        convention: channel-use accounting; the real-dimension convention
            halves capacity and dispersion relative to the complex one.
    """

    snr: float
    convention: Convention = Convention.COMPLEX_CU

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr", linear_snr(self.snr))
        if not isinstance(self.convention, Convention):
            raise ValueError(f"convention must be a Convention member, got {self.convention!r}")


@dataclass(frozen=True)
class CodeSpec:
    """A code operating point: k information bits in n channel uses, with k
    in (0, 2**53] and n in [2**-53, 2**53]."""

    k: float
    n: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", real("k", self.k, gt=0.0, le=MAX_EXACT))
        object.__setattr__(self, "n", real("n", self.n, ge=1 / MAX_EXACT, le=MAX_EXACT))


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
    ratios so that no factor is formed past the float range.
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
        n: blocklength in channel uses, in [1, 2**53] (real-valued is
            allowed); below 1 the log2(n)/(2n) correction turns large and
            negative.
        eps: target packet error probability, in (0, 1).
    """
    n = real("n", n, ge=1.0, le=MAX_EXACT)
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


def _tail_formula(xp, c: float, v: float, k, n):
    # (nC - k + log2(n)/2) / sqrt(nV), the argument of Q in eps_star; xp is
    # math for floats and np for arrays, so the formula is written once, and
    # an array t is summed and divided in place
    t = n * c - k
    t += 0.5 * xp.log2(n)
    t /= xp.sqrt(n * v)
    return t


def _sqrt_n_root(c: float, b: float, k: float) -> float:
    # the root r = sqrt(n) > 0 of c r^2 - b r - k = 0 (c > 0, k >= 0), in the form without cancellation
    d = math.sqrt(b * b + 4.0 * c * k)
    return (b + d) / (2.0 * c) if b >= 0.0 else 2.0 * k / (d - b)


def _live_window(c: float, v: float, k_min: float, k_max: float) -> tuple[float, float]:
    """(n_lo, n_top): for k in [k_min, k_max], t <= -T = -_LIVE_T at 0 < n <= n_lo and t >= T at
    n >= n_top >= 1.  For n >= 1, t >= (nC - k)/sqrt(nV), which rises: n_top solves Cn - T sqrt(Vn) = k.
    Up to n_top t's numerator is at most nC - k', k' = k - log2(n_top)/2, and it and sqrt(nV) rise,
    so t <= -T up to the root of Cn + T sqrt(Vn) = k'.  Channel keeps snr >= 2**-52, so C > 0, and
    CodeSpec and the configs keep k in (0, 2**53] and n in [2**-53, 2**53], so t is finite, as
    |nC - k + log2(n)/2| < 2**64 (C <= 53) and sqrt(nV) >= 2e-16, and its rounding stays far inside
    9 - 8.2924.  eps_star and eps_star_log rest on the same bound."""
    b = _LIVE_T * math.sqrt(v)
    r = _sqrt_n_root(c, b, k_max)
    n_top = max(r * r, 1.0)
    r = _sqrt_n_root(c, -b, max(k_min - 0.5 * math.log2(n_top), 0.0))
    return r * r, n_top


def _saturation(ch: Channel, k: float) -> int:
    """A grid length L whose last entry, and every one after it, _success_grid
    gives as exactly 1.0 for every k' <= k: floor(n_top) + 1, from _live_window,
    or MAX_EXACT where n_top is past it."""
    return min(math.floor(_live_window(*_cv(ch), k, k)[1]) + 1, MAX_EXACT)


def _success_grid(ch: Channel, k, n: np.ndarray) -> np.ndarray:
    """1 - eps_star(ch, (k, m)) for each m in n, an ascending float array, with
    k a float or a column of them.  Entries at or below _live_window's n_lo
    are +0.0 and those past n_top 1.0, as 1 - Q gives them bit for bit; one
    searchsorted finds the slice between, the only one to evaluate t and Q,
    for k at most MAX_EXACT and n in [2**-53, MAX_EXACT], as _live_window needs.
    """
    import numpy as np
    c, v = _cv(ch)
    k = np.asarray(k)
    ks = k.ravel().tolist()
    lo, hi = n.searchsorted(_live_window(c, v, min(ks), max(ks)), side="right").tolist()
    # t is freed before s is made, so three arrays of the live width are alive at most
    q = q_array(_tail_formula(np, c, v, k, n[lo:hi]))
    s = np.zeros((*k.shape[:-1], len(n)))
    s[..., hi:] = 1.0
    np.subtract(1.0, q, out=s[..., lo:hi])
    return s


def _slot_success(ch: Channel, k: float, frame: float, k_max: int) -> tuple[int, np.ndarray]:
    """(j, s) with s[i] = 1 - eps_star(ch, (k, frame/K)) at K = j + 1 + i, as
    _success_grid gives it over every slot length frame/K, K = 1..k_max; there
    each K <= j gives exactly 1.0 and each K past j + len(s) +0.0.  s is a
    reversed view of one grid over an ascending contiguous array of slot
    lengths, as a strided log2 may round differently.

    The slot counts of s hold _live_window's, with one to spare at each end
    for the rounding of frame/n_top and frame/n_lo.
    """
    import numpy as np
    n_lo, n_top = _live_window(*_cv(ch), k, k)
    # K <= j has frame/K > n_top, and K > top has frame/K < n_lo
    j, top = min(max(math.floor(frame / n_top) - 1, 0), k_max), k_max
    below = frame / n_lo if n_lo > 0.0 else math.inf
    if below < k_max:
        top = max(min(math.ceil(below) + 1, k_max), j)
    m = np.arange(float(top), float(j), -1.0)  # K = top..j+1
    if len(m):
        m = _success_grid(ch, k, np.divide(frame, m, out=m))
    return j, m[::-1]


def eps_star(ch: Channel, code: CodeSpec) -> float:
    """Packet error probability of the best code with k bits in n uses.

    Evaluates Q((nC - k + log2(n)/2) / sqrt(nV)); strictly increasing in k.
    It is strictly decreasing in n where k + 3/(2 ln 2) > log2(1/(2C ln 2))/2.
    That fails only when C and k are both small, and then it can rise with
    n: at snr 1e-6 (complex) with k = 1 it is 0.0 at n = 8, 5.2e-5 at
    n = 1e7 and 8.4e-15 at n = 1e8.  On CodeSpec's domain the argument is
    finite (see _live_window), so every code has a value.  Evaluated in
    stdlib math floats; the protocol optimizers take the same formula over
    arrays through scipy.
    """
    return _q(_tail_formula(math, *_cv(ch), code.k, code.n))


def eps_star_log(ch: Channel, code: CodeSpec) -> float:
    """Natural log of eps_star, finite even where eps_star underflows to 0:
    on CodeSpec's domain |t| stays below 1e32, far from where ln Q(t) leaves
    the float range."""
    return _log_q(_tail_formula(math, *_cv(ch), code.k, code.n))


def min_blocklength(ch: Channel, k: float, eps_target: float) -> int:
    """Smallest integer n with eps_star(ch, (k, n)) <= eps_target.

    The tail argument t(n) of eps_star rises with n where
    h(n) = nC + k + 1/ln 2 - log2(n)/2 is positive.  h is convex, so t
    rises, may fall between the two roots n_a < n_b of h, and then rises for
    good.  The integers next to n_a decide whether the answer lies on
    [1, n_a] or past n_b; past n_b the closed-form root of the
    approximation without its log2(n)/2 term bounds the answer.  A bisection
    on that bracket tests eps_star itself at each probe, so rounding cannot
    move the answer.  k is in (0, 2**53]; raises ValueError when no n up to
    2**53, the longest CodeSpec, meets the target.
    """
    k = real("k", k, gt=0.0, le=MAX_EXACT)
    eps_target = probability("eps_target", eps_target)
    c, v = _cv(ch)

    def meets(n: int) -> bool:
        return _q(_tail_formula(math, c, v, k, n)) <= eps_target

    if meets(1):
        return 1
    # below: t rises on [1, top], or rises, falls and rises again while
    # meets stays false up to n_b, so meets turns true once, at or before top
    top = None
    # h = 0 in u = ln n is exp(u - u_h) + a - u = 0, where a = 2 ln 2 (k + 1/ln 2)
    # and h is least at u_h = ln(1/(2C ln 2)); it has roots when a + 1 < u_h.
    # Channel keeps C >= 1.6e-16 (snr 2**-52, real uses), so u_h < 36.1 and n_a < e**u_h < 2**53
    a = 2.0 * _LN2 * k + 2.0
    u_h = -math.log(2.0 * c * _LN2)
    if a + 1.0 < u_h:
        # the left side is convex and positive at u = a, so Newton climbs
        # from there to the smaller root ln n_a and stops when it cannot rise
        u = a
        for _ in range(64):
            e = math.exp(u - u_h)
            step = (e + a - u) / (1.0 - e)
            if not step > 0.0:
                break
            u += step
        j = math.floor(math.exp(u))  # u >= a >= 2, so j >= 7
        if meets(j):
            top = j  # t rises on [1, n_a]
        elif meets(j + 1):
            return j + 1
        # else t stays below the target up to n_b
    if top is None:
        # without log2(n)/2, nC - k = Qinv(eps) sqrt(nV) is a quadratic in
        # sqrt(n); for n >= 1 the dropped term only raises t, so the answer
        # is at most its root, which lies past n_b
        top = MAX_EXACT
        s = _sqrt_n_root(c, q_inv(eps_target) * math.sqrt(v), k)
        if s * s < top:
            top = max(math.ceil(s * s), 2)
            while not meets(top):  # rounding can leave the root a use short
                top += 1
        if top == MAX_EXACT and not meets(top):
            raise ValueError(f"no blocklength up to {MAX_EXACT} meets eps_target={eps_target!r}")
    # meets(1) is false and meets(top) true, so the answer is in [2, top]
    return bisect.bisect_left(range(2, top), True, key=meets) + 2
