"""Quasi-static fading metrics: outage probability and outage capacity,
the finite-blocklength error probability obtained by averaging the Gaussian
tail over the fading gain, diversity versus multiplexing tradeoff curves,
and the noncoherent block-fading pre-log, all in closed form.

Fading formulas count complex channel uses throughout: capacity of a
realization with power gain g is log2(1 + g * snr) bits per complex symbol.
In the quasi-static regime the error probability converges to the outage
probability as blocklength grows -- fading, not thermal noise, dominates --
and the finite-blocklength penalty is only a modest correction on top.
"""

from __future__ import annotations

import bisect
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum
from math import erfc, log, log2, sqrt

from ._check import MAX_EXACT, integer, linear_snr, probability, real
from .awgn import _LOG2_E_SQ

__all__ = [
    "DmtMode",
    "DmtCurve",
    "outage_prob_siso",
    "outage_capacity_siso",
    "eps_quasistatic",
    "dmt_curve",
    "dmt_eval",
    "noncoherent_prelog",
]

_LN2 = math.log(2.0)

_QUADPACK = "scipy.integrate._quadpack"
_quadpack = None  # QUADPACK's extension module, bound on the first eps_quasistatic call


class DmtMode(Enum):
    COHERENT = "coherent"
    NONCOHERENT = "noncoherent"


@dataclass(frozen=True)
class DmtCurve:
    """Piecewise-linear diversity-multiplexing tradeoff.

    breakpoints run from (max diversity, r=0) to (d=0, max multiplexing);
    scaling is the factor applied to the multiplexing axis (1 when channel
    state is known at the receiver).
    """

    breakpoints: tuple[tuple[float, float], ...]
    scaling: float

    def __post_init__(self) -> None:
        ds = [d for d, _ in self.breakpoints]
        rs = [r for _, r in self.breakpoints]
        if len(self.breakpoints) < 2 or any(nxt >= cur for cur, nxt in zip(ds, ds[1:])):
            raise ValueError("breakpoints must have strictly decreasing diversity")
        if any(nxt <= cur for cur, nxt in zip(rs, rs[1:])):
            raise ValueError("breakpoints must have strictly increasing multiplexing")


def outage_prob_siso(snr: float, R: float) -> float:
    """Rayleigh outage probability 1 - exp(-(2^R - 1)/snr).

    R is in bits per complex channel use; R = 0 gives 0 exactly.  Where 2^R
    is past the float range the threshold is capped at (2^1023 - 1) / snr,
    at least 2^971 (about 2.0e292), so the outage is exactly 1.
    """
    snr = linear_snr(snr)
    R = real("R", R, ge=0.0)
    threshold = math.expm1(min(R, 1023.0) * _LN2) / snr
    return -math.expm1(-threshold)


def outage_capacity_siso(snr: float, eps: float) -> float:
    """The rate whose outage probability is exactly eps:
    log2(1 - snr * ln(1 - eps))."""
    snr = linear_snr(snr)
    eps = probability("eps", eps)
    return math.log2(1.0 - snr * math.log1p(-eps))


def _load_quadpack():
    # the extension alone, 0.25 MB: the scipy.integrate package would load
    # scipy.sparse, scipy.linalg, scipy.optimize and scipy.special with it.
    # find_spec of a top-level name imports nothing
    module = sys.modules.get(_QUADPACK)
    if module is None:
        from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
        from importlib.util import find_spec, module_from_spec
        integrate = os.path.join(find_spec("scipy").submodule_search_locations[0], "integrate")
        spec = FileFinder(integrate, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_QUADPACK)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        # the extension enters itself in sys.modules as it loads; an
        # `import scipy.integrate` that found it there would leave the
        # package without its _quadpack attribute, so the package loads
        # its own copy instead
        sys.modules.pop(_QUADPACK, None)
    return module


def _qs_integrand(
    u: float, snr: float, shift: float, half_n: float, at_zero_gain: float
) -> float:
    # after the substitution u = exp(-g) the exponential weight disappears:
    # E_g[f(g)] = integral over u in (0, 1) of f(-ln u); QUADPACK also
    # evaluates the ends where its breakpoint exp(-g*) rounds near them.
    # C and V are awgn._cv_complex's, written out here because a call per
    # node costs a tenth of the integral
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return at_zero_gain
    # g = -ln u is in [1.1e-16, 745], so x = snr * g is a positive normal
    # float for snr in [2**-52, 2**52], and so is v
    x = snr * -log(u)
    r = 1.0 + x
    v = x / r * ((2.0 + x) / r) * _LOG2_E_SQ
    # Q((C + shift) / sqrt(V/n)), written as erfc((C + shift) sqrt(n/(2V))) / 2
    return 0.5 * erfc((log2(r) + shift) * sqrt(half_n / v))


def eps_quasistatic(snr: float, R: float, n: float) -> float:
    """Finite-blocklength error probability on the quasi-static Rayleigh
    channel: the AWGN Gaussian tail averaged over the exponential power gain,

        E_g[ Q( (C(snr*g) + log2(n)/(2n) - R) / sqrt(V(snr*g)/n) ) ],

    with C and V per complex channel use.  Converges to the outage
    probability as n grows.

    Args:
        snr: linear SNR, in [2**-52, 2**52].
        R: rate in bits per channel use, > 0.
        n: blocklength, in [1, 2**53].
    """
    # QUADPACK's routines without quad's wrapper, which costs a fifth of
    # the call for one breakpoint
    global _quadpack
    if _quadpack is None:
        _quadpack = _load_quadpack()
    snr = linear_snr(snr)
    R = real("R", R, gt=0.0)
    n = real("n", n, ge=1.0, le=MAX_EXACT)
    corr = math.log2(n) / (2.0 * n)
    # the tail argument's shift, n/2 and the integrand's limit at zero gain
    args = (snr, corr - R, 0.5 * n, 1.0 if R > corr else 0.0)
    # the integrand transitions around the gain where capacity meets the
    # rate; hand that point to the adaptive rule.  Past 2**1023, where
    # exp(-g*) is 0 at any snr, it sits at u = 0; where R <= corr there is
    # none, and exp(-g*) could overflow at small snr
    points = None
    g_star = (2.0 ** min(R - corr, 1023.0) - 1.0) / snr
    if g_star > 0.0:
        u_star = math.exp(-g_star)
        if 0.0 < u_star < 1.0:
            points = (u_star,)
    # quad(_qs_integrand, 0, 1, args, points=points, limit=500, epsabs=1e-9,
    # epsrel=1e-9) bit for bit: quad pads the breakpoints with two zeros
    if points is None:
        val, _, ier = _quadpack._qagse(_qs_integrand, 0.0, 1.0, args, 0, 1e-9, 1e-9, 500)
    else:
        val, _, ier = _quadpack._qagpe(_qs_integrand, 0.0, 1.0, points + (0.0, 0.0), args, 0, 1e-9, 1e-9, 500)
    if ier != 0:
        # quad again, for scipy's own warning and its text
        from scipy.integrate import quad
        val, _ = quad(_qs_integrand, 0.0, 1.0, args, points=points, limit=500, epsabs=1e-9, epsrel=1e-9)
    return min(max(val, 0.0), 1.0)


def _m_star(m_t: int, m_r: int, n_c: int) -> int:
    """Antennas worth using without channel knowledge: min(m_t, m_r, floor(n_c/2))."""
    return min(m_t, m_r, n_c // 2)


def dmt_curve(m_t: int, m_r: int, mode: DmtMode, n_c: int | None = None) -> DmtCurve:
    """Diversity-multiplexing tradeoff breakpoints (d_k, r_k) for
    k = 0..min(m_t, m_r): d_k = (m_t - k)(m_r - k), r_k = scaling * k.

    Coherent mode has scaling 1 (n_c, if given, must be >= m_t for the
    breakpoints to be achievable).  Noncoherent mode requires n_c, scales
    multiplexing by 1 - m_star/n_c with m_star = min(m_t, m_r, floor(n_c/2)),
    and requires n_c >= 2*m_star + m_r + 1.
    """
    m_t = integer("m_t", m_t, ge=1)
    m_r = integer("m_r", m_r, ge=1)
    if not isinstance(mode, DmtMode):
        raise ValueError(f"mode must be a DmtMode member, got {mode!r}")

    if mode is DmtMode.COHERENT:
        if n_c is not None:  # the breakpoints need at least m_t uses per coherence interval
            integer("n_c", n_c, ge=m_t)
        scaling = 1.0
    else:
        if n_c is None:
            raise ValueError("noncoherent curve requires n_c")
        n_c = integer("n_c", n_c, ge=1)
        ms = _m_star(m_t, m_r, n_c)
        needed = 2 * ms + m_r + 1
        if n_c < needed:
            raise ValueError(
                f"noncoherent curve requires n_c >= 2*m_star + m_r + 1 = {needed}, got {n_c}"
            )
        scaling = 1.0 - ms / n_c

    points = tuple(
        (float((m_t - k) * (m_r - k)), scaling * k) for k in range(min(m_t, m_r) + 1)
    )
    return DmtCurve(breakpoints=points, scaling=scaling)


def dmt_eval(curve: DmtCurve, d: float) -> float:
    """Multiplexing gain supported at diversity d: linear interpolation
    between breakpoints, exact at the breakpoints themselves.  The
    arithmetic is numpy.interp's, so the two agree bit for bit."""
    d_max = curve.breakpoints[0][0]
    d = real("d", d, ge=0.0, le=d_max)
    ds = [float(p[0]) for p in reversed(curve.breakpoints)]
    rs = [float(p[1]) for p in reversed(curve.breakpoints)]
    # the last breakpoint at or below d (d <= ds[-1]); below the first, interp returns rs[0]
    j = max(bisect.bisect_right(ds, d) - 1, 0)
    if ds[j] >= d:
        return rs[j]
    slope = (rs[j + 1] - rs[j]) / (ds[j + 1] - ds[j])
    return slope * (d - ds[j]) + rs[j]


def noncoherent_prelog(m_t: int, m_r: int, n_c: int) -> float:
    """High-SNR capacity pre-log without receiver channel knowledge:
    m_star * (1 - m_star/n_c), m_star = min(m_t, m_r, floor(n_c/2))."""
    m_t = integer("m_t", m_t, ge=1)
    m_r = integer("m_r", m_r, ge=1)
    n_c = integer("n_c", n_c, ge=1)
    ms = _m_star(m_t, m_r, n_c)
    return ms * (1.0 - ms / n_c)
