"""Gaussian tail probability Q, its inverse, and log-domain evaluation.

These three functions are the numerical foundation for every error-rate
expression in the package.  Q(x) = P[Z > x] for standard normal Z is
evaluated through the complementary error function, which keeps full
relative accuracy deep into the upper tail; ln Q(x) stays finite and
accurate far past the point where Q(x) itself underflows to zero.
"""

from __future__ import annotations

import math

from scipy.special import log_ndtr, ndtr, ndtri

from ._check import probability, real

__all__ = ["q_func", "log_q_func", "q_inv"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def q_func(x: float) -> float:
    """Upper-tail probability Q(x) = P[Z > x] of the standard normal law.

    Args:
        x: finite real argument.

    Returns:
        Q(x) in [0, 1], with full relative accuracy in the upper tail.
    """
    return float(ndtr(-real("x", x)))


def log_q_func(x: float) -> float:
    """Natural logarithm of Q(x), finite even where Q(x) underflows."""
    return float(log_ndtr(-real("x", x)))


def q_inv(p: float) -> float:
    """Inverse of q_func: the x with Q(x) = p, for p in (0, 1).

    A machine-precision rational approximation supplies the starting point
    and two Newton steps against q_func polish it, so the round trip
    q_func(q_inv(p)) reproduces p to near machine precision across both
    tails.  For p > 1/2 the reflected problem is solved instead; 1 - p is
    exact in floating point there, so no accuracy is lost on either side.
    """
    p = probability("p", p)
    if p > 0.5:
        return -_q_inv_lower(1.0 - p)
    return _q_inv_lower(p)


def _q_inv_lower(p: float) -> float:
    # p in (0, 0.5], so x >= 0 and q_func(x) carries full relative accuracy
    x = float(-ndtri(p))
    for _ in range(2):
        density = math.exp(-0.5 * x * x) / _SQRT_2PI
        if density <= 0.0:
            break
        x += (q_func(x) - p) / density
    return x
