"""Gaussian tail probability Q, its inverse, and log-domain evaluation.

These three functions are the numerical foundation for every error-rate
expression in the package.  Q(x) = P[Z > x] for standard normal Z is
evaluated through the complementary error function, which keeps full
relative accuracy deep into the upper tail; ln Q(x) stays finite and
accurate far past the point where Q(x) itself underflows to zero.

Floats take stdlib math: Q is erfc(x/sqrt 2)/2, and Q^-1 starts from
statistics.NormalDist.inv_cdf (Wichura's AS241), which the first q_inv
call imports.  Arrays take scipy.special.ndtr through q_array, which
imports scipy on its first call, so a process that evaluates only floats
never loads scipy.  The two agree to 5e-13 relative (tests/test_specfun.py).
"""

from __future__ import annotations

import math

from ._check import probability, real

__all__ = ["q_func", "log_q_func", "q_inv"]

_SQRT1_2 = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = math.log(_SQRT_2PI)

# past this x, log Q takes the asymptotic series: Q(37) is about 6e-302,
# still a normal float, and there 8 terms leave a remainder below 1e-18
_LOG_Q_SERIES = 37.0
_SERIES_TERMS = 8

_ndtr = None  # scipy.special.ndtr, bound on the first q_array call
_inv_cdf = None  # statistics.NormalDist().inv_cdf, bound on the first q_inv call


def _q(x: float) -> float:
    # Q for any float x, inf included; the argument's only rounding is the
    # product with 1/sqrt 2, as in scipy's ndtr
    return 0.5 * math.erfc(x * _SQRT1_2)


def _log_q(x: float) -> float:
    # ln Q for any float x; ValueError past x = 1.8962e154, inf included
    if x < -1.0:
        return math.log1p(-_q(-x))
    if x < _LOG_Q_SERIES:
        return math.log(_q(x))
    # Q(x) = phi(x)/x * (1 - 1/x^2 + 3/x^4 - 15/x^6 + ...), Abramowitz and
    # Stegun 26.2.12; -x*x/2 is -inf only where ln Q is past the float range
    r = 1.0 / (x * x)
    term = 1.0
    tail = 0.0
    for j in range(1, _SERIES_TERMS + 1):
        term *= -(2 * j - 1) * r
        tail += term
    y = -0.5 * x * x - math.log(x) - _LOG_SQRT_2PI + math.log1p(tail)
    if y == -math.inf:
        raise ValueError(f"ln Q({x!r}) is below the float range")
    return y


def q_array(x):
    """Q over a numpy array of arguments, by scipy.special.ndtr, which the
    first call imports."""
    global _ndtr
    if _ndtr is None:
        from scipy.special import ndtr as _ndtr
    return _ndtr(-x)


def q_func(x: float) -> float:
    """Upper-tail probability Q(x) = P[Z > x] of the standard normal law.

    Args:
        x: finite real argument.

    Returns:
        Q(x) in [0, 1], with full relative accuracy in the upper tail.
    """
    return _q(real("x", x))


def log_q_func(x: float) -> float:
    """Natural logarithm of Q(x), finite even where Q(x) underflows.  Raises
    ValueError past x = 1.8962e154, where it is below the float range."""
    return _log_q(real("x", x))


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
    # p in (0, 0.5], so x >= 0 and Q(x) carries full relative accuracy
    global _inv_cdf
    if _inv_cdf is None:
        from statistics import NormalDist
        _inv_cdf = NormalDist().inv_cdf
    x = -_inv_cdf(p)
    # x <= 38.5 for p >= 5e-324, so the density exp(-x^2/2) never underflows
    for _ in range(2):
        x += (_q(x) - p) / (math.exp(-0.5 * x * x) / _SQRT_2PI)
    return x
