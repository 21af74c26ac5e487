"""Reference formulas the benchmark checks the package against.

They are written from the model definitions with the standard library
(plus the adaptive quadrature the package used when the benchmark was
written), so a change to the package's numerical core is checked against
an implementation it does not share.
"""

from __future__ import annotations

import math

LOG2_E = math.log2(math.e)


def q(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def cap(snr: float, real: bool) -> float:
    c = math.log2(1.0 + snr)
    return 0.5 * c if real else c


def disp(snr: float, real: bool) -> float:
    v = snr * (2.0 + snr) / (1.0 + snr) ** 2 * LOG2_E**2
    return 0.5 * v if real else v


def tail_arg(snr: float, real: bool, k: float, n: float) -> float:
    return (n * cap(snr, real) - k + 0.5 * math.log2(n)) / math.sqrt(n * disp(snr, real))


def eps(snr: float, real: bool, k: float, n: float) -> float:
    return q(tail_arg(snr, real, k, n))


def twoway_rel(snr: float, real: bool, k1: float, k2: float, n1: int, n2: int) -> float:
    return (1.0 - eps(snr, real, k1, n1)) * (1.0 - eps(snr, real, k2, n2))


def best_twoway_rel(snr: float, real: bool, k1: float, k2: float, n: int) -> float:
    return max(twoway_rel(snr, real, k1, k2, n1, n - n1) for n1 in range(1, n))


def aloha_success(M: int, K: int, snr: float, real: bool, D: float, n: float, perfect: bool) -> float:
    collision = (M / K) * (1.0 - 1.0 / K) ** (M - 1)
    return collision if perfect else collision * (1.0 - eps(snr, real, D, n / K))


def outage(snr: float, R: float) -> float:
    return -math.expm1(-math.expm1(R * math.log(2.0)) / snr)


def outage_cap(snr: float, e: float) -> float:
    return math.log2(1.0 - snr * math.log1p(-e))


def eps_quasistatic(snr: float, R: float, n: float) -> float:
    """E_g[Q((C(snr g) + log2(n)/(2n) - R) / sqrt(V(snr g)/n))], g ~ Exp(1),
    by adaptive quadrature in u = exp(-g), split where C(snr g) meets the rate."""
    from scipy.integrate import quad

    corr = math.log2(n) / (2.0 * n)
    at_zero_gain = 1.0 if R > corr else 0.0

    def f(u: float) -> float:
        if u <= 0.0:
            return 0.0
        g = -math.log(u) if u < 1.0 else 0.0
        if g <= 0.0:
            return at_zero_gain
        x = snr * g
        v = disp(x, False)
        if v <= 0.0:
            return at_zero_gain
        return q((cap(x, False) + corr - R) / math.sqrt(v / n))

    g_star = (2.0 ** (R - corr) - 1.0) / snr
    points = [math.exp(-g_star)] if g_star > 0.0 and 0.0 < math.exp(-g_star) < 1.0 else None
    val, _ = quad(f, 0.0, 1.0, points=points, limit=500, epsabs=1e-9, epsrel=1e-9)
    return min(max(val, 0.0), 1.0)


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    """|a - b| <= rel * |b| + abs_, and NaN never matches."""
    return abs(a - b) <= rel * abs(b) + abs_
