"""Gaussian tail function accuracy, inversion round trips, and domain checks.

The oracle is a 40-digit complementary-error-function evaluation, computed
here rather than hard-coded wherever a grid is involved.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtri

from shortpacket.specfun import log_q_func, q_array, q_func, q_inv

mpmath.mp.dps = 40


def q_oracle(x):
    return mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2


def log_q_oracle(x):
    # log1p keeps the digits of ln Q where Q is near 1
    return mpmath.log1p(-q_oracle(-x)) if x < 0 else mpmath.log(q_oracle(x))


# Floats take stdlib math and arrays take scipy.  Over these grids the
# largest relative error against the oracle was 1.75e-13 for stdlib Q and
# 2.15e-13 for scipy's ndtr, 1.81e-13 for stdlib ln Q and 2.02e-13 for
# log_ndtr; the two implementations agreed to 4.3e-13 at worst.  Below
# x = -37.5, Q(-x) is subnormal, and scipy's ndtr rounds it to 0 past 37.7,
# so ln Q is compared from -37.5 up.
ORACLE_REL = 2.5e-13
AGREE_REL = 5e-13
Q_GRID = np.linspace(-38.0, 37.5, 761)
LOG_Q_GRID = [*np.linspace(-37.5, 37.5, 751), 40.0, 100.0, 1e3, 1e4]


@pytest.mark.parametrize("q", [q_func, lambda x: float(q_array(x))], ids=["stdlib", "scipy"])
def test_q_matches_oracle_on_whole_grid(q):
    for x in Q_GRID:
        assert q(float(x)) == pytest.approx(float(q_oracle(x)), rel=ORACLE_REL, abs=0.0)


@pytest.mark.parametrize("log_q", [log_q_func, lambda x: float(log_ndtr(-x))], ids=["stdlib", "scipy"])
def test_log_q_matches_oracle_on_whole_grid(log_q):
    for x in LOG_Q_GRID:
        assert log_q(float(x)) == pytest.approx(float(log_q_oracle(x)), rel=ORACLE_REL, abs=0.0)


@given(st.floats(-38.0, 37.5))
def test_q_float_and_array_paths_agree(x):
    assert q_func(x) == pytest.approx(float(q_array(x)), rel=AGREE_REL, abs=0.0)


@given(st.one_of(st.floats(-37.5, 37.5), st.floats(37.5, 1e8)))
def test_log_q_agrees_with_scipy(x):
    assert log_q_func(x) == pytest.approx(float(log_ndtr(-x)), rel=AGREE_REL, abs=0.0)


@given(st.floats(1e-300, 1.0, exclude_max=True))
def test_q_inv_agrees_with_scipy(p):
    # the start is AS241 here and ndtri in scipy; both polish to 5.6e-16
    assert q_inv(p) == pytest.approx(-float(ndtri(p)), rel=AGREE_REL, abs=1e-300)


def test_q_at_zero_is_exactly_half():
    assert q_func(0.0) == 0.5


def test_q_inv_at_half_is_zero():
    assert q_inv(0.5) == 0.0


def test_q_matches_oracle_on_bulk_grid():
    for x in np.linspace(-8.0, 8.0, 81):
        expected = float(q_oracle(x))
        assert q_func(float(x)) == pytest.approx(expected, rel=1e-12)


def test_q_spot_values():
    # frozen from the oracle above
    assert q_func(2.2623) == pytest.approx(0.0118394372157, rel=1e-6)
    assert q_func(6.884) == pytest.approx(2.90974371671e-12, rel=1e-6)
    # coarse sanity on the deep-tail magnitude
    assert abs(q_func(6.884) / 2.9e-12 - 1.0) < 0.05


def test_q_inv_spot_values():
    assert abs(q_inv(1e-3) - 3.0902) <= 1e-4
    assert q_inv(1e-3) == pytest.approx(3.09023230617, rel=1e-9)
    assert q_inv(0.011845) == pytest.approx(2.26211984202, rel=1e-9)


def test_log_q_accurate_past_underflow():
    for x in np.linspace(8.0, 38.0, 61):
        expected = float(mpmath.log(q_oracle(x)))
        assert abs(log_q_func(float(x)) - expected) <= 1e-9


def test_log_q_refuses_where_it_is_below_the_float_range():
    # ln Q(x) is about -x*x/2, past -1.8e308 from x = 1.8962e154 on
    assert log_q_func(1.8961e154) == pytest.approx(-0.5 * 1.8961e154 * 1.8961e154, rel=1e-15)
    for x in (1.8963e154, 1e200, 1.7976931348623157e308):
        with pytest.raises(ValueError, match=r"^ln Q\(.+\) is below the float range$"):
            log_q_func(x)


def test_log_q_consistent_with_q_where_both_work():
    for x in np.linspace(-5.0, 30.0, 71):
        q = q_func(float(x))
        if q > 0.0:
            assert log_q_func(float(x)) == pytest.approx(math.log(q), abs=1e-9)


def test_round_trip_through_inverse():
    # |Q(Qinv(p)) - p| / p <= 1e-9 across fifteen decades and both tails
    ps = list(np.logspace(-15, -0.5, 40)) + [1.0 - p for p in np.logspace(-15, -0.5, 40)]
    for p in ps:
        p = float(p)
        assert abs(q_func(q_inv(p)) - p) / p <= 1e-9


def test_q_inv_within_two_ulps_of_oracle():
    # AS241 alone is up to 6 ulps off here; the Newton polish against Q
    # brings every point within 2
    for e in range(2, 1201, 3):
        p = 10.0 ** (-e / 4)
        x = q_inv(p)
        root = mpmath.findroot(lambda y: q_oracle(y) - mpmath.mpf(p), x)
        assert abs(x - float(root)) <= 2.0 * math.ulp(x)


def test_round_trip_through_forward():
    # below about -5 the forward value sits so close to 1 that a double
    # cannot carry x through the round trip; that loss is inherent
    for x in np.linspace(-5.0, 8.0, 53):
        x = float(x)
        assert abs(q_inv(q_func(x)) - x) <= 1e-9 * max(1.0, abs(x))


def test_symmetry():
    for x in np.linspace(-8.0, 8.0, 81):
        assert abs(q_func(float(x)) + q_func(float(-x)) - 1.0) <= 1e-12


def test_q_strictly_decreasing():
    # past about -8.3 the value rounds to exactly 1.0, so strictness can
    # only hold where the result is still distinguishable from 1
    xs = np.linspace(-8.0, 10.0, 181)
    vals = [q_func(float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_q_inv_strictly_decreasing_in_p():
    # down to the smallest subnormal, where x stays below 38.5 and the
    # Newton density exp(-x^2/2) does not underflow
    ps = [5e-324, 1e-320, 1e-300, *np.logspace(-12, math.log10(1.0 - 1e-12), 101)]
    vals = [q_inv(float(p)) for p in ps]
    assert all(math.isfinite(x) for x in vals) and vals[0] < 38.5
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_q_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        q_func(bad)
    with pytest.raises(ValueError):
        log_q_func(bad)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, math.nan])
def test_q_inv_rejects_out_of_domain(bad):
    with pytest.raises(ValueError):
        q_inv(bad)
