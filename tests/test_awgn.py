"""Capacity, dispersion, the finite-blocklength rate approximation, and its
error-probability / blocklength inversions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtr

from shortpacket import awgn
from shortpacket.awgn import (
    Channel,
    CodeSpec,
    Convention,
    capacity,
    dispersion,
    eps_star,
    eps_star_log,
    min_blocklength,
    rate_na,
)

CH10_REAL = Channel(10.0, Convention.REAL_CU)
CH10_CPLX = Channel(10.0, Convention.COMPLEX_CU)


def test_capacity_spot_value():
    assert capacity(CH10_CPLX) == pytest.approx(3.45943, abs=1e-5)
    assert capacity(CH10_CPLX) == math.log2(11.0)


def test_dispersion_spot_value():
    assert dispersion(CH10_CPLX) == pytest.approx(2.06417, abs=1e-4)
    # closed form: snr(2+snr)/(1+snr)^2 in nats^2, scaled to bits^2
    assert dispersion(CH10_CPLX) == pytest.approx(120.0 / 121.0 * math.log2(math.e) ** 2, rel=1e-12)
    # finite at any finite snr, approaching log2(e)^2
    assert dispersion(Channel(1e200)) == pytest.approx(math.log2(math.e) ** 2, rel=1e-12)


def test_real_convention_halves_exactly():
    for snr in (0.1, 1.0, 10.0, 316.0):
        cplx = Channel(snr, Convention.COMPLEX_CU)
        real = Channel(snr, Convention.REAL_CU)
        assert capacity(real) == capacity(cplx) / 2.0
        assert dispersion(real) == dispersion(cplx) / 2.0


def test_low_snr_limits():
    ch = Channel(1e-12, Convention.COMPLEX_CU)
    assert 0.0 < capacity(ch) < 2e-12
    assert 0.0 < dispersion(ch) < 5e-12


def test_rate_decomposition_identity():
    for snr, n, eps in [(1.0, 138.0, 1e-3), (10.0, 125.0, 0.0118), (0.5, 1000.0, 1e-6)]:
        for conv in Convention:
            r = rate_na(Channel(snr, conv), n, eps)
            assert r.rate == r.capacity - r.penalty + r.correction


def test_rate_spot_values():
    r = rate_na(Channel(1.0, Convention.COMPLEX_CU), 138.0, 1e-3)
    assert r.rate == pytest.approx(0.697, abs=3e-3)
    assert r.rate == pytest.approx(0.697088027534, rel=1e-9)

    r = rate_na(CH10_REAL, 125.0, 0.011845)
    assert r.rate == pytest.approx(1.552, abs=1e-3)
    # payload implied by the rate lands on the known operating point
    assert r.rate * 125.0 == pytest.approx(194.0, abs=0.2)


def test_rate_approaches_capacity():
    r = rate_na(CH10_CPLX, 1e8, 1e-3)
    assert abs(r.rate - r.capacity) <= 1e-3
    assert r.rate < r.capacity


def test_penalty_shrinks_with_blocklength():
    rates = [rate_na(CH10_CPLX, n, 1e-3).penalty for n in (100.0, 1e3, 1e4, 1e5)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_eps_star_spot_values():
    assert eps_star(CH10_REAL, CodeSpec(194.0, 125.0)) == pytest.approx(0.01184, abs=2e-4)
    assert eps_star(CH10_REAL, CodeSpec(194.0, 125.0)) == pytest.approx(
        0.011835261773, rel=1e-9
    )
    assert eps_star(CH10_REAL, CodeSpec(192.0, 125.0)) == pytest.approx(
        0.0073738058126, rel=1e-9
    )
    deep = eps_star(CH10_REAL, CodeSpec(1920.0, 1250.0))
    assert deep == pytest.approx(2.8933380986e-12, rel=1e-6)
    assert 1e-12 <= deep <= 1e-11


def test_eps_star_at_critical_payload_is_half():
    # k chosen so the tail argument vanishes
    n = 100.0
    k = n * capacity(CH10_CPLX) + 0.5 * math.log2(n)
    assert eps_star(CH10_CPLX, CodeSpec(k, n)) == pytest.approx(0.5, abs=1e-12)


def test_eps_star_log_consistency():
    for k, n in [(194.0, 125.0), (1920.0, 1250.0), (97.0, 71.0)]:
        e = eps_star(CH10_REAL, CodeSpec(k, n))
        assert math.exp(eps_star_log(CH10_REAL, CodeSpec(k, n))) == pytest.approx(e, rel=1e-9)


def test_eps_star_log_survives_underflow():
    code = CodeSpec(100.0, 10000.0)
    assert eps_star(CH10_CPLX, code) == 0.0
    log_eps = eps_star_log(CH10_CPLX, code)
    assert math.isfinite(log_eps)
    assert log_eps < -700.0


def test_eps_star_monotone_in_n_k_snr():
    ns = np.arange(100.0, 400.0, 7.0)
    eps_n = [eps_star(CH10_REAL, CodeSpec(194.0, float(n))) for n in ns]
    assert all(a > b for a, b in zip(eps_n, eps_n[1:]))

    ks = np.arange(100.0, 220.0, 3.0)
    eps_k = [eps_star(CH10_REAL, CodeSpec(float(k), 125.0)) for k in ks]
    assert all(a < b for a, b in zip(eps_k, eps_k[1:]))

    snrs = np.linspace(5.0, 20.0, 30)
    eps_s = [eps_star(Channel(float(s), Convention.REAL_CU), CodeSpec(194.0, 125.0)) for s in snrs]
    assert all(a > b for a, b in zip(eps_s, eps_s[1:]))


@given(
    log_snr=st.floats(-2.0, 3.0),
    conv=st.sampled_from(list(Convention)),
    log_n=st.floats(0.0, 5.0),
    t=st.floats(-5.0, 35.0),
    dk=st.floats(1.0, 100.0),
)
def test_eps_star_rises_strictly_in_k(log_snr, conv, log_n, t, dk):
    # k placed so the tail argument is about t, where eps lies in (1e-300, 1)
    ch, n = Channel(10.0**log_snr, conv), 10.0**log_n
    k = n * capacity(ch) + 0.5 * math.log2(n) - t * math.sqrt(n * dispersion(ch))
    assume(k > 0.0)
    lo, hi = eps_star(ch, CodeSpec(k, n)), eps_star(ch, CodeSpec(k + dk, n))
    assume(1e-300 < lo and hi < 1.0)
    assert lo < hi


@settings(max_examples=200)
@given(
    log_snr=st.floats(-7.0, 6.0),
    conv=st.sampled_from(list(Convention)),
    log_n=st.floats(0.0, 7.0),
    t=st.floats(-5.0, 35.0),
    log_grow=st.floats(-3.0, 0.0),
)
def test_eps_star_falls_strictly_in_n(log_snr, conv, log_n, t, log_grow):
    # the premise of both blocklength searches (min_blocklength and the
    # two-way target search): k placed so the tail argument at n is about t
    ch, n = Channel(10.0**log_snr, conv), 10.0**log_n
    k = n * capacity(ch) + 0.5 * math.log2(n) - t * math.sqrt(n * dispersion(ch))
    assume(k > 0.0 and _eps_falls_with_n(ch, k))
    hi, lo = eps_star(ch, CodeSpec(k, n)), eps_star(ch, CodeSpec(k, n * (1.0 + 10.0**log_grow)))
    assume(1e-300 < lo and hi < 1.0)
    assert hi > lo


def test_eps_star_refuses_nan_tail_argument():
    # nC and nV both overflow, so the argument is inf/inf
    for ch, n in [(CH10_CPLX, 1e308), (CH10_REAL, 1.75e308), (Channel(1e300), 1e308)]:
        for fn in (eps_star, eps_star_log):
            with pytest.raises(ValueError, match="undefined"):
                fn(ch, CodeSpec(1e308, n))


def test_eps_star_past_overflow_guard_matches_array_path():
    # n past awgn._N_NO_OVERFLOW takes the checked path; its results, like
    # those below it, are the array path's bit for bit
    for ch in (CH10_REAL, CH10_CPLX, Channel(1e300)):
        for k, n in [(1.0, 1e306), (1e307, 1e306), (1e306, 1e305), (194.0, 125.0)]:
            with np.errstate(over="ignore"):  # nC overflows at snr 1e300, n 1e306
                t = awgn._tail_args(ch, k, n)
            assert eps_star(ch, CodeSpec(k, n)) == float(ndtr(-t))
            assert eps_star_log(ch, CodeSpec(k, n)) == float(log_ndtr(-t))


def test_rate_and_eps_are_consistent_inversions():
    for k, n in [(194.0, 125.0), (100.0, 250.0), (500.0, 300.0)]:
        eps = eps_star(CH10_REAL, CodeSpec(k, n))
        r = rate_na(CH10_REAL, n, eps)
        assert r.rate * n == pytest.approx(k, rel=1e-9)


def test_min_blocklength_spot_values():
    assert min_blocklength(CH10_REAL, 193.0, 4.4e-4) == 132
    assert min_blocklength(CH10_REAL, 97.0, 3.8e-4) == 71


def test_min_blocklength_tiny_payload_loose_target():
    assert min_blocklength(CH10_REAL, 1e-9, 0.4) == 1


def test_min_blocklength_matches_linear_scan():
    ch = Channel(10.0, Convention.REAL_CU)
    for k, target in [(10.0, 0.05), (30.0, 1e-3), (5.0, 0.3)]:
        expected = next(
            n for n in range(1, 100_000) if eps_star(ch, CodeSpec(k, float(n))) <= target
        )
        assert min_blocklength(ch, k, target) == expected


def test_min_blocklength_is_tight():
    for ch in (CH10_REAL, CH10_CPLX, Channel(2.5, Convention.COMPLEX_CU)):
        for k, target in [(20.0, 1e-3), (97.0, 3.8e-4), (500.0, 1e-6), (3.0, 0.2)]:
            n = min_blocklength(ch, k, target)
            assert eps_star(ch, CodeSpec(k, float(n))) <= target
            if n > 1:
                assert eps_star(ch, CodeSpec(k, float(n - 1))) > target


def _search_min_blocklength(ch, k, eps):
    # the plain doubling-then-bisection search, with no closed-form seed
    return awgn._smallest_n(
        lambda m: eps_star(ch, CodeSpec(k, float(m))) <= eps, 1, awgn._MAX_BLOCKLENGTH
    )


def _eps_falls_with_n(ch, k):
    # d/dn of the tail argument has the sign of nC + k + 1/ln 2 - log2(n)/2,
    # positive for every n > 0 when its minimum, at n = 1/(2C ln 2), is
    c = capacity(ch)
    return k + 3.0 / (2.0 * math.log(2.0)) > 0.5 * math.log2(1.0 / (2.0 * c * math.log(2.0)))


@settings(max_examples=200)
@given(
    log_snr=st.floats(-7.0, 6.0),
    conv=st.sampled_from(list(Convention)),
    log_k=st.floats(-9.0, 7.0),
    log_eps=st.floats(-15.0, math.log10(0.9999)),
)
def test_min_blocklength_matches_search_and_is_tight(log_snr, conv, log_k, log_eps):
    ch = Channel(10.0**log_snr, conv)
    k, eps = 10.0**log_k, 10.0**log_eps
    n = min_blocklength(ch, k, eps)
    assert n == _search_min_blocklength(ch, k, eps)
    if _eps_falls_with_n(ch, k):
        assert eps_star(ch, CodeSpec(k, float(n))) <= eps
        assert n == 1 or eps_star(ch, CodeSpec(k, float(n - 1))) > eps


def test_min_blocklength_seeded_and_fallback_paths(monkeypatch):
    windows, searches = [], []
    grid, search = awgn._eps_star_grid, awgn._smallest_n

    def spy_grid(ch, k, n):
        if np.ndim(n) == 1:
            windows.append(n)
        return grid(ch, k, n)

    monkeypatch.setattr(awgn, "_eps_star_grid", spy_grid)
    monkeypatch.setattr(awgn, "_smallest_n", lambda *a: searches.append(a) or search(*a))

    def runs(ch, k, eps):
        # (n, window evaluations, searches) of one min_blocklength call
        windows.clear()
        searches.clear()
        n = min_blocklength(ch, k, eps)
        ran = (n, len(windows), len(searches))
        assert n == _search_min_blocklength(ch, k, eps)
        assert eps_star(ch, CodeSpec(k, float(n))) <= eps
        return ran

    # eps_star falls with n and the window below the seed brackets the answer
    assert _eps_falls_with_n(CH10_REAL, 193.0)
    assert runs(CH10_REAL, 193.0, 4.4e-4) == (132, 1, 0)
    assert runs(CH10_REAL, 1e-9, 0.4) == (1, 1, 0)
    # it falls, but the dropped log2(n)/2 term is worth thousands of uses at
    # this capacity, so the window misses and the search runs
    assert _eps_falls_with_n(Channel(1e-3), 1000.0)
    assert runs(Channel(1e-3), 1000.0, 1e-3) == (811122, 1, 1)
    # small C and small k: eps_star rises again with n, so no window is
    # evaluated and only the search runs
    low = Channel(1e-6)
    for k, eps, want in [(1.0, 1e-6, 5), (3.0, 1e-3, 69)]:
        assert not _eps_falls_with_n(low, k)
        assert runs(low, k, eps) == (want, 0, 1)
    assert eps_star(low, CodeSpec(1.0, 1e7)) > 1e-6


@pytest.mark.parametrize("snr", [0.0, -1.0, math.inf, math.nan])
def test_channel_rejects_bad_snr(snr):
    with pytest.raises(ValueError):
        Channel(snr)


def test_codespec_rejects_bad_values():
    with pytest.raises(ValueError):
        CodeSpec(0.0, 10.0)
    with pytest.raises(ValueError):
        CodeSpec(10.0, 0.0)
    with pytest.raises(ValueError):
        CodeSpec(10.0, -5.0)
    with pytest.raises(ValueError):
        CodeSpec(math.inf, 10.0)


def test_rate_na_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rate_na(CH10_CPLX, 0.0, 1e-3)
    with pytest.raises(ValueError):
        rate_na(CH10_CPLX, 100.0, 0.0)
    with pytest.raises(ValueError):
        rate_na(CH10_CPLX, 100.0, 1.0)
    # n below 1 is refused: there the log2(n)/(2n) correction gave a large
    # negative rate (-4.98e302 at 1e-300), or at 1e-320 a nan one
    for n in (1e-320, 1e-300, 0.5, np.nextafter(1.0, 0.0)):
        for eps in (0.5, 1e-3):
            with pytest.raises(ValueError, match="n must be >= 1.0"):
                rate_na(CH10_CPLX, n, eps)
    assert rate_na(CH10_CPLX, 1.0, 0.5).correction == 0.0


def test_min_blocklength_rejects_bad_inputs():
    with pytest.raises(ValueError):
        min_blocklength(CH10_CPLX, -1.0, 1e-3)
    with pytest.raises(ValueError):
        min_blocklength(CH10_CPLX, 100.0, 0.0)
    with pytest.raises(ValueError):
        min_blocklength(CH10_CPLX, 100.0, 1.0)
