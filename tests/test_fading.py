"""Outage round trips, the quasi-static finite-blocklength expectation, the
MIMO Monte-Carlo estimator, and the DMT/pre-log curves."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ndtr

from shortpacket import fading
from shortpacket.awgn import _cv_complex
from shortpacket.fading import (
    DmtCurve,
    DmtMode,
    dmt_curve,
    dmt_eval,
    eps_quasistatic,
    noncoherent_prelog,
    outage_capacity_siso,
    outage_prob_siso,
)
from shortpacket.mcsim import QuasiStaticConfig, SimConfigError, outage_prob_mimo_mc

SNR = 10.0


# ---------------------------------------------------------------------------
# outage closed forms


def test_outage_zero_rate_is_zero():
    assert outage_prob_siso(SNR, 0.0) == 0.0


def test_outage_at_capacity_rate():
    # attempting log2(1+snr) puts the threshold exactly at the mean gain
    for snr in (0.5, 1.0, 10.0, 100.0):
        p = outage_prob_siso(snr, math.log2(1.0 + snr))
        assert abs(p - (1.0 - math.exp(-1.0))) <= 1e-12


def test_outage_capacity_spot_value():
    assert outage_capacity_siso(SNR, 0.1) == pytest.approx(1.038159, abs=1e-4)
    assert outage_capacity_siso(SNR, 0.1) == pytest.approx(1.0381588236207042, rel=1e-12)


def test_outage_capacity_vanishes_with_eps():
    c = outage_capacity_siso(SNR, 1e-12)
    assert 0.0 < c < 1e-10


def test_outage_round_trip():
    for eps in np.concatenate(([1e-9, 1e-6, 1e-4], np.linspace(0.001, 0.999, 120))):
        eps = float(eps)
        assert abs(outage_prob_siso(SNR, outage_capacity_siso(SNR, eps)) - eps) <= 1e-10
    for rate in np.linspace(0.01, 6.0, 60):
        rate = float(rate)
        p = outage_prob_siso(SNR, rate)
        assert abs(outage_capacity_siso(SNR, p) - rate) <= 1e-10 * max(1.0, rate)


def outage_round_trip_error(snr, eps):
    """Relative error of eps after the outage capacity and back."""
    return abs(outage_prob_siso(snr, outage_capacity_siso(snr, eps)) - eps) / eps


@given(log_snr=st.floats(-4.0, 7.0), log_eps=st.floats(-15.0, -1e-9))
def test_outage_pair_is_an_exact_inverse(log_snr, log_eps):
    snr, eps = 10.0**log_snr, 10.0**log_eps
    assume(snr * eps >= 1e-3)
    assert outage_round_trip_error(snr, eps) <= 1e-12


@pytest.mark.xfail(strict=True, reason="log2(1 - snr*ln(1 - eps)) loses digits where snr*eps is tiny")
def test_outage_pair_inverts_at_small_snr_eps():
    # outage_capacity_siso is 5.9% low here against mpmath
    assert outage_round_trip_error(1.18e-3, 1.2e-12) <= 1e-12


def test_outage_monotone_in_rate():
    ps = [outage_prob_siso(SNR, float(r)) for r in np.linspace(0.0, 8.0, 50)]
    assert all(a < b for a, b in zip(ps, ps[1:]))
    # past the float range of 2^R: saturated, also at the top of the snr
    # range, where (2^R - 1)/snr is at least 4e292
    assert outage_prob_siso(SNR, 2000.0) == 1.0
    assert outage_prob_siso(2.0**52, 1025.0) == 1.0


def test_outage_rejects_bad_inputs():
    with pytest.raises(ValueError):
        outage_prob_siso(0.0, 1.0)
    with pytest.raises(ValueError):
        outage_prob_siso(SNR, -0.1)
    with pytest.raises(ValueError):
        outage_capacity_siso(SNR, 0.0)
    with pytest.raises(ValueError):
        outage_capacity_siso(SNR, 1.0)


# ---------------------------------------------------------------------------
# quasi-static finite-blocklength expectation


def test_quasistatic_regression_value():
    # pinned by two independent estimates (quadrature and Monte-Carlo)
    assert eps_quasistatic(SNR, 1.0, 168.0) == pytest.approx(0.0930098, abs=1e-4)
    assert eps_quasistatic(SNR, 1.0, 168.0) == pytest.approx(0.09300977141645661, rel=1e-6)


def test_quasistatic_agrees_with_monte_carlo():
    # independent estimate of the same expectation: sample the exponential
    # power gain and average the conditional Gaussian tail
    n = 168.0
    rate = 1.0
    corr = math.log2(n) / (2.0 * n)
    rng = np.random.default_rng(20260819)
    g = rng.exponential(size=1_000_000)
    x = SNR * g
    c = np.log2(1.0 + x)
    v = x * (2.0 + x) / (1.0 + x) ** 2 * math.log2(math.e) ** 2
    vals = ndtr(-((c + corr - rate) / np.sqrt(v / n)))
    mc = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
    assert abs(eps_quasistatic(SNR, rate, n) - mc) <= 3.0 * se


def test_quasistatic_converges_to_outage():
    c01 = outage_capacity_siso(SNR, 0.1)
    assert eps_quasistatic(SNR, c01, 1e6) == pytest.approx(0.1, abs=2e-3)


def test_quasistatic_gap_shrinks_with_n():
    c01 = outage_capacity_siso(SNR, 0.1)
    for rate in (0.8 * c01, c01, 1.2 * c01):
        floor = outage_prob_siso(SNR, rate)
        gap_small = abs(eps_quasistatic(SNR, rate, 1e2) - floor)
        gap_large = abs(eps_quasistatic(SNR, rate, 1e4) - floor)
        assert gap_large <= 0.02
        assert gap_large < gap_small


def test_quasistatic_small_rate_limit():
    # far below the remainder term the expectation collapses toward zero
    vals = [eps_quasistatic(SNR, r, 168.0) for r in (1e-6, 1e-3, 0.05)]
    assert all(v >= 0.0 for v in vals)
    assert vals[0] < 1e-4
    assert vals[0] < vals[1] < vals[2]


def test_quasistatic_bounded_and_monotone_in_rate():
    vals = [eps_quasistatic(SNR, float(r), 200.0) for r in np.linspace(0.2, 5.0, 25)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # a rate past the float range of 2^R is certain to fail, without warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eps_quasistatic(SNR, 2000.0, 100.0) == 1.0


# (snr, R, n, eps_quasistatic) as computed before the integrand moved from
# scipy's ndtr to math.erfc; that move changed no value by more than 4.4e-16
# relative, so any change to the quadrature itself fails here loudly
QS_PINNED = [
    # SNR 10, n 200, the rates of test_quasistatic_bounded_and_monotone_in_rate
    (10.0, 0.2, 200.0, 0.013754527936211397),
    (10.0, 0.4, 200.0, 0.030244547494185457),
    (10.0, 0.6, 200.0, 0.0488516733921055),
    (10.0, 0.8, 200.0, 0.06978917841377884),
    (10.0, 1.0, 200.0, 0.09327419831636277),
    (10.0, 1.2, 200.0, 0.11952140344628115),
    (10.0, 1.4, 200.0, 0.1487344131730141),
    (10.0, 1.5999999999999999, 200.0, 0.1810945720417138),
    (10.0, 1.7999999999999998, 200.0, 0.2167467682214167),
    (10.0, 1.9999999999999998, 200.0, 0.25578211746374824),
    (10.0, 2.1999999999999997, 200.0, 0.29821759298271394),
    (10.0, 2.4, 200.0, 0.3439730896971424),
    (10.0, 2.6, 200.0, 0.3928470019932947),
    (10.0, 2.8, 200.0, 0.4444921820252382),
    (10.0, 3.0, 200.0, 0.49839510722016983),
    (10.0, 3.1999999999999997, 200.0, 0.5538621318734684),
    (10.0, 3.4, 200.0, 0.6100176410781212),
    (10.0, 3.6, 200.0, 0.6658194533022441),
    (10.0, 3.8, 200.0, 0.7200964913665676),
    (10.0, 4.0, 200.0, 0.7716120470249032),
    (10.0, 4.199999999999999, 200.0, 0.8191524570706236),
    (10.0, 4.3999999999999995, 200.0, 0.8616355672703254),
    (10.0, 4.6, 200.0, 0.8982265273344575),
    (10.0, 4.8, 200.0, 0.9284417536194146),
    (10.0, 5.0, 200.0, 0.9522178518927179),
    # the spot values and small rates above
    (10.0, 1.0, 168.0, 0.09300977141645661),
    (10.0, 1e-06, 168.0, 4.155609190212421e-05),
    (10.0, 0.001, 168.0, 4.693164909797555e-05),
    (10.0, 0.05, 168.0, 0.002540685717476999),
    # point-sweep-like: SNR -5..25 dB, R 0.1..6, n 50..2000
    (117.6, 1.285, 1649.0, 0.012104733197623807),
    (0.4913, 2.798, 2000.0, 0.9999949916843321),
    (13.65, 0.782, 502.0, 0.05075725871988821),
    (134.3, 3.743, 574.0, 0.08769282172759996),
    (16.88, 5.12, 430.0, 0.8624778782693816),
    (49.54, 3.097, 150.0, 0.1394207172957546),
    (1.655, 4.806, 1888.0, 0.9999999244191126),
    (26.35, 0.548, 1665.0, 0.017284742858677923),
    (192.1, 3.681, 1726.0, 0.05958672588447882),
    (1.369, 3.33, 178.0, 0.998318998210609),
    (138.5, 0.669, 1904.0, 0.004232172143899694),
    (36.37, 0.102, 208.0, 0.001767213402038568),
    (14.76, 4.165, 1658.0, 0.6817175839043238),
    (0.5915, 3.54, 137.0, 0.999999984715772),
    (16.01, 0.29, 1171.0, 0.013635961413788318),
    (240.3, 0.779, 652.0, 0.002946904943801523),
    (0.6193, 0.442, 1500.0, 0.43668393602945854),
    (66.08, 3.156, 1902.0, 0.11265440755783585),
    (289.8, 2.894, 1099.0, 0.02188597421792237),
    (106.6, 5.752, 1113.0, 0.39024290161123804),
    (1.238, 4.518, 1990.0, 0.999999981484478),
    (9.767, 4.096, 459.0, 0.8051390301429993),
    (1.238, 5.911, 323.0, 1.0),
    (11.78, 1.904, 1885.0, 0.2072440055835106),
    (1.267, 5.377, 816.0, 0.9999999999999893),
    (4.184, 2.734, 1630.0, 0.7400415842094357),
    (0.7036, 3.575, 1323.0, 0.9999998363356496),
    (164.8, 5.028, 436.0, 0.17363480910247311),
    (10.43, 0.571, 1453.0, 0.045210508870904234),
    (3.776, 4.155, 889.0, 0.9880304283769367),
    (10.68, 1.14, 1272.0, 0.10615395892097745),
    (7.351, 1.209, 1179.0, 0.16274834653178089),
    (1.862, 2.343, 1766.0, 0.8870448971511813),
    (80.74, 0.559, 522.0, 0.005760949571338925),
    (168.3, 0.349, 1903.0, 0.0015688331167010988),
]


def test_quasistatic_pinned_values():
    off = [
        (snr, rate, n, want, got)
        for snr, rate, n, want in QS_PINNED
        if (got := eps_quasistatic(snr, rate, n)) != pytest.approx(want, rel=1e-12)
    ]
    assert not off


@pytest.mark.xfail(strict=True, reason="adaptive quad on u = exp(-g) misses transition mass at small g*")
@pytest.mark.parametrize(
    "snr, rate, n, oracle",
    [
        # mpmath quadrature in g at 30 digits, split around g*; a 4e7-sample
        # Monte-Carlo gives 4.552e-4 +- 0.003e-4 for the first point
        (245.04932902595522, 0.1651641106381746, 207.0, 4.55925272711e-4),
        (71.64, 0.1067, 1330.0, 1.04086416364e-3),
        # g* = 6.9e-15: quad gives 2.1e-10
        (1e5, 1e-9, 1.0, 7.97366367445e-6),
    ],
)
def test_quasistatic_small_transition_gain(snr, rate, n, oracle):
    assert eps_quasistatic(snr, rate, n) == pytest.approx(oracle, rel=1e-8)


def test_quasistatic_integrand_ends_are_reached(monkeypatch):
    # a breakpoint exp(-g*) next to 1 makes quad evaluate u = 1 (zero gain);
    # a subnormal one, here exp(-744), makes it evaluate u = 0, where ln u
    # would raise
    integrand = fading._qs_integrand
    nodes = []

    def spy(u, *args):
        nodes.append(u)
        return integrand(u, *args)

    monkeypatch.setattr(fading, "_qs_integrand", spy)
    assert 0.0 <= eps_quasistatic(1e5, 1e-9, 1.0) <= 1.0
    assert 1.0 in nodes
    nodes.clear()
    n = 1e6
    assert eps_quasistatic(1.0, math.log2(745.0) + math.log2(n) / (2.0 * n), n) == 1.0
    assert 0.0 in nodes


def quad_reference(snr, rate, n):
    """eps_quasistatic through scipy's public quad on the same integrand,
    breakpoint, tolerances and subdivision limit."""
    corr = math.log2(n) / (2.0 * n)
    points = None
    if rate - corr < 1024:
        g_star = (2.0 ** (rate - corr) - 1.0) / snr
        if g_star > 0.0 and 0.0 < math.exp(-g_star) < 1.0:
            points = [math.exp(-g_star)]
    val, _ = quad(fading._qs_integrand, 0.0, 1.0, args=(snr, corr - rate, 0.5 * n, 1.0 if rate > corr else 0.0),
                  points=points, limit=500, epsabs=1e-9, epsrel=1e-9)
    return min(max(val, 0.0), 1.0)


@pytest.mark.parametrize(
    "snr, rate, n",
    [(snr, rate, n) for snr, rate, n, _ in QS_PINNED[::4]]
    + [
        # R <= log2(n)/(2n): no breakpoint, the integrand tends to 0 at zero gain
        (10.0, 1e-3, 1000.0),
        (10.0, math.log2(1000.0) / 2000.0, 1000.0),
        (0.5, 0.1, 1.5),
        # a breakpoint that rounds to 1, and a subnormal one
        (1e5, 1e-9, 1.0),
        (1.0, math.log2(745.0) + math.log2(1e6) / 2e6, 1e6),
        # 2^R past the float range: no breakpoint
        (10.0, 1030.0, 100.0),
        (2.0**52, 2000.0, 5.0),
    ],
)
def test_quasistatic_is_public_quad_bit_for_bit(snr, rate, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repr(eps_quasistatic(snr, rate, n)) == repr(quad_reference(snr, rate, n))


def test_quasistatic_passes_on_quads_warning():
    # QUADPACK reports ier = 5 (probably divergent) here; the value and the
    # warning are the public quad's
    args = (9.402115136883752e-05, 0.0002494070712128257, 1.5463651650103691)
    with pytest.warns(IntegrationWarning, match="divergent"):
        want = quad_reference(*args)
    with pytest.warns(IntegrationWarning, match="divergent"):
        assert repr(eps_quasistatic(*args)) == repr(want)


def cv_integrand(u, snr, shift, half_n, at_zero_gain):
    """_qs_integrand with C and V from awgn._cv_complex."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return at_zero_gain
    c, v = _cv_complex(snr * -math.log(u))
    return 0.5 * math.erfc((c + shift) * math.sqrt(half_n / v))


@given(
    u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from([5e-324, 1e-310, 1.0 - 2**-53]),
    snr=st.floats(2.0**-52, 2.0**52) | st.sampled_from([2.0**-52, 2.0**52]),
    shift=st.floats(-2000.0, 0.5),
    half_n=st.floats(0.5, 1e300),
    at_zero_gain=st.sampled_from([0.0, 1.0]),
)
def test_quasistatic_integrand_is_cv_complex_form_bit_for_bit(u, snr, shift, half_n, at_zero_gain):
    got = fading._qs_integrand(u, snr, shift, half_n, at_zero_gain)
    assert repr(got) == repr(cv_integrand(u, snr, shift, half_n, at_zero_gain))


def test_quasistatic_refuses_snr_past_the_range():
    # snr*g overflowed for g > 1.8 at snr 1e308, and the integrand took
    # Q(+inf) = 0 there; such an snr is refused, and at the top of the range
    # snr*g <= 2**52 * 745 stays finite, and the error sits near the outage
    # 1 - exp(-1/snr) = 2.2e-16
    for snr in (1e308, 1.7e308, math.nextafter(2.0**52, math.inf)):
        with pytest.raises(ValueError, match="^snr must be"):
            eps_quasistatic(snr, 1.0, 168.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 1e-16 < eps_quasistatic(2.0**52, 1.0, 168.0) < outage_prob_siso(2.0**52, 1.0)


def test_quasistatic_rejects_bad_inputs():
    with pytest.raises(ValueError):
        eps_quasistatic(0.0, 1.0, 100.0)
    with pytest.raises(ValueError):
        eps_quasistatic(SNR, 0.0, 100.0)
    with pytest.raises(ValueError):
        eps_quasistatic(SNR, 1.0, 0.5)


# ---------------------------------------------------------------------------
# MIMO outage Monte-Carlo


def test_mimo_mc_deterministic():
    cfg = QuasiStaticConfig(SNR, 1, 1)
    a = outage_prob_mimo_mc(cfg, 1, 1.0, 20_000, seed=7)
    b = outage_prob_mimo_mc(cfg, 1, 1.0, 20_000, seed=7)
    assert a == b


def test_mimo_mc_siso_calibration():
    cfg = QuasiStaticConfig(SNR, 1, 1)
    for eps in (0.05, 0.1, 0.3):
        rate = outage_capacity_siso(SNR, eps)
        rep = outage_prob_mimo_mc(cfg, 1, rate, 100_000, seed=0)
        assert abs(rep.estimate - eps) <= 3.0 * rep.std_error


def test_mimo_mc_zero_rate():
    rep = outage_prob_mimo_mc(QuasiStaticConfig(SNR, 2, 2), 1, 0.0, 10_000, seed=0)
    assert rep.estimate == 0.0


def test_mimo_mc_seed_stability():
    # two seeds must agree within joint error bars at a ~5% outage point
    cfg = QuasiStaticConfig(SNR, 2, 2)
    r0 = outage_prob_mimo_mc(cfg, 1, 3.4607, 100_000, seed=0)
    r1 = outage_prob_mimo_mc(cfg, 1, 3.4607, 100_000, seed=1)
    assert r0.estimate != r1.estimate
    joint = math.hypot(r0.std_error, r1.std_error)
    assert abs(r0.estimate - r1.estimate) <= 3.0 * joint
    for rep in (r0, r1):
        assert 0.02 < rep.estimate < 0.10


def test_mimo_mc_more_branches_less_outage():
    # averaging over independent fading blocks tightens the mutual
    # information around its mean, reducing outage below the mean rate
    cfg = QuasiStaticConfig(SNR, 1, 1)
    rate = outage_capacity_siso(SNR, 0.3)
    p1 = outage_prob_mimo_mc(cfg, 1, rate, 50_000, seed=3).estimate
    p4 = outage_prob_mimo_mc(cfg, 4, rate, 50_000, seed=3).estimate
    assert p4 < p1


def test_mimo_mc_report_metadata():
    cfg = QuasiStaticConfig(SNR, 2, 1)
    rep = outage_prob_mimo_mc(cfg, 2, 1.5, 10_000, seed=5)
    assert rep.metric_name == "mimo_outage_probability"
    assert rep.trials == 10_000
    assert rep.seed == 5
    assert rep.config["m_t"] == 2
    assert rep.config["fading_blocks"] == 2
    assert rep.std_error == pytest.approx(
        math.sqrt(rep.estimate * (1.0 - rep.estimate) / rep.trials)
    )


def test_mimo_mc_rejects_bad_config():
    cfg = QuasiStaticConfig(SNR, 1, 1)
    with pytest.raises(SimConfigError):
        outage_prob_mimo_mc(cfg, 1, 1.0, 9_999, seed=0)
    with pytest.raises(ValueError):
        outage_prob_mimo_mc(cfg, 0, 1.0, 10_000, seed=0)
    with pytest.raises(ValueError):
        outage_prob_mimo_mc(cfg, 1, -1.0, 10_000, seed=0)
    with pytest.raises(ValueError):
        outage_prob_mimo_mc(cfg, 1, 1.0, 10_000, seed=-1)
    with pytest.raises(ValueError):
        QuasiStaticConfig(SNR, 0, 1)


# ---------------------------------------------------------------------------
# DMT and pre-log


def test_dmt_coherent_2x2():
    curve = dmt_curve(2, 2, DmtMode.COHERENT)
    assert curve.scaling == 1.0
    assert curve.breakpoints == ((4.0, 0.0), (1.0, 1.0), (0.0, 2.0))


def test_dmt_coherent_1x1():
    assert dmt_curve(1, 1, DmtMode.COHERENT).breakpoints == ((1.0, 0.0), (0.0, 1.0))


def test_dmt_noncoherent_scaling_pointwise():
    curve = dmt_curve(2, 2, DmtMode.NONCOHERENT, n_c=10)
    assert curve.scaling == 0.8
    assert curve.breakpoints == ((4.0, 0.0), (1.0, 0.8), (0.0, 1.6))
    coherent = dmt_curve(2, 2, DmtMode.COHERENT)
    for (dc, rc), (dn, rn) in zip(coherent.breakpoints, curve.breakpoints):
        assert dn == dc
        assert rn == 0.8 * rc


def test_dmt_endpoints():
    for mt, mr in [(1, 1), (2, 2), (4, 2), (3, 5)]:
        curve = dmt_curve(mt, mr, DmtMode.COHERENT)
        assert curve.breakpoints[0] == (float(mt * mr), 0.0)
        assert curve.breakpoints[-1] == (0.0, float(min(mt, mr)))


def test_dmt_eval_exact_at_breakpoints():
    for curve in (
        dmt_curve(2, 2, DmtMode.COHERENT),
        dmt_curve(3, 2, DmtMode.NONCOHERENT, n_c=12),
    ):
        for d, r in curve.breakpoints:
            assert dmt_eval(curve, d) == r


def test_dmt_eval_midpoint():
    curve = dmt_curve(2, 2, DmtMode.COHERENT)
    assert dmt_eval(curve, 2.5) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("mode", list(DmtMode))
def test_dmt_eval_is_numpy_interp_bit_for_bit(mode):
    # dmt_eval writes numpy.interp's arithmetic in floats: on a dense grid,
    # breakpoints included, every result has the same bits
    for m_t in range(1, 5):
        for m_r in range(1, 5):
            for n_c in (None,) if mode is DmtMode.COHERENT else range(2 * min(m_t, m_r) + m_r + 1, 16):
                curve = dmt_curve(m_t, m_r, mode, n_c=n_c)
                ds, rs = (np.array(axis[::-1]) for axis in zip(*curve.breakpoints))
                grid = np.concatenate((np.linspace(0.0, ds[-1], 401), ds))
                got = np.array([dmt_eval(curve, d) for d in grid.tolist()])
                assert got.tobytes() == np.interp(grid, ds, rs).tobytes()


def test_dmt_eval_rejects_out_of_range():
    curve = dmt_curve(2, 2, DmtMode.COHERENT)
    with pytest.raises(ValueError):
        dmt_eval(curve, -0.1)
    with pytest.raises(ValueError):
        dmt_eval(curve, 4.1)


def test_dmt_validation():
    with pytest.raises(ValueError):
        dmt_curve(2, 2, DmtMode.NONCOHERENT)  # n_c required
    with pytest.raises(ValueError):
        dmt_curve(2, 2, DmtMode.NONCOHERENT, n_c=6)  # needs n_c >= 7
    with pytest.raises(ValueError):
        dmt_curve(2, 2, DmtMode.COHERENT, n_c=1)  # coherent needs n_c >= m_t
    with pytest.raises(ValueError):
        dmt_curve(0, 2, DmtMode.COHERENT)
    with pytest.raises(ValueError):
        DmtCurve(breakpoints=((1.0, 0.0),), scaling=1.0)
    with pytest.raises(ValueError):
        DmtCurve(breakpoints=((1.0, 0.0), (2.0, 1.0)), scaling=1.0)


def test_prelog_spot_values():
    assert noncoherent_prelog(2, 2, 14) == pytest.approx(12.0 / 7.0, rel=1e-12)
    assert noncoherent_prelog(2, 2, 1) == 0.0
    assert noncoherent_prelog(1, 1, 10**9) == pytest.approx(1.0, abs=2e-9)
    assert noncoherent_prelog(3, 2, 7) == pytest.approx(10.0 / 7.0, rel=1e-12)
    # m_star = floor(6/2) = 3 is the binding limit: 3 * (1 - 3/6), exact
    assert noncoherent_prelog(4, 4, 6) == 1.5


def test_prelog_never_exceeds_antenna_bound():
    for mt in (1, 2, 4):
        for mr in (1, 2, 4):
            for nc in (1, 2, 5, 20, 1000):
                p = noncoherent_prelog(mt, mr, nc)
                assert 0.0 <= p <= min(mt, mr)
