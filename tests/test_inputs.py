"""The one numeric-input policy, checked at every public entry point.

Each row names one scalar parameter, a valid value for it and a call that
varies only that parameter.  Reals accept int, float and numpy real scalars
and integers accept int and numpy integer scalars, with results equal to
those for the matching Python number and holding no numpy scalars.  bool,
str, None, complex and non-finite values are refused with a ValueError that
names the parameter, and so is every float given for an integer parameter
and every integer past 2**53 unless the parameter has its own bound (the
seed keeps 2**64 - 1); a bad trial count raises SimConfigError.  The
protocol configs' payloads and lengths, though real, stop at 2**53 too, and
a linear SNR lies in [2**-52, 2**52], -156.5 to 156.5 dB."""

import dataclasses
import math
import re

import numpy as np
import pytest

from shortpacket import (
    AlohaConfig,
    Channel,
    CodeSpec,
    Convention,
    DmtMode,
    DownlinkConfig,
    MIN_TRIALS,
    QuasiStaticConfig,
    SimConfigError,
    TwoWayConfig,
    aloha_optimize,
    dmt_curve,
    dmt_eval,
    eps_quasistatic,
    log_q_func,
    min_blocklength,
    noncoherent_prelog,
    outage_capacity_siso,
    outage_prob_mimo_mc,
    outage_prob_siso,
    q_func,
    q_inv,
    rate_na,
    sim_aloha,
    sim_twoway,
    twoway_optimize,
    twoway_reliability,
    twoway_tdd_eval,
)

CH = Channel(10.0, Convention.REAL_CU)
TWO = TwoWayConfig(193.0, 97.0, CH)
QS = QuasiStaticConfig(10.0, 1, 1)
ALOHA = AlohaConfig(10, 192.0, 800.0, CH, K=6)
CURVE = dmt_curve(2, 2, DmtMode.COHERENT)

# (entry point, parameter, kind, valid value, call with that parameter set)
ROWS = [
    ("q_func", "x", "real", 1.5, lambda v: q_func(v)),
    ("log_q_func", "x", "real", 1.5, lambda v: log_q_func(v)),
    ("q_inv", "p", "real", 0.25, lambda v: q_inv(v)),
    ("Channel", "snr", "real", 10.0, lambda v: Channel(v)),
    ("CodeSpec", "k", "real", 194.0, lambda v: CodeSpec(v, 125.0)),
    ("CodeSpec", "n", "real", 125.0, lambda v: CodeSpec(194.0, v)),
    ("rate_na", "n", "real", 138.0, lambda v: rate_na(CH, v, 1e-3)),
    ("rate_na", "eps", "real", 0.125, lambda v: rate_na(CH, 138.0, v)),
    ("min_blocklength", "k", "real", 193.0, lambda v: min_blocklength(CH, v, 1e-3)),
    ("min_blocklength", "eps_target", "real", 0.125, lambda v: min_blocklength(CH, 193.0, v)),
    ("QuasiStaticConfig", "snr", "real", 10.0, lambda v: QuasiStaticConfig(v)),
    ("QuasiStaticConfig", "m_t", "int", 2, lambda v: QuasiStaticConfig(10.0, m_t=v)),
    ("QuasiStaticConfig", "m_r", "int", 2, lambda v: QuasiStaticConfig(10.0, m_r=v)),
    ("outage_prob_siso", "snr", "real", 10.0, lambda v: outage_prob_siso(v, 2.0)),
    ("outage_prob_siso", "R", "real", 2.0, lambda v: outage_prob_siso(10.0, v)),
    ("outage_capacity_siso", "snr", "real", 10.0, lambda v: outage_capacity_siso(v, 0.1)),
    ("outage_capacity_siso", "eps", "real", 0.125, lambda v: outage_capacity_siso(10.0, v)),
    ("eps_quasistatic", "snr", "real", 10.0, lambda v: eps_quasistatic(v, 1.0, 168.0)),
    ("eps_quasistatic", "R", "real", 1.0, lambda v: eps_quasistatic(10.0, v, 168.0)),
    ("eps_quasistatic", "n", "real", 168.0, lambda v: eps_quasistatic(10.0, 1.0, v)),
    ("outage_prob_mimo_mc", "l", "int", 2, lambda v: outage_prob_mimo_mc(QS, v, 1.0, MIN_TRIALS)),
    ("outage_prob_mimo_mc", "R", "real", 1.0, lambda v: outage_prob_mimo_mc(QS, 1, v, MIN_TRIALS)),
    ("outage_prob_mimo_mc", "trials", "trials", MIN_TRIALS, lambda v: outage_prob_mimo_mc(QS, 1, 1.0, v)),
    ("outage_prob_mimo_mc", "seed", "int", 7, lambda v: outage_prob_mimo_mc(QS, 1, 1.0, MIN_TRIALS, v)),
    ("dmt_curve", "m_t", "int", 2, lambda v: dmt_curve(v, 2, DmtMode.COHERENT)),
    ("dmt_curve", "m_r", "int", 2, lambda v: dmt_curve(2, v, DmtMode.COHERENT)),
    ("dmt_curve_coherent", "n_c", "int", 4, lambda v: dmt_curve(2, 2, DmtMode.COHERENT, n_c=v)),
    ("dmt_curve_noncoherent", "n_c", "int", 10, lambda v: dmt_curve(2, 2, DmtMode.NONCOHERENT, n_c=v)),
    ("dmt_eval", "d", "real", 2.5, lambda v: dmt_eval(CURVE, v)),
    ("noncoherent_prelog", "m_t", "int", 4, lambda v: noncoherent_prelog(v, 2, 14)),
    ("noncoherent_prelog", "m_r", "int", 2, lambda v: noncoherent_prelog(4, v, 14)),
    ("noncoherent_prelog", "n_c", "int", 14, lambda v: noncoherent_prelog(4, 2, v)),
    ("TwoWayConfig", "k1", "real", 193.0, lambda v: TwoWayConfig(v, 97.0, CH)),
    ("TwoWayConfig", "k2", "real", 97.0, lambda v: TwoWayConfig(193.0, v, CH)),
    ("TwoWayConfig", "n_total", "int", 250, lambda v: TwoWayConfig(193.0, 97.0, CH, n_total=v)),
    ("TwoWayConfig", "target_reliability", "real", 0.875,
     lambda v: TwoWayConfig(193.0, 97.0, CH, target_reliability=v)),
    ("twoway_reliability", "n1", "int", 132, lambda v: twoway_reliability(TWO, v, 71)),
    ("twoway_reliability", "n2", "int", 71, lambda v: twoway_reliability(TWO, 132, v)),
    ("twoway_optimize", "k_i1", "real", 96.0,
     lambda v: twoway_optimize(TwoWayConfig(193.0, 97.0, CH, n_total=250), v)),
    ("twoway_optimize", "n_ceiling", "int", 300,
     lambda v: twoway_optimize(TwoWayConfig(193.0, 97.0, CH, target_reliability=0.999), 96.0, v)),
    ("twoway_tdd_eval", "k", "real", 194.0, lambda v: twoway_tdd_eval(v, 96.0, 125.0, CH)),
    ("twoway_tdd_eval", "k_i", "real", 96.0, lambda v: twoway_tdd_eval(194.0, v, 125.0, CH)),
    ("twoway_tdd_eval", "n_slot", "real", 125.0, lambda v: twoway_tdd_eval(194.0, 96.0, v, CH)),
    ("DownlinkConfig", "M", "int", 10, lambda v: DownlinkConfig(v, 192.0, 125.0, CH)),
    ("DownlinkConfig", "D", "real", 192.0, lambda v: DownlinkConfig(10, v, 125.0, CH)),
    ("DownlinkConfig", "n", "real", 125.0, lambda v: DownlinkConfig(10, 192.0, v, CH)),
    ("AlohaConfig", "M", "int", 10, lambda v: AlohaConfig(v, 192.0, 800.0, CH)),
    ("AlohaConfig", "D", "real", 192.0, lambda v: AlohaConfig(10, v, 800.0, CH)),
    ("AlohaConfig", "n", "real", 800.0, lambda v: AlohaConfig(10, 192.0, v, CH)),
    ("AlohaConfig", "K", "int", 6, lambda v: AlohaConfig(10, 192.0, 800.0, CH, K=v)),
    ("aloha_optimize", "k_max", "int", 5, lambda v: aloha_optimize(ALOHA, k_max=v)),
    ("sim_aloha", "trials", "trials", MIN_TRIALS, lambda v: sim_aloha(ALOHA, v)),
    ("sim_aloha", "seed", "int", 7, lambda v: sim_aloha(ALOHA, MIN_TRIALS, v)),
    ("sim_twoway", "n1", "int", 132, lambda v: sim_twoway(TWO, v, 71, MIN_TRIALS)),
    ("sim_twoway", "n2", "int", 71, lambda v: sim_twoway(TWO, 132, v, MIN_TRIALS)),
    ("sim_twoway", "trials", "trials", MIN_TRIALS, lambda v: sim_twoway(TWO, 132, 71, v)),
    ("sim_twoway", "seed", "int", 7, lambda v: sim_twoway(TWO, 132, 71, MIN_TRIALS, v)),
]
IDS = [f"{entry}-{param}" for entry, param, *_ in ROWS]
# parameters where None means "not set", which other tests cover
OPTIONAL = {
    "dmt_curve_coherent-n_c",
    "dmt_curve_noncoherent-n_c",
    "TwoWayConfig-n_total",
    "TwoWayConfig-target_reliability",
    "AlohaConfig-K",
    "aloha_optimize-k_max",
}

REAL_SCALARS = (np.float64, np.float32, np.float16)
INT_SCALARS = (np.int64, np.int32, np.uint16)
NOT_NUMBERS = (True, False, np.bool_(True), "1", None, 1 + 0j, np.complex128(1.0))
NOT_FINITE = (math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf))


def assert_plain(value):
    """Results and stored fields hold Python numbers, never numpy scalars."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            assert_plain(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for v in value:
            assert_plain(v)
    elif isinstance(value, dict):
        for v in value.values():
            assert_plain(v)
    else:
        assert not isinstance(value, np.generic), f"numpy scalar {value!r} in the result"


@pytest.mark.parametrize("entry, param, kind, valid, call", ROWS, ids=IDS)
def test_numpy_scalars_act_as_python_numbers(entry, param, kind, valid, call):
    expected = call(valid)
    assert_plain(expected)
    if kind == "real":
        scalars = [t(valid) for t in REAL_SCALARS] + [t(int(valid)) for t in INT_SCALARS if valid == int(valid)]
        for v in scalars:
            # compare with the Python float of the same value: float16 may round
            got = call(v)
            assert got == call(float(v)), f"{type(v).__name__}"
            assert_plain(got)
    else:
        for t in INT_SCALARS:
            got = call(t(valid))
            assert got == expected, f"{t.__name__}"
            assert_plain(got)


@pytest.mark.parametrize("entry, param, kind, valid, call", ROWS, ids=IDS)
def test_non_numbers_are_refused(entry, param, kind, valid, call):
    if kind == "real":
        bad = NOT_NUMBERS + NOT_FINITE + (10**400,)  # an int past the float range
    else:
        bad = NOT_NUMBERS + NOT_FINITE + (valid + 0.5, float(valid), np.float64(valid))
        if param != "seed":  # past 2**53, where floats stop counting exactly
            bad += (2**53 + 1, 10**400, np.uint64(2**64 - 1))
    if f"{entry}-{param}" in OPTIONAL:
        bad = tuple(v for v in bad if v is not None)
    for v in bad:
        with pytest.raises(ValueError, match=f"^{param} ") as info:
            call(v)
        # SimConfigError (CLI exit 4) is kept for trial counts
        assert isinstance(info.value, SimConfigError) == (kind == "trials"), repr(v)


# real parameters bounded like a count: the protocol configs' payloads and lengths
BOUNDED = ["TwoWayConfig-k1", "TwoWayConfig-k2", "DownlinkConfig-D", "DownlinkConfig-n", "AlohaConfig-D",
           "AlohaConfig-n"]


@pytest.mark.parametrize("entry, param, kind, valid, call", [ROWS[IDS.index(i)] for i in BOUNDED], ids=BOUNDED)
def test_protocol_payloads_and_lengths_stop_at_2_53(entry, param, kind, valid, call):
    assert getattr(call(2.0**53), param) == 2.0**53
    for v in (math.nextafter(2.0**53, math.inf), 1e300):
        with pytest.raises(ValueError, match=f"^{param} must be .* and <= 9007199254740992, got {re.escape(repr(v))}$"):
            call(v)


SNR_ROWS = [row for row in ROWS if row[1] == "snr"]


@pytest.mark.parametrize("entry, param, kind, valid, call", SNR_ROWS, ids=[row[0] for row in SNR_ROWS])
def test_snr_stops_at_2_to_the_minus_52_and_2_to_the_52(entry, param, kind, valid, call):
    # each edge is taken and gives a finite value; the next float past it
    # is refused, naming snr and giving the range in dB too
    assert [row[0] for row in SNR_ROWS] == [
        "Channel", "QuasiStaticConfig", "outage_prob_siso", "outage_capacity_siso", "eps_quasistatic"
    ]
    for edge in (2.0**-52, 2.0**52):
        got = call(edge)
        assert got.snr == edge if dataclasses.is_dataclass(got) else math.isfinite(got)
    for v in (math.nextafter(2.0**-52, 0.0), math.nextafter(2.0**52, math.inf), 5e-324, 1e308, 0.0, -1.0):
        with pytest.raises(ValueError, match=(
            rf"^snr must be >= 2\*\*-52 and <= 2\*\*52 \(-156\.5 to 156\.5 dB\), got {re.escape(repr(v))}$"
        )):
            call(v)
