"""Every public function that takes a float, given a float at the edge of
the range (-0, the least subnormal, a deep subnormal, 1e308, 1.7e308,
+-inf, nan) in any of its float parameters, returns a value whose every
float is finite, or raises ValueError.  The simulators run MIN_TRIALS
trials, the two-way target search stops at a 300-use ceiling and the DMT
curve is 2 x 2, so the whole file stays within a few seconds."""

import dataclasses
import enum
import math
from collections.abc import Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shortpacket
from shortpacket import (
    AlohaConfig,
    Channel,
    CodeSpec,
    DmtMode,
    DownlinkConfig,
    MIN_TRIALS,
    QuasiStaticConfig,
    TwoWayConfig,
    aloha_optimize,
    aloha_success,
    capacity,
    dispersion,
    dmt_curve,
    dmt_eval,
    downlink_compare,
    eps_quasistatic,
    eps_star,
    eps_star_log,
    log_q_func,
    min_blocklength,
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

EDGES = (-0.0, 5e-324, 1e-320, 1e308, 1.7e308, math.inf, -math.inf, math.nan)
CURVE = dmt_curve(2, 2, DmtMode.COHERENT)

# name -> (the float parameters with a valid value each, a call taking them)
ROWS = {
    "q_func": ({"x": 1.5}, lambda x: q_func(x)),
    "log_q_func": ({"x": 1.5}, lambda x: log_q_func(x)),
    "q_inv": ({"p": 0.25}, lambda p: q_inv(p)),
    "capacity": ({"snr": 10.0}, lambda snr: capacity(Channel(snr))),
    "dispersion": ({"snr": 10.0}, lambda snr: dispersion(Channel(snr))),
    "rate_na": ({"snr": 10.0, "n": 138.0, "eps": 0.125}, lambda snr, n, eps: rate_na(Channel(snr), n, eps)),
    "eps_star": ({"snr": 10.0, "k": 194.0, "n": 125.0}, lambda snr, k, n: eps_star(Channel(snr), CodeSpec(k, n))),
    "eps_star_log": ({"snr": 10.0, "k": 194.0, "n": 125.0},
                     lambda snr, k, n: eps_star_log(Channel(snr), CodeSpec(k, n))),
    "min_blocklength": ({"snr": 10.0, "k": 193.0, "eps_target": 0.125},
                        lambda snr, k, eps_target: min_blocklength(Channel(snr), k, eps_target)),
    "outage_prob_siso": ({"snr": 10.0, "R": 2.0}, lambda snr, R: outage_prob_siso(snr, R)),
    "outage_capacity_siso": ({"snr": 10.0, "eps": 0.125}, lambda snr, eps: outage_capacity_siso(snr, eps)),
    "eps_quasistatic": ({"snr": 10.0, "R": 1.0, "n": 168.0}, lambda snr, R, n: eps_quasistatic(snr, R, n)),
    "dmt_eval": ({"d": 2.5}, lambda d: dmt_eval(CURVE, d)),
    "twoway_reliability": ({"snr": 10.0, "k1": 193.0, "k2": 97.0},
                           lambda snr, k1, k2: twoway_reliability(TwoWayConfig(k1, k2, Channel(snr)), 132, 71)),
    "twoway_optimize": ({"snr": 10.0, "k1": 193.0, "k2": 97.0, "k_i1": 96.0},
                        lambda snr, k1, k2, k_i1: twoway_optimize(
                            TwoWayConfig(k1, k2, Channel(snr), n_total=250), k_i1)),
    "twoway_optimize_target": ({"snr": 10.0, "k1": 193.0, "k2": 97.0, "target": 0.875, "k_i1": 96.0},
                               lambda snr, k1, k2, target, k_i1: twoway_optimize(
                                   TwoWayConfig(k1, k2, Channel(snr), target_reliability=target), k_i1, 300)),
    "twoway_tdd_eval": ({"k": 194.0, "k_i": 96.0, "n_slot": 125.0, "snr": 10.0},
                        lambda k, k_i, n_slot, snr: twoway_tdd_eval(k, k_i, n_slot, Channel(snr))),
    "downlink_compare": ({"D": 192.0, "n": 125.0, "snr": 10.0},
                         lambda D, n, snr: downlink_compare(DownlinkConfig(10, D, n, Channel(snr)))),
    "aloha_success": ({"D": 192.0, "n": 800.0, "snr": 10.0},
                      lambda D, n, snr: aloha_success(AlohaConfig(10, D, n, Channel(snr), K=6))),
    "aloha_optimize": ({"D": 192.0, "n": 800.0, "snr": 10.0},
                       lambda D, n, snr: aloha_optimize(AlohaConfig(10, D, n, Channel(snr)))),
    "sim_aloha": ({"D": 192.0, "n": 800.0, "snr": 10.0},
                  lambda D, n, snr: sim_aloha(AlohaConfig(10, D, n, Channel(snr), K=6), MIN_TRIALS)),
    "sim_twoway": ({"snr": 10.0, "k1": 193.0, "k2": 97.0},
                   lambda snr, k1, k2: sim_twoway(TwoWayConfig(k1, k2, Channel(snr)), 132, 71, MIN_TRIALS)),
    "outage_prob_mimo_mc": ({"snr": 10.0, "R": 1.0},
                            lambda snr, R: outage_prob_mimo_mc(QuasiStaticConfig(snr), 1, R, MIN_TRIALS)),
}
# public functions whose parameters are all integers or enum members
NO_FLOATS = {"dmt_curve", "noncoherent_prelog"}


def finite(value) -> bool:
    """Every float in value, through dataclass fields, sequences and dict values, is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (bool, int, str, enum.Enum)):
        return True
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(finite(v) for v in value.values())
    if isinstance(value, Sequence):
        return all(finite(v) for v in value)
    raise TypeError(f"unexpected {type(value).__name__} in a result")


def finite_or_refused(call, args):
    try:
        out = call(**args)
    except ValueError:
        return True
    return finite(out)


def test_every_public_float_function_has_a_row():
    functions = {name for name in shortpacket.__all__
                 if callable(getattr(shortpacket, name)) and not isinstance(getattr(shortpacket, name), type)}
    covered = {name.removesuffix("_target") for name in ROWS}
    assert functions - NO_FLOATS == covered


# known defects, each a strict xfail below: (name, parameter) -> (edges, reason)
DEFECTS = {}


def known_defect(name, args):
    return any(args.get(param) in edges for (row, param), (edges, _) in DEFECTS.items() if row == name)


def one_at_a_time():
    for name, (base, _) in ROWS.items():
        for param in base:
            for edge in EDGES:
                edges, reason = DEFECTS.get((name, param), ((), ""))
                marks = pytest.mark.xfail(strict=True, reason=reason) if edge in edges else ()
                yield pytest.param(name, param, edge, marks=marks, id=f"{name}-{param}-{edge!r}")


@pytest.mark.parametrize("name, param, edge", one_at_a_time())
def test_one_edge_float_gives_a_finite_result_or_value_error(name, param, edge):
    base, call = ROWS[name]
    assert finite_or_refused(call, {**base, param: edge})


@st.composite
def _edge_args(draw):
    name = draw(st.sampled_from(sorted(ROWS)))
    base, _ = ROWS[name]
    return name, {p: draw(st.sampled_from((v, *EDGES))) for p, v in base.items()}


@settings(max_examples=150)
@given(_edge_args())
def test_edge_floats_together_give_a_finite_result_or_value_error(drawn):
    name, args = drawn
    assume(not known_defect(name, args))
    assert finite_or_refused(ROWS[name][1], args), (name, args)
