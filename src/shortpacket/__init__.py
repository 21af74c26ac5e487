"""Finite-blocklength performance toolkit for short-packet wireless links.

Closed-form normal-approximation rate/error/blocklength trade-offs on the
Gaussian channel, quasi-static fading metrics (outage, finite-blocklength
error, DMT, pre-log), short-packet protocol optimizers (two-way exchange,
TDD, downlink broadcast, framed slotted ALOHA), and seeded Monte-Carlo
simulators that cross-check the closed forms.
"""

from .awgn import (
    Channel,
    CodeSpec,
    Convention,
    RateResult,
    capacity,
    dispersion,
    eps_star,
    eps_star_log,
    min_blocklength,
    rate_na,
)
from .fading import (
    DmtCurve,
    DmtMode,
    QuasiStaticConfig,
    dmt_curve,
    dmt_eval,
    eps_quasistatic,
    noncoherent_prelog,
    outage_capacity_siso,
    outage_prob_mimo_mc,
    outage_prob_siso,
)
from .mcsim import (
    MIN_TRIALS,
    AlohaSimReports,
    SimConfigError,
    SimReport,
    sim_aloha,
    sim_twoway,
)
from .protocols import (
    AlohaConfig,
    AlohaOptResult,
    DownlinkConfig,
    DownlinkResult,
    TddResult,
    TwoWayConfig,
    TwoWayResult,
    aloha_optimize,
    aloha_success,
    downlink_compare,
    twoway_optimize,
    twoway_reliability,
    twoway_tdd_eval,
)
from .specfun import log_q_func, q_func, q_inv

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # special functions
    "q_func",
    "q_inv",
    "log_q_func",
    # gaussian channel
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
    # fading
    "QuasiStaticConfig",
    "DmtMode",
    "DmtCurve",
    "outage_prob_siso",
    "outage_capacity_siso",
    "eps_quasistatic",
    "outage_prob_mimo_mc",
    "dmt_curve",
    "dmt_eval",
    "noncoherent_prelog",
    # protocols
    "TwoWayConfig",
    "TwoWayResult",
    "TddResult",
    "DownlinkConfig",
    "DownlinkResult",
    "AlohaConfig",
    "AlohaOptResult",
    "twoway_reliability",
    "twoway_optimize",
    "twoway_tdd_eval",
    "downlink_compare",
    "aloha_success",
    "aloha_optimize",
    # simulation
    "SimReport",
    "SimConfigError",
    "AlohaSimReports",
    "MIN_TRIALS",
    "sim_aloha",
    "sim_twoway",
]
