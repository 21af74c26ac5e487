"""Finite-blocklength performance toolkit for short-packet wireless links.

Closed-form normal-approximation rate/error/blocklength trade-offs on the
Gaussian channel, quasi-static fading metrics (outage, finite-blocklength
error, DMT, pre-log), short-packet protocol optimizers (two-way exchange,
TDD, downlink broadcast, framed slotted ALOHA), and seeded Monte-Carlo
simulators that cross-check the closed forms.
"""

from . import awgn, fading, mcsim, protocols, specfun
from .awgn import *
from .fading import *
from .mcsim import *
from .protocols import *
from .specfun import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *specfun.__all__,
    *awgn.__all__,
    *fading.__all__,
    *protocols.__all__,
    *mcsim.__all__,
]
