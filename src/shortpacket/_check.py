"""The package's one input policy: what counts as a valid number.

Each helper returns its argument as a plain Python number or raises
ValueError naming the parameter.  A real is an int, a float or a numpy real
scalar, finite, and becomes a float, so all arithmetic runs in float64.  An
integer is an int or a numpy integer scalar and becomes an int; every float
is refused, 132.0 included, and so is a value past MAX_EXACT = 2**53 (where
floats stop counting exactly) unless the call sets its own le.  Every
payload and length, though real, stops there too: its real call sets
le=MAX_EXACT, and a length's sets ge=1 / MAX_EXACT (2**-53) or ge=1.  bool
is refused by both.  A linear SNR is a real in [2**-52, 2**52], -156.5 to
156.5 dB: at the bottom 1 + snr is the next float above 1, so capacity is
positive, and at the top every gain formed from it stays finite.  Checks
that relate one argument to another stay with their owners.

A numpy scalar cannot exist before numpy is loaded, so numpy types are
looked up in sys.modules, and this module never imports numpy itself.
"""

from __future__ import annotations

import math
import sys

__all__ = ["MAX_EXACT", "SimConfigError", "integer", "linear_snr", "probability", "real"]

MAX_EXACT = 2**53  # the largest count, payload or length: floats hold every integer up to it
SNR_MIN, SNR_MAX = 2.0**-52, 2.0**52  # the linear SNR range, -156.5 to 156.5 dB


class SimConfigError(ValueError):
    """A Monte-Carlo run configured too weakly to be meaningful; mcsim re-exports it."""


_OPS = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}


def _bounds(**limits: float | None) -> str:
    return " and ".join(f"{_OPS[op]} {lim}" for op, lim in limits.items() if lim is not None)


def _numpy_scalar(value: object, floating: bool) -> bool:
    """Whether value is a numpy integer scalar or, if floating, a numpy real one."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, (np.integer, np.floating) if floating else np.integer)


def real(name: str, value: object, *, gt: float | None = None, ge: float | None = None,
         lt: float | None = None, le: float | None = None) -> float:
    """value as a finite Python float within the bounds: gt/lt open, ge/le closed."""
    # an exact float, the common case, skips the type tests
    if type(value) is not float and (isinstance(value, bool) or not (
        isinstance(value, (int, float)) or _numpy_scalar(value, floating=True)
    )):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    low = x > gt if gt is not None else ge is None or x >= ge
    high = x < lt if lt is not None else le is None or x <= le
    if not (low and high):
        raise ValueError(f"{name} must be {_bounds(gt=gt, ge=ge, lt=lt, le=le)}, got {value!r}")
    return x


def probability(name: str, value: object) -> float:
    """value as a Python float strictly inside (0, 1)."""
    return real(name, value, gt=0.0, lt=1.0)


def linear_snr(value: object) -> float:
    """value as a Python float linear SNR within [SNR_MIN, SNR_MAX]."""
    x = real("snr", value)
    if not SNR_MIN <= x <= SNR_MAX:
        raise ValueError(f"snr must be >= 2**-52 and <= 2**52 (-156.5 to 156.5 dB), got {value!r}")
    return x


def integer(name: str, value: object, *, ge: int, le: int = MAX_EXACT,
            error: type[ValueError] = ValueError) -> int:
    """value as a Python int in [ge, le]; otherwise `error` naming the parameter."""
    if isinstance(value, bool) or not (isinstance(value, int) or _numpy_scalar(value, floating=False)):
        raise error(f"{name} must be an integer, got {value!r}")
    n = int(value)
    if n < ge or n > le:
        raise error(f"{name} must be an integer {_bounds(ge=ge, le=le)}, got {n}")
    return n
