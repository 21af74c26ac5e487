"""Finite-blocklength performance toolkit for short-packet wireless links.

Closed-form normal-approximation rate/error/blocklength trade-offs on the
Gaussian channel, quasi-static fading metrics (outage, finite-blocklength
error, DMT, pre-log), short-packet protocol optimizers (two-way exchange,
TDD, downlink broadcast, framed slotted ALOHA), and seeded Monte-Carlo
simulators that cross-check the closed forms.

Importing the package loads none of its modules (PEP 562): each loads on
first use of its name or of a public name it declares.
"""

import importlib

__version__ = "0.1.0"
_MODULES = ("specfun", "awgn", "fading", "protocols", "mcsim")  # their __all__ in order is the package's
# submodules outside the library: `from shortpacket import cli` asks for the
# name first, and the import system loads them once it is refused.  Private
# names (`_check`, or `__wrapped__` from inspect) are refused at once too:
# no public name starts with an underscore
_FRONT_ENDS = ("cli", "repro")


def __getattr__(name: str) -> object:
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = ["__version__", *(n for m in _MODULES for n in __getattr__(m).__all__)]
    else:
        homes = () if name in _FRONT_ENDS or name.startswith("_") else map(__getattr__, _MODULES)
        home = next((m for m in homes if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
