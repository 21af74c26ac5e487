"""Command-line front end: one subcommand per library operation, parameter
sweeps, and table/json/csv output.

SNR is taken in dB on the command line and converted to a linear ratio
once, here; the library works in linear SNR throughout.  Sweeps re-run a
scalar-output subcommand over an inclusive arithmetic progression of one
parameter, at most _SWEEP_MAX_ROWS values, and emit one row per value,
which in --format csv is ready for any external plotting tool.

Every computing subcommand is one _Command entry in _COMMANDS: its
arguments, its compute function and whether it sweeps, in which case any
of its float and int options may be swept.  One handler, _run_command,
serves them all, found by the subcommand's name.

Importing this module loads no library module: compute functions reach
the library through the package (sp.eps_star), which loads a module on
first use, so eps loads specfun and awgn, and prelog adds fading.

Exit codes: 0 success, 1 failed reproduction rows, 2 argument errors,
3 domain and arithmetic errors (including a request too large for memory),
4 Monte-Carlo configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Any, Callable, NamedTuple

import shortpacket as sp

from ._check import SimConfigError, linear_snr

__all__ = ["run", "main"]

# A --sweep or a dmt table yields at most this many rows; past it the
# command exits 2 before building any value.  That is about 100 times the
# 1001-row sweeps used in practice, and the row list always fits in memory.
_SWEEP_MAX_ROWS = 100_000


class _ArgError(Exception):
    """Bad argument combination detected after argparse (exit code 2)."""


class _Output(NamedTuple):
    """What a subcommand produced: named scalars, plus optional rows."""

    scalars: dict[str, Any]
    rows_name: str | None = None
    rows: list[dict[str, Any]] | None = None


def _snr(args: argparse.Namespace) -> float:
    try:
        return linear_snr(10.0 ** (args.snr_db / 10.0))
    except (OverflowError, ValueError):
        raise ValueError(f"--snr-db must be within -156.5 to 156.5 dB (a linear snr in [2**-52, 2**52]), "
                         f"got {args.snr_db!r}") from None


def _channel(args: argparse.Namespace) -> sp.Channel:
    return sp.Channel(snr=_snr(args), convention=sp.Convention(args.convention))


# ---------------------------------------------------------------------------
# output rendering


def _cell(v: Any, real: Callable[[float], str]) -> str:
    """One output cell; real formats the floats."""
    return real(v) if isinstance(v, float) else str(v)


_SHORT = "{:.6g}".format


def _render_table(out: _Output) -> str:
    lines: list[str] = []
    if out.scalars:
        width = max(len(k) for k in out.scalars)
        for k, v in out.scalars.items():
            lines.append(f"{k:<{width + 2}}{_cell(v, _SHORT)}")
    if out.rows:
        if lines:
            lines.append("")
        cols = list(out.rows[0].keys())
        cells = [[_cell(r[c], _SHORT) for c in cols] for r in out.rows]
        widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip())
        for row in cells:
            lines.append("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(out: _Output) -> str:
    if out.rows:
        cols = list(out.rows[0].keys())
        lines = [",".join(cols)]
        lines.extend(",".join(_cell(r[c], repr) for c in cols) for r in out.rows)
    else:
        cols = list(out.scalars.keys())
        lines = [",".join(cols), ",".join(_cell(v, repr) for v in out.scalars.values())]
    return "\n".join(lines) + "\n"


def _render_json(out: _Output) -> str:
    payload: dict[str, Any] = dict(out.scalars)
    if out.rows is not None:
        payload[out.rows_name] = out.rows
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write(args: argparse.Namespace, out: _Output) -> None:
    if args.format == "json":
        text = _render_json(out)
    elif args.format == "csv":
        text = _render_csv(out)
    else:
        text = _render_table(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# sweeps and the one handler


def _parse_sweep(spec: str, allowed: dict[str, Callable[[float], Any]]) -> tuple[str, list[Any]]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise _ArgError(f"--sweep expects PARAM:START:STOP:STEP, got {spec!r}")
    name = parts[0].replace("-", "_")
    if name not in allowed:
        raise _ArgError(f"cannot sweep {parts[0]!r}; sweepable here: {', '.join(sorted(allowed))}")
    try:
        start, stop, step = (float(p) for p in parts[1:])
    except ValueError:
        raise _ArgError(f"--sweep bounds must be numeric, got {spec!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise _ArgError(f"--sweep bounds must be finite, got {spec!r}")
    if step <= 0.0:
        raise _ArgError(f"--sweep step must be positive, got {step}")
    if stop < start:
        raise _ArgError(f"--sweep stop must be >= start, got {spec!r}")
    last = (stop - start) / step + 1e-9  # may be inf when stop - start overflows
    if not last < _SWEEP_MAX_ROWS:
        raise _ArgError(f"--sweep {spec!r} asks for more than {_SWEEP_MAX_ROWS} rows")
    conv = allowed[name]
    return name, [conv(start + i * step) for i in range(math.floor(last) + 1)]


def _int_value(v: float) -> int:
    return int(round(v))


def _run_command(args: argparse.Namespace) -> int:
    (cmd,) = [c for c in _COMMANDS if c.name == args.command]
    if getattr(args, "sweep", None) is not None:
        name, values = _parse_sweep(args.sweep, cmd.sweep_params())
        rows = []
        for v in values:
            setattr(args, name, v)
            rows.append({name: v, **cmd.compute(args)})
        out = _Output(scalars={}, rows_name="sweep", rows=rows)
    else:
        out = cmd.compute(args)
    _write(args, out if isinstance(out, _Output) else _Output(scalars=out))
    return 0


# ---------------------------------------------------------------------------
# compute functions: a dict of scalars, or an _Output with rows


def _asdict(result: Any) -> dict[str, Any]:
    from dataclasses import asdict  # it loads inspect, which a CLI start need not

    return asdict(result)


def _report(rep: sp.SimReport, name: str) -> dict[str, Any]:
    return {name: rep.estimate, "std_error": rep.std_error, "trials": rep.trials, "seed": rep.seed}


def _compute_eps(args: argparse.Namespace) -> dict[str, Any]:
    ch = _channel(args)
    code = sp.CodeSpec(args.k, args.n)
    return {"eps": sp.eps_star(ch, code), "log_eps": sp.eps_star_log(ch, code)}


def _compute_twoway_opt(args: argparse.Namespace) -> dict[str, Any]:
    cfg = sp.TwoWayConfig(
        args.k1, args.k2, _channel(args), n_total=args.n, target_reliability=args.target
    )
    res = sp.twoway_optimize(cfg, args.ki1)
    return {**_asdict(res), "feasible": int(res.feasible)}


def _compute_aloha(args: argparse.Namespace) -> dict[str, Any]:
    ch = _channel(args)
    cfg = sp.AlohaConfig(args.devices, args.bits, args.frame, ch, K=args.slots)
    p = sp.aloha_success(cfg, assume_perfect_decoding=args.perfect_decoding)
    if args.perfect_decoding:
        eps = 0.0
    else:
        eps = sp.eps_star(ch, sp.CodeSpec(cfg.D, cfg.slot_length))
    return {"p_success": p, "eps": eps, "slot_length": cfg.slot_length}


def _compute_dmt(args: argparse.Namespace) -> _Output:
    if min(args.mt, args.mr) >= _SWEEP_MAX_ROWS:  # the table has min + 1 rows
        raise _ArgError(f"dmt asks for more than {_SWEEP_MAX_ROWS} breakpoints")
    curve = sp.dmt_curve(args.mt, args.mr, sp.DmtMode(args.mode), n_c=args.nc)
    scalars: dict[str, Any] = {"scaling": curve.scaling}
    if args.at is not None:
        scalars["multiplexing_at_d"] = sp.dmt_eval(curve, args.at)
    rows = [{"diversity": d, "multiplexing": r} for d, r in curve.breakpoints]
    return _Output(scalars, rows_name="breakpoints", rows=rows)


def _compute_prelog(args: argparse.Namespace) -> dict[str, Any]:
    from .fading import _m_star

    prelog = sp.noncoherent_prelog(args.mt, args.mr, args.nc)
    return {"prelog": prelog, "m_star": _m_star(args.mt, args.mr, args.nc)}


def _compute_aloha_opt(args: argparse.Namespace) -> _Output:
    cfg = sp.AlohaConfig(args.devices, args.bits, args.frame, _channel(args))
    res = sp.aloha_optimize(cfg, k_max=args.k_max, assume_perfect_decoding=args.perfect_decoding)
    rows = [{"slots": k, "p_success": p} for k, p in res.profile]
    return _Output({"k_opt": res.k_opt}, rows_name="profile", rows=rows)


def _compute_sim_aloha(args: argparse.Namespace) -> dict[str, Any]:
    cfg = sp.AlohaConfig(args.devices, args.bits, args.frame, _channel(args), K=args.slots)
    reps = sp.sim_aloha(cfg, args.trials, args.seed)
    return {
        "per_slot_throughput": reps.per_slot_throughput.estimate,
        "per_slot_std_error": reps.per_slot_throughput.std_error,
        "per_device_success": reps.per_device_success.estimate,
        "per_device_std_error": reps.per_device_success.std_error,
        "slot_length": reps.per_slot_throughput.config["slot_length"],
        "trials": reps.per_slot_throughput.trials,
        "seed": reps.per_slot_throughput.seed,
    }


# ---------------------------------------------------------------------------
# the subcommand table

# an argument: its flag and its add_argument keywords
_Arg = tuple[str, dict[str, Any]]


def _opt(flag: str, **kwargs: Any) -> _Arg:
    return flag, kwargs


def _req(flag: str, type_: Callable[[str], Any], help: str) -> _Arg:
    return _opt(flag, type=type_, required=True, help=help)


_SNR = _req("--snr-db", float, "SNR in dB")
_CHANNEL = (
    _SNR,
    _opt("--convention", choices=("complex", "real"), default="complex",
         help="channel-use accounting (default complex; real halves C and V)"),
)
_MC = (
    _opt("--trials", type=int, default=100_000, help="Monte-Carlo trials (default 100000)"),
    _opt("--seed", type=int, default=0, help="64-bit seed (default 0)"),
)
_OUTPUT = (
    _opt("--format", choices=("table", "json", "csv"), default="table", help="output format (default table)"),
    _opt("--output", metavar="PATH", help="write to a file instead of stdout"),
)
_SWEEP = _opt("--sweep", metavar="PARAM:START:STOP:STEP",
              help="re-run over an inclusive arithmetic progression of one parameter")
_N = _req("--n", float, "blocklength in channel uses")
_K = _req("--k", float, "information bits per packet")
_RATE = _req("--rate", float, "rate in bits per channel use")
_MT = _req("--mt", int, "transmit antennas")
_MR = _req("--mr", int, "receive antennas")
_K1 = _req("--k1", float, "bits in the forward packet")
_K2 = _req("--k2", float, "bits in the return packet")
_DEVICES = _req("--devices", int, "number of devices M")
_BITS = _req("--bits", float, "bits per packet D")
_FRAME = _req("--frame", float, "frame length in channel uses")
_SLOTS = _req("--slots", int, "slot count K")
_PERFECT = _opt("--perfect-decoding", action="store_true", help="drop the finite-blocklength decoding factor")
_ALOHA_OPTIONS = {"M": "--devices", "D": "--bits", "n": "--frame", "K": "--slots"}  # config field: option
_OPTIONS = {"aloha": _ALOHA_OPTIONS, "aloha-opt": _ALOHA_OPTIONS, "sim-aloha": _ALOHA_OPTIONS,
            "downlink": {"M": "--devices", "D": "--bits", "n": "--slot"}}


class _Command(NamedTuple):
    """One computing subcommand.  args are in --help order, and a list among
    them is a required mutually exclusive group; a command that sweeps may
    sweep each of its float and int options."""

    name: str
    help: str
    args: tuple[_Arg | list[_Arg], ...]
    compute: Callable[[argparse.Namespace], dict[str, Any] | _Output]
    sweeps: bool = True

    def sweep_params(self) -> dict[str, Callable[[float], Any]]:
        """The dest of each float and int option, mapped to the type a swept value takes."""
        conv = {float: float, int: _int_value}
        flat = [a for arg in self.args for a in (arg if isinstance(arg, list) else [arg])]
        return {flag[2:].replace("-", "_"): conv[kw["type"]] for flag, kw in flat if kw.get("type") in conv}


_COMMANDS = (
    _Command("rate", "normal-approximation coding rate at (n, eps)",
             (_N, _req("--eps", float, "packet error probability"), *_CHANNEL),
             lambda a: _asdict(sp.rate_na(_channel(a), a.n, a.eps))),
    _Command("eps", "error probability of the best (k, n) code",
             (_K, _N, *_CHANNEL),
             _compute_eps),
    _Command("min-n", "smallest blocklength meeting a target error probability",
             (_K, _req("--eps", float, "target error probability"), *_CHANNEL),
             lambda a: {"n_min": sp.min_blocklength(_channel(a), a.k, a.eps)}),
    _Command("outage", "Rayleigh outage probability at a rate",
             (_RATE, _SNR),
             lambda a: {"p_out": sp.outage_prob_siso(_snr(a), a.rate)}),
    _Command("outage-cap", "Rayleigh outage capacity at a target outage",
             (_req("--eps", float, "outage probability target"), _SNR),
             lambda a: {"c_eps": sp.outage_capacity_siso(_snr(a), a.eps)}),
    _Command("qs-eps", "finite-blocklength error probability on the quasi-static Rayleigh channel",
             (_RATE, _N, _SNR),
             lambda a: {"eps": sp.eps_quasistatic(_snr(a), a.rate, a.n)}),
    _Command("mimo-outage", "MIMO outage probability by Monte-Carlo",
             (_MT, _MR, _opt("--branches", type=int, default=1,
                             help="independent fading blocks per codeword (default 1)"),
              _RATE, _SNR, *_MC),
             lambda a: _report(sp.outage_prob_mimo_mc(sp.QuasiStaticConfig(_snr(a), a.mt, a.mr), a.branches,
                                                      a.rate, a.trials, a.seed), "outage_probability"),
             sweeps=False),
    _Command("dmt", "diversity-multiplexing tradeoff breakpoints",
             (_MT, _MR, _opt("--mode", choices=("coherent", "noncoherent"), default="coherent"),
              _opt("--nc", type=int, help="coherence interval (required for noncoherent)"),
              _opt("--at", type=float, help="also evaluate multiplexing at this diversity")),
             _compute_dmt,
             sweeps=False),
    _Command("prelog", "noncoherent block-fading capacity pre-log",
             (_MT, _MR, _req("--nc", int, "coherence interval in channel uses")),
             _compute_prelog),
    _Command("twoway-opt", "optimize the blocklength split of a two-way exchange",
             (_K1, _K2, _req("--ki1", float, "information bits credited per exchange"),
              [_opt("--n", type=int, help="fixed total blocklength (maximize reliability)"),
               _opt("--target", type=float, help="target reliability (minimize total blocklength)")],
              *_CHANNEL),
             _compute_twoway_opt),
    _Command("twoway-tdd", "TDD round error probability and throughput",
             (_req("--k", float, "total bits per slot (payload plus overhead)"),
              _req("--ki", float, "information bits credited per slot"),
              _req("--n-slot", float, "slot length in channel uses"), *_CHANNEL),
             lambda a: _asdict(sp.twoway_tdd_eval(a.k, a.ki, a.n_slot, _channel(a)))),
    _Command("downlink", "downlink broadcast: per-device packets vs one concatenated packet",
             (_DEVICES, _req("--bits", float, "bits per device D"),
              _req("--slot", float, "per-device slot length n"), *_CHANNEL),
             lambda a: _asdict(sp.downlink_compare(sp.DownlinkConfig(a.devices, a.bits, a.slot, _channel(a))))),
    _Command("aloha", "framed slotted ALOHA per-slot success probability",
             (_DEVICES, _BITS, _FRAME, _SLOTS, _PERFECT, *_CHANNEL),
             _compute_aloha),
    _Command("aloha-opt", "slot count maximizing ALOHA per-slot success",
             (_DEVICES, _BITS, _FRAME,
              _opt("--k-max", type=int, help="largest slot count scanned (default 4*devices)"),
              _PERFECT, *_CHANNEL),
             _compute_aloha_opt,
             sweeps=False),
    _Command("sim-aloha", "simulate framed slotted ALOHA",
             (_DEVICES, _BITS, _FRAME, _SLOTS, *_CHANNEL, *_MC),
             _compute_sim_aloha,
             sweeps=False),
    _Command("sim-twoway", "simulate the two-way exchange at a fixed split",
             (_K1, _K2, _req("--n1", int, "forward blocklength"), _req("--n2", int, "return blocklength"),
              *_CHANNEL, *_MC),
             lambda a: _report(sp.sim_twoway(sp.TwoWayConfig(a.k1, a.k2, _channel(a)), a.n1, a.n2, a.trials,
                                            a.seed), "reliability"),
             sweeps=False),
)


# ---------------------------------------------------------------------------
# reproduction suite


def _run_reproduce(args: argparse.Namespace) -> int:
    from .repro import ROWS

    rows = ROWS
    if args.rows is not None:
        names = [name for name, _ in ROWS]
        wanted = [w.strip() for w in args.rows.split(",") if w.strip()]
        unknown = [w for w in wanted if w not in names]
        if unknown or not wanted:
            problem = f"unknown row(s) {', '.join(unknown)}" if unknown else "--rows names no row"
            raise _ArgError(f"{problem}; known rows: {', '.join(names)}")
        rows = [row for row in ROWS if row[0] in wanted]
    if args.list:
        for name, _ in rows:
            print(name)
        return 0
    all_ok = True
    for name, fn in rows:
        ok, detail = fn()
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds no per-command callable,
    since run() dispatches on the subcommand's name."""
    parser = argparse.ArgumentParser(
        prog="shortpacket",
        description="Finite-blocklength performance toolkit for short-packet wireless links.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    for cmd in _COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        for arg in (*cmd.args, *_OUTPUT, *((_SWEEP,) if cmd.sweeps else ())):
            if isinstance(arg, list):
                target, members = p.add_mutually_exclusive_group(required=True), arg
            else:
                target, members = p, [arg]
            for flag, kwargs in members:
                target.add_argument(flag, **kwargs)

    p = sub.add_parser(
        "reproduce-paper",
        help="run the bundled reproduction checks and print pass/fail per row",
    )
    p.add_argument("--list", action="store_true", help="print row names only, no computation")
    p.add_argument("--rows", default=None, metavar="NAME[,NAME...]", help="run only the named rows")

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute one subcommand, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code  # argparse exits with an int status
    try:
        return _run_reproduce(args) if args.command == "reproduce-paper" else _run_command(args)
    except (_ArgError, OSError) as exc:  # OSError: --output cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError) as exc:  # e.g. OverflowError from stdlib math
        field, space, rest = (str(exc) or type(exc).__name__).partition(" ")  # may lead with a config field
        print(f"error: {_OPTIONS.get(args.command, {}).get(field, field)}{space}{rest}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # e.g. numpy refusing an array past the address space
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
