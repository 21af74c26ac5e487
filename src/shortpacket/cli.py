"""Command-line front end: one subcommand per library operation, parameter
sweeps, and table/json/csv output.

SNR is taken in dB on the command line and converted to a linear ratio
once, here; the library works in linear SNR throughout.  Sweeps re-run a
scalar-output subcommand over an inclusive arithmetic progression of one
parameter and emit one row per value, which in --format csv is ready for
any external plotting tool.

Exit codes: 0 success, 1 failed reproduction rows, 2 argument errors,
3 domain errors, 4 Monte-Carlo configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from .awgn import (
    Channel,
    CodeSpec,
    Convention,
    eps_star,
    eps_star_log,
    min_blocklength,
    rate_na,
)
from .fading import (
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
from .mcsim import SimConfigError, sim_aloha, sim_twoway
from .protocols import (
    AlohaConfig,
    DownlinkConfig,
    TwoWayConfig,
    aloha_optimize,
    aloha_success,
    downlink_compare,
    twoway_optimize,
    twoway_tdd_eval,
)
from .repro import ROWS

__all__ = ["run", "main"]


class _ArgError(Exception):
    """Bad argument combination detected after argparse (exit code 2)."""


@dataclass
class _Output:
    """What a subcommand produced: named scalars, plus optional rows."""

    scalars: dict[str, Any]
    rows_name: str | None = None
    rows: list[dict[str, Any]] | None = field(default=None)


def _snr(args: argparse.Namespace) -> float:
    try:
        return 10.0 ** (args.snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"--snr-db {args.snr_db!r} is past the float range") from None


def _channel(args: argparse.Namespace) -> Channel:
    return Channel(snr=_snr(args), convention=Convention(args.convention))


# ---------------------------------------------------------------------------
# output rendering


def _fmt_cell(v: Any) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _csv_cell(v: Any) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _render_table(out: _Output) -> str:
    lines: list[str] = []
    if out.scalars:
        width = max(len(k) for k in out.scalars)
        for k, v in out.scalars.items():
            lines.append(f"{k:<{width + 2}}{_fmt_cell(v)}")
    if out.rows:
        if lines:
            lines.append("")
        cols = list(out.rows[0].keys())
        cells = [[_fmt_cell(r[c]) for c in cols] for r in out.rows]
        widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip())
        for row in cells:
            lines.append("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(out: _Output) -> str:
    if out.rows:
        cols = list(out.rows[0].keys())
        lines = [",".join(cols)]
        lines.extend(",".join(_csv_cell(r[c]) for c in cols) for r in out.rows)
    else:
        cols = list(out.scalars.keys())
        lines = [",".join(cols), ",".join(_csv_cell(v) for v in out.scalars.values())]
    return "\n".join(lines) + "\n"


def _render_json(out: _Output) -> str:
    payload: dict[str, Any] = dict(out.scalars)
    if out.rows is not None:
        payload[out.rows_name or "rows"] = out.rows
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write(args: argparse.Namespace, out: _Output) -> None:
    fmt = getattr(args, "format", "table")
    if fmt == "json":
        text = _render_json(out)
    elif fmt == "csv":
        text = _render_csv(out)
    else:
        text = _render_table(out)
    path = getattr(args, "output", None)
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# sweeps


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
    conv = allowed[name]
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return name, [conv(start + i * step) for i in range(count)]


def _int_value(v: float) -> int:
    return int(round(v))


def _run_scalar(args: argparse.Namespace) -> int:
    if getattr(args, "sweep", None):
        name, values = _parse_sweep(args.sweep, args.sweep_params)
        rows = []
        for v in values:
            setattr(args, name, v)
            rows.append({name: v, **args.compute(args)})
        _write(args, _Output(scalars={}, rows_name="sweep", rows=rows))
    else:
        _write(args, _Output(scalars=args.compute(args)))
    return 0


def _run_plain(args: argparse.Namespace) -> int:
    _write(args, args.build(args))
    return 0


# ---------------------------------------------------------------------------
# subcommand computations (scalar-output; sweepable)


def _compute_rate(args: argparse.Namespace) -> dict[str, Any]:
    r = rate_na(_channel(args), args.n, args.eps)
    return {
        "rate": r.rate,
        "capacity": r.capacity,
        "dispersion": r.dispersion,
        "penalty": r.penalty,
        "correction": r.correction,
    }


def _compute_eps(args: argparse.Namespace) -> dict[str, Any]:
    ch = _channel(args)
    code = CodeSpec(args.k, args.n)
    return {"eps": eps_star(ch, code), "log_eps": eps_star_log(ch, code)}


def _compute_min_n(args: argparse.Namespace) -> dict[str, Any]:
    return {"n_min": min_blocklength(_channel(args), args.k, args.eps)}


def _compute_outage(args: argparse.Namespace) -> dict[str, Any]:
    return {"p_out": outage_prob_siso(_snr(args), args.rate)}


def _compute_outage_cap(args: argparse.Namespace) -> dict[str, Any]:
    return {"c_eps": outage_capacity_siso(_snr(args), args.eps)}


def _compute_qs_eps(args: argparse.Namespace) -> dict[str, Any]:
    return {"eps": eps_quasistatic(_snr(args), args.rate, args.n)}


def _compute_prelog(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "prelog": noncoherent_prelog(args.mt, args.mr, args.nc),
        "m_star": min(args.mt, args.mr, args.nc // 2),
    }


def _compute_twoway_opt(args: argparse.Namespace) -> dict[str, Any]:
    cfg = TwoWayConfig(
        args.k1, args.k2, _channel(args), n_total=args.n, target_reliability=args.target
    )
    res = twoway_optimize(cfg, args.ki1)
    return {
        "feasible": int(res.feasible),
        "n": res.n,
        "n1": res.n1,
        "n2": res.n2,
        "reliability": res.reliability,
        "throughput": res.throughput,
    }


def _compute_twoway_tdd(args: argparse.Namespace) -> dict[str, Any]:
    r = twoway_tdd_eval(args.k, args.ki, args.n_slot, _channel(args))
    return {"eps": r.eps, "throughput": r.throughput}


def _compute_downlink(args: argparse.Namespace) -> dict[str, Any]:
    res = downlink_compare(DownlinkConfig(args.devices, args.bits, args.slot, _channel(args)))
    return {
        "eps_tdma": res.eps_tdma,
        "eps_concat": res.eps_concat,
        "log_eps_concat": res.log_eps_concat,
        "per_device_decoded_bits": res.per_device_decoded_bits,
    }


def _compute_aloha(args: argparse.Namespace) -> dict[str, Any]:
    ch = _channel(args)
    cfg = AlohaConfig(args.devices, args.bits, args.frame, ch, K=args.slots)
    p = aloha_success(cfg, assume_perfect_decoding=args.perfect_decoding)
    if args.perfect_decoding:
        eps = 0.0
    else:
        eps = eps_star(ch, CodeSpec(cfg.D, cfg.slot_length))
    return {"p_success": p, "eps": eps, "slot_length": cfg.slot_length}


# ---------------------------------------------------------------------------
# subcommand builders (row-output or Monte-Carlo; not sweepable)


def _build_mimo_outage(args: argparse.Namespace) -> _Output:
    cfg = QuasiStaticConfig(_snr(args), args.mt, args.mr)
    rep = outage_prob_mimo_mc(cfg, args.branches, args.rate, args.trials, args.seed)
    return _Output(
        {
            "outage_probability": rep.estimate,
            "std_error": rep.std_error,
            "trials": rep.trials,
            "seed": rep.seed,
        }
    )


def _build_dmt(args: argparse.Namespace) -> _Output:
    curve = dmt_curve(args.mt, args.mr, DmtMode(args.mode), n_c=args.nc)
    scalars: dict[str, Any] = {"scaling": curve.scaling}
    if args.at is not None:
        scalars["multiplexing_at_d"] = dmt_eval(curve, args.at)
    rows = [{"diversity": d, "multiplexing": r} for d, r in curve.breakpoints]
    return _Output(scalars, rows_name="breakpoints", rows=rows)


def _build_aloha_opt(args: argparse.Namespace) -> _Output:
    cfg = AlohaConfig(args.devices, args.bits, args.frame, _channel(args))
    res = aloha_optimize(cfg, k_max=args.k_max, assume_perfect_decoding=args.perfect_decoding)
    rows = [{"slots": k, "p_success": p} for k, p in res.profile]
    return _Output({"k_opt": res.k_opt}, rows_name="profile", rows=rows)


def _build_sim_aloha(args: argparse.Namespace) -> _Output:
    cfg = AlohaConfig(args.devices, args.bits, args.frame, _channel(args), K=args.slots)
    reps = sim_aloha(cfg, args.trials, args.seed)
    return _Output(
        {
            "per_slot_throughput": reps.per_slot_throughput.estimate,
            "per_slot_std_error": reps.per_slot_throughput.std_error,
            "per_device_success": reps.per_device_success.estimate,
            "per_device_std_error": reps.per_device_success.std_error,
            "slot_length": reps.per_slot_throughput.config["slot_length"],
            "trials": reps.per_slot_throughput.trials,
            "seed": reps.per_slot_throughput.seed,
        }
    )


def _build_sim_twoway(args: argparse.Namespace) -> _Output:
    cfg = TwoWayConfig(args.k1, args.k2, _channel(args))
    rep = sim_twoway(cfg, args.n1, args.n2, args.trials, args.seed)
    return _Output(
        {
            "reliability": rep.estimate,
            "std_error": rep.std_error,
            "trials": rep.trials,
            "seed": rep.seed,
        }
    )


# ---------------------------------------------------------------------------
# reproduction suite


def _run_reproduce(args: argparse.Namespace) -> int:
    rows = ROWS
    if args.rows:
        names = [name for name, _ in ROWS]
        wanted = [w.strip() for w in args.rows.split(",") if w.strip()]
        unknown = [w for w in wanted if w not in names]
        if unknown:
            raise _ArgError(f"unknown row(s) {', '.join(unknown)}; known rows: {', '.join(names)}")
        rows = [row for row in ROWS if row[0] in wanted]
    if args.list:
        for name, _ in rows:
            print(name)
        return 0
    conv = Convention(args.convention)
    all_ok = True
    for name, fn in rows:
        ok, detail = fn(conv)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser assembly


def _add_snr_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--snr-db", type=float, required=True, help="SNR in dB")


def _add_channel_args(p: argparse.ArgumentParser) -> None:
    _add_snr_arg(p)
    p.add_argument(
        "--convention",
        choices=("complex", "real"),
        default="complex",
        help="channel-use accounting (default complex; real halves C and V)",
    )


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default table)",
    )
    p.add_argument("--output", metavar="PATH", default=None, help="write to a file instead of stdout")


def _scalar_command(
    p: argparse.ArgumentParser,
    compute: Callable[[argparse.Namespace], dict[str, Any]],
    **sweep_params: Callable[[float], Any],
) -> None:
    """Finish a scalar-output subcommand: output options, --sweep over the
    named parameters (each with its value type), and the handler."""
    _add_output_args(p)
    p.add_argument(
        "--sweep",
        metavar="PARAM:START:STOP:STEP",
        default=None,
        help="re-run over an inclusive arithmetic progression of one parameter",
    )
    p.set_defaults(handler=_run_scalar, compute=compute, sweep_params=sweep_params)


def _add_mc_args(p: argparse.ArgumentParser, default_trials: int) -> None:
    p.add_argument("--trials", type=int, default=default_trials, help=f"Monte-Carlo trials (default {default_trials})")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortpacket",
        description="Finite-blocklength performance toolkit for short-packet wireless links.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("rate", help="normal-approximation coding rate at (n, eps)")
    p.add_argument("--n", type=float, required=True, help="blocklength in channel uses")
    p.add_argument("--eps", type=float, required=True, help="packet error probability")
    _add_channel_args(p)
    _scalar_command(p, _compute_rate, snr_db=float, n=float, eps=float)

    p = sub.add_parser("eps", help="error probability of the best (k, n) code")
    p.add_argument("--k", type=float, required=True, help="information bits per packet")
    p.add_argument("--n", type=float, required=True, help="blocklength in channel uses")
    _add_channel_args(p)
    _scalar_command(p, _compute_eps, snr_db=float, k=float, n=float)

    p = sub.add_parser("min-n", help="smallest blocklength meeting a target error probability")
    p.add_argument("--k", type=float, required=True, help="information bits per packet")
    p.add_argument("--eps", type=float, required=True, help="target error probability")
    _add_channel_args(p)
    _scalar_command(p, _compute_min_n, snr_db=float, k=float, eps=float)

    p = sub.add_parser("outage", help="Rayleigh outage probability at a rate")
    p.add_argument("--rate", type=float, required=True, help="rate in bits per channel use")
    _add_snr_arg(p)
    _scalar_command(p, _compute_outage, snr_db=float, rate=float)

    p = sub.add_parser("outage-cap", help="Rayleigh outage capacity at a target outage")
    p.add_argument("--eps", type=float, required=True, help="outage probability target")
    _add_snr_arg(p)
    _scalar_command(p, _compute_outage_cap, snr_db=float, eps=float)

    p = sub.add_parser(
        "qs-eps", help="finite-blocklength error probability on the quasi-static Rayleigh channel"
    )
    p.add_argument("--rate", type=float, required=True, help="rate in bits per channel use")
    p.add_argument("--n", type=float, required=True, help="blocklength in channel uses")
    _add_snr_arg(p)
    _scalar_command(p, _compute_qs_eps, snr_db=float, rate=float, n=float)

    p = sub.add_parser("mimo-outage", help="MIMO outage probability by Monte-Carlo")
    p.add_argument("--mt", type=int, required=True, help="transmit antennas")
    p.add_argument("--mr", type=int, required=True, help="receive antennas")
    p.add_argument("--branches", type=int, default=1, help="independent fading blocks per codeword (default 1)")
    p.add_argument("--rate", type=float, required=True, help="rate in bits per channel use")
    _add_snr_arg(p)
    _add_mc_args(p, 100_000)
    _add_output_args(p)
    p.set_defaults(handler=_run_plain, build=_build_mimo_outage)

    p = sub.add_parser("dmt", help="diversity-multiplexing tradeoff breakpoints")
    p.add_argument("--mt", type=int, required=True, help="transmit antennas")
    p.add_argument("--mr", type=int, required=True, help="receive antennas")
    p.add_argument("--mode", choices=("coherent", "noncoherent"), default="coherent")
    p.add_argument("--nc", type=int, default=None, help="coherence interval (required for noncoherent)")
    p.add_argument("--at", type=float, default=None, help="also evaluate multiplexing at this diversity")
    _add_output_args(p)
    p.set_defaults(handler=_run_plain, build=_build_dmt)

    p = sub.add_parser("prelog", help="noncoherent block-fading capacity pre-log")
    p.add_argument("--mt", type=int, required=True, help="transmit antennas")
    p.add_argument("--mr", type=int, required=True, help="receive antennas")
    p.add_argument("--nc", type=int, required=True, help="coherence interval in channel uses")
    _scalar_command(p, _compute_prelog, mt=_int_value, mr=_int_value, nc=_int_value)

    p = sub.add_parser("twoway-opt", help="optimize the blocklength split of a two-way exchange")
    p.add_argument("--k1", type=float, required=True, help="bits in the forward packet")
    p.add_argument("--k2", type=float, required=True, help="bits in the return packet")
    p.add_argument("--ki1", type=float, required=True, help="information bits credited per exchange")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, default=None, help="fixed total blocklength (maximize reliability)")
    group.add_argument("--target", type=float, default=None, help="target reliability (minimize total blocklength)")
    _add_channel_args(p)
    _scalar_command(
        p, _compute_twoway_opt, snr_db=float, k1=float, k2=float, ki1=float, n=_int_value, target=float
    )

    p = sub.add_parser("twoway-tdd", help="TDD round error probability and throughput")
    p.add_argument("--k", type=float, required=True, help="total bits per slot (payload plus overhead)")
    p.add_argument("--ki", type=float, required=True, help="information bits credited per slot")
    p.add_argument("--n-slot", type=float, required=True, help="slot length in channel uses")
    _add_channel_args(p)
    _scalar_command(p, _compute_twoway_tdd, snr_db=float, k=float, ki=float, n_slot=float)

    p = sub.add_parser("downlink", help="downlink broadcast: per-device packets vs one concatenated packet")
    p.add_argument("--devices", type=int, required=True, help="number of devices M")
    p.add_argument("--bits", type=float, required=True, help="bits per device D")
    p.add_argument("--slot", type=float, required=True, help="per-device slot length n")
    _add_channel_args(p)
    _scalar_command(p, _compute_downlink, snr_db=float, devices=_int_value, bits=float, slot=float)

    p = sub.add_parser("aloha", help="framed slotted ALOHA per-slot success probability")
    p.add_argument("--devices", type=int, required=True, help="number of devices M")
    p.add_argument("--bits", type=float, required=True, help="bits per packet D")
    p.add_argument("--frame", type=float, required=True, help="frame length in channel uses")
    p.add_argument("--slots", type=int, required=True, help="slot count K")
    p.add_argument("--perfect-decoding", action="store_true", help="drop the finite-blocklength decoding factor")
    _add_channel_args(p)
    _scalar_command(
        p, _compute_aloha, snr_db=float, devices=_int_value, bits=float, frame=float, slots=_int_value
    )

    p = sub.add_parser("aloha-opt", help="slot count maximizing ALOHA per-slot success")
    p.add_argument("--devices", type=int, required=True, help="number of devices M")
    p.add_argument("--bits", type=float, required=True, help="bits per packet D")
    p.add_argument("--frame", type=float, required=True, help="frame length in channel uses")
    p.add_argument("--k-max", type=int, default=None, help="largest slot count scanned (default 4*devices)")
    p.add_argument("--perfect-decoding", action="store_true", help="drop the finite-blocklength decoding factor")
    _add_channel_args(p)
    _add_output_args(p)
    p.set_defaults(handler=_run_plain, build=_build_aloha_opt)

    p = sub.add_parser("sim-aloha", help="simulate framed slotted ALOHA")
    p.add_argument("--devices", type=int, required=True, help="number of devices M")
    p.add_argument("--bits", type=float, required=True, help="bits per packet D")
    p.add_argument("--frame", type=float, required=True, help="frame length in channel uses")
    p.add_argument("--slots", type=int, required=True, help="slot count K")
    _add_channel_args(p)
    _add_mc_args(p, 100_000)
    _add_output_args(p)
    p.set_defaults(handler=_run_plain, build=_build_sim_aloha)

    p = sub.add_parser("sim-twoway", help="simulate the two-way exchange at a fixed split")
    p.add_argument("--k1", type=float, required=True, help="bits in the forward packet")
    p.add_argument("--k2", type=float, required=True, help="bits in the return packet")
    p.add_argument("--n1", type=int, required=True, help="forward blocklength")
    p.add_argument("--n2", type=int, required=True, help="return blocklength")
    _add_channel_args(p)
    _add_mc_args(p, 100_000)
    _add_output_args(p)
    p.set_defaults(handler=_run_plain, build=_build_sim_twoway)

    p = sub.add_parser(
        "reproduce-paper",
        help="run the bundled reproduction checks and print pass/fail per row",
    )
    p.add_argument(
        "--convention",
        choices=("complex", "real"),
        default="real",
        help="channel-use accounting for the protocol rows (default real)",
    )
    p.add_argument("--list", action="store_true", help="print row names only, no computation")
    p.add_argument("--rows", default=None, metavar="NAME[,NAME...]", help="run only the named rows")
    p.set_defaults(handler=_run_reproduce)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute one subcommand, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        return args.handler(args)
    except (_ArgError, OSError) as exc:  # OSError: --output cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    return run(argv)
