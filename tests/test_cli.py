"""End-to-end command-line tests: argument handling, output formats,
exit codes, and the bundled reproduction checks."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shortpacket
from shortpacket import cli
from shortpacket.cli import build_parser, main, run

# stdout capture is done by hand because the suite runs with pytest -s
# (the acceptance module prints a report line per criterion)


def run_cli(*argv):
    out_io = io.StringIO()
    err_io = io.StringIO()
    with contextlib.redirect_stdout(out_io), contextlib.redirect_stderr(err_io):
        code = main(list(argv))
    return code, out_io.getvalue(), err_io.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# formats


def test_eps_json():
    data = run_json("eps", "--k", "194", "--n", "125", "--snr-db", "10", "--convention", "real")
    assert set(data) == {"eps", "log_eps"}
    assert data["eps"] == pytest.approx(0.011835261773361784, rel=1e-12)
    assert math.exp(data["log_eps"]) == pytest.approx(data["eps"], rel=1e-9)


def test_rate_json():
    data = run_json("rate", "--n", "138", "--eps", "1e-3", "--snr-db", "0")
    assert data["rate"] == pytest.approx(0.697088027534, rel=1e-9)
    assert data["rate"] == data["capacity"] - data["penalty"] + data["correction"]
    assert data["capacity"] == 1.0
    assert data["dispersion"] > 0.0


def test_json_is_canonical():
    code, out, err = run_cli(
        "rate", "--n", "138", "--eps", "1e-3", "--snr-db", "0", "--format", "json"
    )
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_table_default_format():
    code, out, err = run_cli("eps", "--k", "194", "--n", "125", "--snr-db", "10", "--convention", "real")
    assert code == 0
    assert "eps" in out
    assert "0.0118353" in out
    assert out.endswith("\n")


def test_csv_scalar():
    code, out, err = run_cli(
        "eps", "--k", "194", "--n", "125", "--snr-db", "10", "--convention", "real",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eps,log_eps"
    eps = float(lines[1].split(",")[0])
    assert eps == pytest.approx(0.011835261773361784, rel=1e-15)


def test_csv_sweep():
    code, out, err = run_cli(
        "eps", "--k", "194", "--n", "125", "--snr-db", "10", "--convention", "real",
        "--sweep", "n:100:150:10", "--format", "csv",
    )
    assert code == 0
    assert "\r" not in out
    lines = out.splitlines()
    assert lines[0] == "n,eps,log_eps"
    assert len(lines) == 7
    ns = [float(line.split(",")[0]) for line in lines[1:]]
    assert ns == [100.0, 110.0, 120.0, 130.0, 140.0, 150.0]
    epss = [float(line.split(",")[1]) for line in lines[1:]]
    assert epss == sorted(epss, reverse=True)  # more channel uses, fewer errors


def test_sweep_rejects_misuse():
    base = ["eps", "--k", "194", "--n", "125", "--snr-db", "10"]
    # the last two ask for about 1e300 and 1e8 rows, past _SWEEP_MAX_ROWS
    for sweep in (
        "bogus:1:2:1", "n:1:2", "n:1:5:0", "n:5:1:1", "n:a:b:c", "n:1:2:1e-300", "n:1:100000001:1",
        "",
    ):
        code, out, err = run_cli(*base, "--sweep", sweep)
        assert code == 2
        assert "error" in err.lower() or "sweep" in err


def test_sweep_takes_one_point_and_fractional_steps(monkeypatch):
    base = ["outage", "--rate", "1", "--snr-db", "10", "--format", "csv"]
    for sweep, rates in (("rate:1.5:1.5:1", ["1.5"]), ("rate:1:2:0.5", ["1.0", "1.5", "2.0"])):
        code, out, err = run_cli(*base, "--sweep", sweep)
        assert code == 0, err
        assert [line.split(",")[0] for line in out.splitlines()] == ["rate", *rates]
    # 100,001 rows, one past _SWEEP_MAX_ROWS: refused before any value is computed
    calls = []
    commands = tuple(
        c._replace(compute=lambda a: calls.append(a.rate) or {"p_out": 0.5}) if c.name == "outage" else c
        for c in cli._COMMANDS
    )
    monkeypatch.setattr(cli, "_COMMANDS", commands)
    code, out, err = run_cli(*base, "--sweep", "rate:0:100000:1")
    assert (code, out, calls) == (2, "", [])
    assert err == "error: --sweep 'rate:0:100000:1' asks for more than 100000 rows\n"


def test_sweep_errors_name_the_problem():
    base = ["eps", "--k", "194", "--n", "125", "--snr-db", "10"]
    for sweep, message in (
        ("bogus:1:2:1", "cannot sweep 'bogus'; sweepable here: k, n, snr_db"),
        ("n:1:inf:1", "--sweep bounds must be finite, got 'n:1:inf:1'"),
    ):
        code, out, err = run_cli(*base, "--sweep", sweep)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_table_layout():
    # scalars padded two past the longest name, a blank line, then the rows
    # in columns; a sweep of one point is a table of one row
    code, out, err = run_cli(
        "aloha-opt", "--devices", "3", "--bits", "192", "--frame", "800", "--k-max", "2",
        "--snr-db", "10", "--convention", "real",
    )
    assert (code, out) == (0, "k_opt  2\n\nslots  p_success\n1      0\n2      0.375\n")
    code, out, err = run_cli("eps", "--k", "194", "--n", "125", "--snr-db", "10", "--sweep", "n:125:125:1")
    assert (code, out) == (0, "n    eps         log_eps\n125  1.4803e-51  -117.04\n")


def test_output_file(tmp_path):
    path = tmp_path / "out.json"
    code, out, err = run_cli(
        "eps", "--k", "194", "--n", "125", "--snr-db", "10", "--convention", "real",
        "--format", "json", "--output", str(path),
    )
    assert code == 0
    assert out == ""
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["eps"] == pytest.approx(0.011835261773361784, rel=1e-12)


# ---------------------------------------------------------------------------
# subcommand coverage


def test_min_n_json():
    data = run_json("min-n", "--k", "193", "--eps", "1e-3", "--snr-db", "10", "--convention", "real")
    assert data == {"n_min": 131}


def test_outage_round_trip_via_cli():
    rate = math.log2(11.0)
    data = run_json("outage", "--rate", repr(rate), "--snr-db", "10")
    assert data["p_out"] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    cap = run_json("outage-cap", "--eps", repr(data["p_out"]), "--snr-db", "10")
    assert cap["c_eps"] == pytest.approx(rate, rel=1e-10)
    # a rate past the float range of 2^R is a certain outage, not a traceback
    assert run_json("outage", "--rate", "2000", "--snr-db", "10") == {"p_out": 1.0}


def test_qs_eps_json():
    data = run_json("qs-eps", "--rate", "1.0", "--n", "168", "--snr-db", "10")
    assert data["eps"] == pytest.approx(0.09300977141645661, rel=1e-6)


def test_twoway_tdd_json():
    data = run_json(
        "twoway-tdd", "--k", "194", "--ki", "96", "--n-slot", "125",
        "--snr-db", "10", "--convention", "real",
    )
    assert data["eps"] == pytest.approx(0.011835261773, rel=1e-9)
    assert data["throughput"] == pytest.approx(0.7589105190, rel=1e-9)


def test_downlink_json():
    data = run_json(
        "downlink", "--devices", "10", "--bits", "192", "--slot", "125",
        "--snr-db", "10", "--convention", "real",
    )
    assert data["eps_tdma"] == pytest.approx(0.0073738058126, rel=1e-9)
    assert data["eps_concat"] == pytest.approx(2.8933380986e-12, rel=1e-6)
    assert data["per_device_decoded_bits"] == 1920.0


def test_twoway_opt_fixed_n_json():
    data = run_json(
        "twoway-opt", "--k1", "193", "--k2", "97", "--ki1", "96", "--n", "250",
        "--snr-db", "10", "--convention", "real",
    )
    assert data["feasible"] == 1
    assert (data["n1"], data["n2"]) == (158, 92)
    assert data["throughput"] == pytest.approx(0.384, abs=1e-3)


def test_twoway_opt_target_json():
    data = run_json(
        "twoway-opt", "--k1", "193", "--k2", "97", "--ki1", "96", "--target", "0.999",
        "--snr-db", "10", "--convention", "real",
    )
    assert (data["n"], data["n1"], data["n2"]) == (203, 132, 71)


def test_aloha_json():
    data = run_json(
        "aloha", "--devices", "10", "--bits", "192", "--frame", "800", "--slots", "6",
        "--snr-db", "10", "--convention", "real",
    )
    assert data["p_success"] == pytest.approx(0.32295853527798685, rel=1e-9)
    assert data["slot_length"] == pytest.approx(800.0 / 6.0)
    assert 0.0 < data["eps"] < 1.0


def test_aloha_perfect_decoding_json():
    # the decoding factor is dropped, so eps is 0 and only collisions remain
    data = run_json(
        "aloha", "--devices", "10", "--bits", "192", "--frame", "800", "--slots", "6",
        "--perfect-decoding", "--snr-db", "10", "--convention", "real",
    )
    assert data["eps"] == 0.0
    assert data["p_success"] == pytest.approx(10 / 6 * (5 / 6) ** 9, rel=1e-12)


def test_aloha_opt_json():
    data = run_json(
        "aloha-opt", "--devices", "10", "--bits", "192", "--frame", "800",
        "--snr-db", "10", "--convention", "real",
    )
    assert data["k_opt"] == 6
    assert len(data["profile"]) == 40
    assert data["profile"][5]["slots"] == 6
    assert data["profile"][5]["p_success"] == pytest.approx(0.32295853527798685, rel=1e-9)


def test_dmt_json_with_at():
    data = run_json("dmt", "--mt", "2", "--mr", "2", "--mode", "noncoherent", "--nc", "10", "--at", "2.5")
    assert data["scaling"] == 0.8
    assert data["multiplexing_at_d"] == pytest.approx(0.4, abs=1e-12)
    assert [row["diversity"] for row in data["breakpoints"]] == [4.0, 1.0, 0.0]
    assert [row["multiplexing"] for row in data["breakpoints"]] == [0.0, 0.8, 1.6]


def test_dmt_table():
    code, out, err = run_cli("dmt", "--mt", "2", "--mr", "2")
    assert code == 0
    assert "diversity" in out and "multiplexing" in out
    assert "scaling" in out


def test_dmt_refuses_a_table_past_the_row_cap(monkeypatch):
    # min(m_t, m_r) + 1 = 100,001 breakpoints, one past _SWEEP_MAX_ROWS: refused
    # before the curve is built, as --sweep is; 100,000 is the largest table
    def dmt_curve(*args, **kwargs):
        raise AssertionError("the curve was built")

    monkeypatch.setattr(shortpacket, "dmt_curve", dmt_curve)
    for mt, mr in [("100000", "100000"), ("1000000", "1000000"), ("100000", "10000000")]:
        code, out, err = run_cli("dmt", "--mt", mt, "--mr", mr)
        assert (code, out) == (2, "")
        assert err == "error: dmt asks for more than 100000 breakpoints\n"
    with pytest.raises(AssertionError, match="the curve was built"):
        run_cli("dmt", "--mt", "99999", "--mr", "100000")


def test_prelog_json():
    data = run_json("prelog", "--mt", "4", "--mr", "2", "--nc", "14")
    assert data["m_star"] == 2
    assert data["prelog"] == pytest.approx(12.0 / 7.0, rel=1e-12)


def test_mimo_outage_json():
    data = run_json(
        "mimo-outage", "--mt", "1", "--mr", "1", "--rate", "1.0381588236207042",
        "--snr-db", "10", "--trials", "10000", "--seed", "0",
    )
    assert data["trials"] == 10000
    assert data["seed"] == 0
    assert abs(data["outage_probability"] - 0.1) <= 4.0 * data["std_error"]


def test_sim_aloha_json():
    data = run_json(
        "sim-aloha", "--devices", "10", "--bits", "192", "--frame", "800", "--slots", "6",
        "--snr-db", "10", "--convention", "real", "--trials", "10000", "--seed", "0",
    )
    assert data["slot_length"] == 133
    assert data["per_slot_throughput"] * 6 == pytest.approx(data["per_device_success"] * 10, rel=1e-12)
    assert data["per_slot_std_error"] > 0.0


def test_monte_carlo_defaults():
    data = run_json("sim-twoway", "--k1", "193", "--k2", "97", "--n1", "132", "--n2", "71", "--snr-db", "10")
    assert (data["trials"], data["seed"]) == (100_000, 0)


def test_sim_twoway_json():
    data = run_json(
        "sim-twoway", "--k1", "193", "--k2", "97", "--n1", "132", "--n2", "71",
        "--snr-db", "10", "--convention", "real", "--trials", "10000", "--seed", "0",
    )
    assert abs(data["reliability"] - 0.999192803642461) <= 4.0 * max(data["std_error"], 1e-4)


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_command_exits_2():
    code, out, err = run_cli("bogus")
    assert code == 2


def test_missing_required_arg_exits_2():
    code, out, err = run_cli("eps", "--k", "194")
    assert code == 2


def test_mutually_exclusive_objectives_exit_2():
    code, out, err = run_cli(
        "twoway-opt", "--k1", "193", "--k2", "97", "--ki1", "96",
        "--n", "250", "--target", "0.999", "--snr-db", "10",
    )
    assert code == 2
    code, out, err = run_cli(
        "twoway-opt", "--k1", "193", "--k2", "97", "--ki1", "96", "--snr-db", "10"
    )
    assert code == 2


def test_domain_error_exits_3():
    code, out, err = run_cli("eps", "--k", "-5", "--n", "125", "--snr-db", "10")
    assert code == 3
    assert "error" in err.lower()
    # 10**400 is past the float range: one error line, no traceback
    code, out, err = run_cli("eps", "--k", "100", "--n", "200", "--snr-db", "4000")
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    # the snr range ends at 2**52, 156.5 dB: 157 dB is refused, 156 dB taken
    code, out, err = run_cli("eps", "--k", "100", "--n", "200", "--snr-db", "157")
    assert code == 3 and out == ""
    assert err.startswith("error: snr must be") and "156.5 dB" in err and err.count("\n") == 1
    code, out, err = run_cli("eps", "--k", "100", "--n", "200", "--snr-db", "156")
    assert code == 0, err
    # an integer past 2**53 (OverflowError), and blocklengths below 1, where
    # the rate was nan or a meaningless -4.98e302
    for argv in (
        ("downlink", "--devices", str(10**400), "--bits", "192", "--slot", "125", "--snr-db", "10"),
        ("rate", "--n", "1e-320", "--eps", "0.5", "--snr-db", "10"),
        ("rate", "--n", "1e-300", "--eps", "0.5", "--snr-db", "10"),
        # nC and nV both overflow, so the tail argument is inf/inf: it was nan
        ("eps", "--k", "1e308", "--n", "1e308", "--snr-db", "10"),
        # a 2**53-slot profile: numpy refuses the 64 PiB array (MemoryError)
        (
            "aloha-opt", "--devices", "10", "--bits", "100", "--frame", "800", "--snr-db", "10",
            "--k-max", "9007199254740992",
        ),
        # a frame of 2**32 slots: the simulator takes K < 2**32
        ("sim-aloha", "--devices", "3", "--bits", "104", "--frame", "3e11", "--slots", "4294967296",
         "--snr-db", "10"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    assert err.startswith("error: --slots must be an integer") and "4294967296" in err
    code, out, err = run_cli(*(("4294967295" if a == "4294967296" else a) for a in argv))
    assert code == 0, err
    # a payload or frame past 2**53, which the protocol configs refuse: the
    # ALOHA profile's K = 1 slot overflowed to nan, and the two-way target
    # search computed for half a second and printed an infeasible result.
    # A refused config field is named by the option that set it
    for argv, message in [
        (("aloha-opt", "--devices", "10", "--bits", "1e308", "--frame", "1e308", "--snr-db", "10"),
         "error: --bits must be > 0.0 and <= 9007199254740992, got 1e+308\n"),
        (("downlink", "--devices", "10", "--bits", "192", "--slot", "1e20", "--snr-db", "10"),
         "error: --slot must be >= 1.0 and <= 9007199254740992, got 1e+20\n"),
        (("twoway-opt", "--k1", "1e20", "--k2", "97", "--ki1", "96", "--target", "0.999", "--snr-db", "10"),
         "error: k1 must be > 0.0 and <= 9007199254740992, got 1e+20\n"),
    ]:
        assert run_cli(*argv) == (3, "", message)


def test_log_eps_below_the_float_range_exits_3():
    # nC overflows, so t = inf and ln Q(t) is -inf: the json printed -Infinity
    argv = ("eps", "--k", "1025", "--n", "1.7e308", "--snr-db", "10", "--convention", "real")
    for fmt in ("json", "csv", "table"):
        code, out, err = run_cli(*argv, "--format", fmt)
        assert (code, out, err) == (3, "", "error: ln Q(inf) is below the float range\n")


def test_json_refuses_values_outside_its_grammar(monkeypatch):
    # json has no inf or nan; a value past the float range is an error, not
    # the non-standard Infinity or NaN
    for bad in (math.inf, -math.inf, math.nan):
        commands = tuple(c._replace(compute=lambda a, bad=bad: {"eps": bad}) if c.name == "eps" else c
                         for c in cli._COMMANDS)
        monkeypatch.setattr(cli, "_COMMANDS", commands)
        code, out, err = run_cli("eps", "--k", "100", "--n", "100", "--snr-db", "10", "--format", "json")
        assert (code, out) == (3, "")
        assert err.startswith("error: Out of range float values are not JSON compliant") and err.count("\n") == 1


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError, FloatingPointError])
def test_arithmetic_errors_exit_3_without_traceback(monkeypatch, error):
    # stdlib math raises where numpy returned inf with a warning; an escaped
    # exception would exit 1, which means failed reproduction rows
    def compute(args):
        raise error("math range error")

    commands = tuple(
        c._replace(compute=compute) if c.name == "eps" else c for c in cli._COMMANDS
    )
    monkeypatch.setattr(cli, "_COMMANDS", commands)
    code, out, err = run_cli("eps", "--k", "100", "--n", "100", "--snr-db", "10")
    assert (code, out, err) == (3, "", "error: math range error\n")


@pytest.mark.parametrize("error, message", [(MemoryError(), "out of memory"), (MemoryError("no room"), "no room")])
def test_memory_errors_exit_3_with_a_message(monkeypatch, error, message):
    def compute(args):
        raise error

    commands = tuple(c._replace(compute=compute) if c.name == "eps" else c for c in cli._COMMANDS)
    monkeypatch.setattr(cli, "_COMMANDS", commands)
    code, out, err = run_cli("eps", "--k", "100", "--n", "100", "--snr-db", "10")
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_unwritable_output_exits_2(tmp_path):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(
        "eps", "--k", "194", "--n", "125", "--snr-db", "10", "--output", str(path)
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_weak_monte_carlo_exits_4():
    code, out, err = run_cli(
        "sim-twoway", "--k1", "193", "--k2", "97", "--n1", "132", "--n2", "71",
        "--snr-db", "10", "--trials", "100",
    )
    assert code == 4


def test_help_exits_0():
    code, out, err = run_cli("--help")
    assert code == 0
    assert "COMMAND" in out


def run_module(module, *argv):
    """Run `python -m module argv` from the directory that holds the package."""
    env = {**os.environ, "COLUMNS": "80"}
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, cwd=Path(shortpacket.__file__).parent.parent,
    )


def test_python_m_cli_runs_the_command():
    # the module printed nothing and exited 0, where the command exits 3
    out = run_module(
        "shortpacket.cli", "aloha-opt", "--devices", "10", "--bits", "1e308", "--frame", "1e308",
        "--snr-db", "10",
    )
    assert out.returncode == 3 and out.stdout == ""
    assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1


def test_python_m_package_prints_the_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out_io = io.StringIO()
    with contextlib.redirect_stdout(out_io):
        assert run(["--help"]) == 0
    out = run_module("shortpacket", "--help")
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout == out_io.getvalue()


# the sweep map of each sweeping command: every float and int option,
# int options rounded
SWEEP_MAPS = {
    "rate": dict(snr_db=float, n=float, eps=float),
    "eps": dict(snr_db=float, k=float, n=float),
    "min-n": dict(snr_db=float, k=float, eps=float),
    "outage": dict(snr_db=float, rate=float),
    "outage-cap": dict(snr_db=float, eps=float),
    "qs-eps": dict(snr_db=float, rate=float, n=float),
    "prelog": dict(mt=cli._int_value, mr=cli._int_value, nc=cli._int_value),
    "twoway-opt": dict(snr_db=float, k1=float, k2=float, ki1=float, n=cli._int_value, target=float),
    "twoway-tdd": dict(snr_db=float, k=float, ki=float, n_slot=float),
    "downlink": dict(snr_db=float, devices=cli._int_value, bits=float, slot=float),
    "aloha": dict(snr_db=float, devices=cli._int_value, bits=float, frame=float, slots=cli._int_value),
}


def test_every_subcommand_help_and_sweep_map():
    # a sweep key that names no option would set an attribute compute never
    # reads, and every sweep row would repeat the fixed value
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(subparsers.choices) == 17
    for name, parser in subparsers.choices.items():
        code, out, err = run_cli(name, "--help")
        assert code == 0 and out.startswith(f"usage: shortpacket {name}"), name
        assert ("--sweep" in parser._option_string_actions) == (name in SWEEP_MAPS), name
    for cmd in cli._COMMANDS:
        if cmd.sweeps:
            dests = {action.dest for action in subparsers.choices[cmd.name]._actions}
            assert cmd.sweep_params() == SWEEP_MAPS[cmd.name] and set(SWEEP_MAPS[cmd.name]) <= dests
    assert sorted(c.name for c in cli._COMMANDS if c.sweeps) == sorted(SWEEP_MAPS)


def test_run_builds_the_parser_once():
    # the 17 subparsers were most of an in-process call's time
    build_parser.cache_clear()
    for _ in range(2):
        assert run_cli("min-n", "--k", "193", "--eps", "1e-3", "--snr-db", "10")[0] == 0
    assert build_parser.cache_info().misses == 1


# ---------------------------------------------------------------------------
# the exit-code contract as a property, over argv drawn from _COMMANDS

# every value is an ordinary one or an edge one with even odds, so that a
# fair share of draws runs to exit 0
_FLOATS = st.sampled_from(["0.5", "1", "3", "10", "100", "200"]) | st.sampled_from(
    ["0", "-0", "-1", "5e-324", "1e-320", "1e-3", "1e308", "1.7e308", "inf", "-inf", "nan", "x"])
_INTS = st.sampled_from(["1", "2", "3", "4", "12"]) | st.sampled_from(["-1", "0", "1.5", "x"])
# the simulators run at most MIN_TRIALS, and antennas, slots and dmt's
# sizes stay small, so each draw costs milliseconds
_FLAG_VALUES = {
    "--trials": st.sampled_from([str(shortpacket.MIN_TRIALS), str(shortpacket.MIN_TRIALS - 1), "0"]),
    "--seed": st.sampled_from(["0", "-1", str(2**64 - 1), str(2**64)]),
}
_SWEEP_ENDS = st.sampled_from(["-1", "0", "1", "2", "1e308", "inf", "nan"])
_NON_FINITE = re.compile(r"\b(inf|infinity|nan)\b", re.IGNORECASE)


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(cli._COMMANDS))
    argv = [cmd.name]
    for arg in cmd.args:
        # one member of a required group; trials always, as the default is 10 * MIN_TRIALS
        flag, kw = draw(st.sampled_from(arg)) if isinstance(arg, list) else arg
        if not (isinstance(arg, list) or kw.get("required") or flag == "--trials" or draw(st.booleans())):
            continue
        if kw.get("action") == "store_true":
            argv.append(flag)
        elif "choices" in kw:
            argv += [flag, draw(st.sampled_from(kw["choices"]))]
        else:
            argv += [flag, draw(_FLAG_VALUES.get(flag, _INTS if kw["type"] is int else _FLOATS))]
    if cmd.sweeps and draw(st.booleans()):
        param = draw(st.sampled_from(list(cmd.sweep_params())))
        argv += ["--sweep", ":".join([param, *(draw(_SWEEP_ENDS) for _ in range(3))])]
    return argv + ["--format", draw(st.sampled_from(["table", "json", "csv"]))]


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_every_command_keeps_the_exit_code_contract(argv):
    code, out, err = run_cli(*argv)
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in err, argv
    if code:
        assert [ln for ln in err.splitlines() if "error:" in ln] == [err.splitlines()[-1]], (argv, err)
        assert out == ""
        return
    assert err == "" and out and not _NON_FINITE.search(out), (argv, out)
    if argv[-1] == "json":
        json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in {argv}"))


# ---------------------------------------------------------------------------
# reproduction checks


EXPECTED_ROWS = [
    "tdd-operating-point",
    "two-way-min-n",
    "two-way-fixed-n",
    "downlink-strategies",
    "aloha-slot-count",
    "awgn-rate-point",
    "convention-sensitivity",
    "outage-round-trip",
    "quasi-static-limit",
    "sim-analytic-agreement",
    "mimo-outage-calibration",
    "dmt-exactness",
]


def test_reproduce_list():
    code, out, err = run_cli("reproduce-paper", "--list")
    assert code == 0
    assert out.splitlines() == EXPECTED_ROWS


def test_reproduce_single_row_passes():
    code, out, err = run_cli("reproduce-paper", "--rows", "dmt-exactness")
    assert code == 0
    assert out.startswith("[PASS] dmt-exactness:")


def test_reproduce_fast_rows_pass_under_real_convention():
    fast = (
        "tdd-operating-point,two-way-min-n,two-way-fixed-n,downlink-strategies,"
        "aloha-slot-count,awgn-rate-point,convention-sensitivity,outage-round-trip,"
        "quasi-static-limit,dmt-exactness"
    )
    code, out, err = run_cli("reproduce-paper", "--rows", fast)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("[PASS]") for line in lines)


def test_reproduce_takes_no_convention():
    # the reference values hold under real channel uses only; the
    # convention-sensitivity row checks the complex collapse
    code, out, err = run_cli(
        "reproduce-paper", "--rows", "tdd-operating-point", "--convention", "complex"
    )
    assert code == 2
    assert out == ""


def test_reproduce_failing_row_prints_fail_and_exits_1(monkeypatch):
    from shortpacket import repro

    rows = (("holds", lambda: (True, "as expected")), ("breaks", lambda: (False, "off by one")))
    monkeypatch.setattr(repro, "ROWS", rows)
    code, out, err = run_cli("reproduce-paper")
    assert (code, out, err) == (1, "[PASS] holds: as expected\n[FAIL] breaks: off by one\n", "")


def test_reproduce_unknown_row_exits_2():
    code, out, err = run_cli("reproduce-paper", "--rows", "nope")
    assert code == 2


@pytest.mark.parametrize("rows", [",", " , ", ""])
def test_reproduce_empty_row_selection_exits_2(rows):
    # a selection of no row would check nothing and still exit 0
    for extra in ((), ("--list",)):
        code, out, err = run_cli("reproduce-paper", "--rows", rows, *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: --rows names no row; known rows: ")
        assert err.count("\n") == 1
