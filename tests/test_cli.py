"""End-to-end command-line tests: argument handling, output formats,
exit codes, and the bundled reproduction checks."""

import argparse
import contextlib
import io
import json
import math

import pytest

from shortpacket.cli import build_parser, main

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
    ):
        code, out, err = run_cli(*argv)
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


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


def test_every_subcommand_help_and_sweep_map():
    # a sweep key that names no option would set an attribute compute never
    # reads, and every sweep row would repeat the fixed value
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(subparsers.choices) == 17
    for name, parser in subparsers.choices.items():
        code, out, err = run_cli(name, "--help")
        assert code == 0 and out.startswith(f"usage: shortpacket {name}"), name
        dests = {action.dest for action in parser._actions}
        assert set(parser.get_default("sweep_params") or ()) <= dests, name


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


def test_reproduce_row_fails_under_complex_convention():
    code, out, err = run_cli(
        "reproduce-paper", "--rows", "tdd-operating-point", "--convention", "complex"
    )
    assert code == 1
    assert out.startswith("[FAIL] tdd-operating-point:")


def test_reproduce_unknown_row_exits_2():
    code, out, err = run_cli("reproduce-paper", "--rows", "nope")
    assert code == 2
