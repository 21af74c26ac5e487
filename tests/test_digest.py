"""tools/digest.py: one line per unit, in a fixed order and the same in two
fresh processes, a last line with the sha256 of those lines, the canonical
form it hashes and the simulator reports it hashes."""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shortpacket.awgn import RateResult
from shortpacket.mcsim import AlohaSimReports, SimReport
from shortpacket.protocols import AlohaOptResult, _AlohaProfile

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from digest import canonical, reports  # noqa: E402


def form(value):
    return "".join(canonical(value, []))


def test_digest_prints_the_same_lines_in_two_fresh_processes_then_their_sha256():
    # two processes salt str hashing differently, so hash(repr(...)) would
    # differ between them; the tool's lines must not
    procs = [subprocess.Popen([sys.executable, "tools/digest.py"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    first, second = (p.communicate(timeout=300)[0].splitlines() for p in procs)
    assert all(p.returncode == 0 for p in procs)
    assert first == second
    *lines, last = first
    labels = [line.rsplit(" ", 1)[0] for line in lines]
    assert labels[:8] == [f"{name} seed={seed}" for name in ("point-sweep", "design-scan") for seed in range(4)]
    # per seed: four ALOHA shapes, one two-way split and five MIMO links
    sims = ["sim_aloha"] * 4 + ["sim_twoway"] + ["mimo"] * 5
    assert [label.split()[0] for label in labels[8:28]] == sims * 2
    assert all(label.endswith(" seed=7") for label in labels[8:18])
    assert all(label.endswith(" seed=12345") for label in labels[18:28])
    assert labels[8] == "sim_aloha M=10 K=6 trials=66313 seed=7"
    assert labels[28:] == ["reproduce-paper"]
    assert all(len(line.rsplit(" ", 1)[1]) == 64 for line in lines)
    assert last == "sha256 " + hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_simulator_units_report_probabilities_and_their_errors():
    for label, rep in reports():
        # sim_aloha reports both metrics, the others one
        for r in [rep.per_slot_throughput, rep.per_device_success] if isinstance(rep, AlohaSimReports) else [rep]:
            assert 0.0 <= r.estimate <= 1.0 and 0.0 <= r.std_error <= 1.0, label


def test_canonical_form_is_exact_and_typed():
    # floats as float.hex, so one ulp shows; ints and strs as repr; fields in
    # order; a dict by sorted key; a profile as its (K, p) pairs
    assert form(0.1) != form(np.nextafter(0.1, 1.0).item())
    assert form((1, 1.0, True)) == "(1,0x1.0000000000000p+0,True,)"
    assert form(RateResult(1.0, 2.0, 0.5, 0.25, 0.0)).startswith("RateResult(0x1.0000000000000p+0,")
    res = AlohaOptResult(2, _AlohaProfile(np.array([0.5, 0.75])))
    assert form(res) == "AlohaOptResult(2,((1,0x1.0000000000000p-1,),(2,0x1.8000000000000p-1,),),)"
    rep = SimReport("m", 0.5, 0.25, 10, 7, {"snr": np.float64(10.0), "convention": "real"})
    assert form(rep) == ("SimReport('m',0x1.0000000000000p-1,0x1.0000000000000p-2,10,7,"
                         "(('convention','real',),('snr',0x1.4000000000000p+3,),),)")
    with pytest.raises(TypeError, match="no canonical form for NoneType"):
        form((1.0, None))
