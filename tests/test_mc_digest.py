"""tools/mc_digest.py: one line per simulator report, in a fixed order, and
a last line with the sha256 of those lines."""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_mc_digest_prints_every_report_then_their_sha256():
    out = subprocess.run(
        [sys.executable, "tools/mc_digest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    ).stdout.splitlines()
    *lines, last = out
    # per seed: four ALOHA shapes, one two-way split and five MIMO links
    assert len(lines) == 20
    assert [line.split()[0] for line in lines[:10]] == ["sim_aloha"] * 4 + ["sim_twoway"] + ["mimo"] * 5
    assert [line.split()[0] for line in lines[10:]] == [line.split()[0] for line in lines[:10]]
    assert all("seed=7 " in line for line in lines[:10]) and all("seed=12345 " in line for line in lines[10:])
    # sim_aloha prints both metrics, the others one; each as an estimate and its error
    for line in lines:
        values = [float(v) for v in line.split()[-4 if line.startswith("sim_aloha") else -2 :]]
        assert all(0.0 <= v <= 1.0 for v in values)
    assert last == "sha256 " + hashlib.sha256("\n".join(lines).encode()).hexdigest()
