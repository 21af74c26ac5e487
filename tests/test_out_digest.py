"""tools/out_digest.py: one sha256 per workload and seed over every output,
and a last line over those, the same in every process."""

import hashlib
import subprocess
import sys
from pathlib import Path

from shortpacket.awgn import RateResult
from shortpacket.protocols import AlohaOptResult, _AlohaProfile

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import numpy as np  # noqa: E402
from out_digest import canonical  # noqa: E402


def test_out_digest_prints_the_same_lines_in_two_fresh_processes():
    # two processes salt str hashing differently, so hash(repr(...)) would
    # differ between them; the tool's lines must not
    procs = [subprocess.Popen([sys.executable, "tools/out_digest.py"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    first, second = (p.communicate(timeout=300)[0].splitlines() for p in procs)
    assert all(p.returncode == 0 for p in procs)
    assert first == second
    *lines, last = first
    assert [line.split()[:2] for line in lines] == [
        [name, f"seed={seed}"] for name in ("point-sweep", "design-scan") for seed in range(4)
    ]
    assert all(len(line.split()[2]) == 64 for line in lines)
    assert last == "sha256 " + hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_canonical_form_is_exact_and_typed():
    # floats as float.hex, so one ulp shows; ints as written; fields in order;
    # a profile as its (K, p) pairs
    assert "".join(canonical(0.1)) != "".join(canonical(np.nextafter(0.1, 1.0).item()))
    assert "".join(canonical((1, 1.0, True))) == "(1,0x1.0000000000000p+0,True,)"
    assert "".join(canonical(RateResult(1.0, 2.0, 0.5, 0.25, 0.0))).startswith("RateResult(0x1.0000000000000p+0,")
    res = AlohaOptResult(2, _AlohaProfile(np.array([0.5, 0.75])))
    assert "".join(canonical(res)) == "AlohaOptResult(2,((1,0x1.0000000000000p-1,),(2,0x1.8000000000000p-1,),),)"
