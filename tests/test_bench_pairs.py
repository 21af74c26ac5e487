"""tools/bench_pairs.py's verdicts on synthetic runs: a claim met or not
met, a spread too wide to tell, the change better in every run despite it,
and a regression inside the bound; and how it names a checkout, by its
git HEAD and a digest of its src/.  No benchmark is run."""

import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402  (tools/bench_pairs.py)

METRICS = {"wall_s": {"unit": "s", "better": "lower", "bound": 0.25},
           "rate": {"unit": "1/s", "better": "higher", "bound": 0.25}}
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.03, 0.97]
WIDE = [1.0, 0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0]  # IQR 65% of the median


def verdict(name, parent, change, claim=None):
    result = {"correct": {}, "failed": {},
              "metrics": {name: bench_pairs.compare(METRICS[name], parent, change)}}
    claimed = bench_pairs.verdicts("w", result, METRICS, claim)
    return result["metrics"][name]["verdict"], claimed


def scaled(runs, factor):
    return [x * factor for x in runs]


def test_a_claim_is_met_when_nine_pairs_in_ten_win_past_the_iqr():
    change = scaled(PARENT, 0.9)
    change[3] = 1.05  # one pair lost
    text, claimed = verdict("wall_s", PARENT, change, claim="wall_s")
    assert claimed["met"] and claimed["change_lower_in"] == "9/10"
    assert text == "within the bound; claim MET (gap 0.1 vs IQR 0.025)"


@pytest.mark.parametrize("change, why", [
    (scaled(PARENT, 0.995), "the gap is inside the IQR"),
    ([0.9] * 8 + [1.2] * 2, "only 8/10 pairs win"),
])
def test_a_claim_is_not_met(change, why):
    text, claimed = verdict("wall_s", PARENT, change, claim="wall_s")
    assert not claimed["met"], why
    assert "claim NOT MET" in text


def test_a_spread_past_the_bound_is_unresolved():
    text, _ = verdict("wall_s", WIDE, scaled(WIDE, 1.1))
    assert text == "unresolved: parent IQR 65% exceeds the bound 25%"
    text, _ = verdict("rate", WIDE, scaled(WIDE, 0.9))
    assert text.startswith("unresolved")


@pytest.mark.parametrize("name, better", [("wall_s", 0.45), ("rate", 1.6)])
def test_a_change_better_in_every_run_is_resolved_despite_the_spread(name, better):
    change = [better] * 10
    text, _ = verdict(name, WIDE, change)
    assert text == "within the bound"
    # one change run that overlaps the parent's leaves it unresolved
    text, _ = verdict(name, WIDE, change[:-1] + [1.0])
    assert text.startswith("unresolved")


def test_a_regression_inside_the_bound_is_marked_worse():
    text, _ = verdict("wall_s", PARENT, scaled(PARENT, 1.1))
    assert text == "within the bound; worse in 10/10 (gap 0.1 vs IQR 0.025)"
    text, _ = verdict("rate", PARENT, scaled(PARENT, 0.9))
    assert text.startswith("within the bound; worse in 10/10")
    text, _ = verdict("wall_s", PARENT, scaled(PARENT, 1.3))
    assert text.startswith("WORSE than the bound 25%")


def test_src_digest_names_a_checkout_by_its_source_bytes(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_bytes(b"x = 1\n")
    (package / "b.py").write_bytes(b"y = 2\n")
    digest = bench_pairs.src_digest(tmp_path)
    assert len(digest) == 64
    (package / "__pycache__").mkdir()
    (package / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0" * 16)
    assert bench_pairs.src_digest(tmp_path) == digest  # bytecode is ignored
    (package / "a.py").write_bytes(b"x = 2\n")
    assert bench_pairs.src_digest(tmp_path) != digest  # one byte moves it
    (package / "a.py").write_bytes(b"x = 1\n")
    assert bench_pairs.src_digest(tmp_path) == digest
    (package / "b.py").rename(package / "c.py")
    assert bench_pairs.src_digest(tmp_path) != digest  # and so does a file's name


def test_src_lines_counts_the_python_source_of_a_checkout(tmp_path):
    package = tmp_path / "src" / "pkg"
    (package / "__pycache__").mkdir(parents=True)
    (package / "a.py").write_bytes(b"x = 1\n\ny = 2\n")
    (package / "b.py").write_bytes(b"z = 3")  # no newline at the end
    (package / "data.txt").write_bytes(b"not\ncode\n")
    (package / "__pycache__" / "a.py").write_bytes(b"x = 1\n")
    assert bench_pairs.src_lines(tmp_path) == 4


def test_git_head_names_only_the_top_of_a_work_tree(tmp_path):
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", "-C", str(tmp_path)]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "c"], check=True)
    head = subprocess.run([*git, "rev-parse", "HEAD"], check=True, capture_output=True, text=True)
    assert bench_pairs.git_head(tmp_path) == head.stdout.strip()
    export = tmp_path / "export"  # an export with no HEAD of its own
    export.mkdir()
    assert bench_pairs.git_head(export) is None


def test_outputs_digest_is_the_last_hash_of_a_checkouts_digest_tool(tmp_path):
    assert bench_pairs.outputs_digest(tmp_path) is None  # a checkout without the tool
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "digest.py").write_text("print('unit ab12')\nprint('sha256 cd34')\n")
    assert bench_pairs.outputs_digest(tmp_path) == "cd34"
