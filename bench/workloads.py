"""The four benchmark workloads: seeded inputs, the operations that drive the
package's public functions, and the checks on every output.

An operation is what one caller waits for: one operating point, one
optimizer call, one simulator call or one CLI invocation.  Each operation
calls the package through ``call(layer, name, fn, *args)`` so the traced
run can put one span around every call into a layer without tracing
inside the package.  Inputs come from ``random.Random`` seeded with a
string, whose stream does not depend on the numpy version.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import reference as ref
from shortpacket import (
    AlohaConfig,
    Channel,
    CodeSpec,
    Convention,
    DownlinkConfig,
    DmtMode,
    QuasiStaticConfig,
    TwoWayConfig,
    aloha_optimize,
    aloha_success,
    downlink_compare,
    dmt_curve,
    dmt_eval,
    eps_quasistatic,
    eps_star,
    eps_star_log,
    log_q_func,
    min_blocklength,
    noncoherent_prelog,
    outage_capacity_siso,
    outage_prob_mimo_mc,
    outage_prob_siso,
    q_func,
    q_inv,
    rate_na,
    sim_aloha,
    sim_twoway,
    twoway_optimize,
    twoway_reliability,
    twoway_tdd_eval,
)

Call = Callable[..., Any]

LAYERS = ("specfun", "awgn", "fading", "protocols", "mcsim", "cli")

# tolerances, no looser than the tests use for the same quantity
REL_CLOSED = 1e-12  # closed forms against the golden run
REL_QS = 1e-6  # eps_quasistatic (tests/test_fading.py)
REL_EPS = 1e-9  # eps_star, q_inv round trips, rate round trips (tests)
ABS_LOGQ = 1e-9  # log Q (tests/test_specfun.py)
REL_TABLE = 5e-6  # table output prints 6 significant digits
# optimality of a split or slot count: the program and the reference may
# order candidates that agree to a few ulps differently, never more
REL_SPLIT = 1e-14
# Monte-Carlo against the analytic value: a seed fails a 3-sigma check with
# probability 0.27%, which over hundreds of runs would flag a correct
# program; 5 sigma (6e-7) keeps the verdict a property of the program
MC_SIGMAS = 5.0
# floor below which two floats both count as (sub)normal underflow
TINY = 1e-300


def direct(layer: str, name: str, fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


@dataclass(frozen=True)
class Op:
    label: str  # operation kind; per-operation metrics group by it
    layer: str  # layer the checks on this operation's output belong to
    run: Callable[[Call], Any]


class Workload:
    """A fixed, seeded input set.  Subclasses fill ``inputs`` and ``ops``."""

    name = ""
    # percentile, over the operations of a pass, of the latency tail: the
    # highest with ten operations beyond it, or the slowest operation when a
    # pass has fewer than twenty
    tail_pct = 100.0

    def __init__(self, seed: int, src: str) -> None:
        self.seed = seed
        self.src = src  # the package's source directory, for child processes
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs: list[dict[str, Any]] = []
        self.ops: list[Op] = []

    def digest(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True, default=repr).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def record(self, i: int, out: Any) -> Any:
        """JSON-able form of operation i's output, for the golden file."""
        return out

    def check(self, i: int, out: Any) -> list[str]:
        """Problems with operation i's output; empty when it is correct."""
        return []

    def rel_tol(self, i: int, key: str) -> float:
        return REL_CLOSED

    def layer_of(self, i: int, problem: str) -> str:
        """The layer a problem with operation i's output is charged to."""
        return self.ops[i].layer


def _channel(snr: float, real: bool) -> Channel:
    return Channel(snr, Convention.REAL_CU if real else Convention.COMPLEX_CU)


def _db(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def _need(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# ---------------------------------------------------------------------------
# point-sweep: independent operating points, one scalar call at a time


class PointSweep(Workload):
    name = "point-sweep"
    tail_pct = 95.0
    POINTS = 256

    def __init__(self, seed: int, src: str) -> None:
        super().__init__(seed, src)
        r = self.rng
        for _ in range(self.POINTS):
            real = r.random() < 0.5
            snr = _db(r.uniform(-5.0, 25.0))
            n = r.randint(50, 2000)
            eps0 = 10.0 ** r.uniform(-6.0, -1.0)
            # payload near the normal-approximation point: z is the tail
            # argument, so eps_star lands between about 0.84 and 3e-5
            z = r.uniform(-1.0, 4.0)
            k = n * ref.cap(snr, real) - z * math.sqrt(n * ref.disp(snr, real)) + 0.5 * math.log2(n)
            self.inputs.append(
                {
                    "snr": snr,
                    "real": real,
                    "n": n,
                    "k": max(k, 1.0),
                    "eps0": eps0,
                    "x": r.uniform(-8.0, 30.0),
                    "R": r.uniform(0.1, 6.0),
                    "k2": r.uniform(20.0, 400.0),
                    "n2": r.randint(50, 2000),
                    "ki": r.uniform(0.3, 1.0),
                    "M": r.randint(2, 20),
                }
            )
        self.ops = [Op("point", "", self._op(p)) for p in self.inputs]

    @staticmethod
    def _op(p: dict[str, Any]) -> Callable[[Call], Any]:
        snr, n, k, eps0, R = p["snr"], p["n"], p["k"], p["eps0"], p["R"]

        def run(call: Call) -> Any:
            ch = _channel(snr, p["real"])
            code = CodeSpec(k, float(n))
            return (
                call("specfun", "q_func", q_func, p["x"]),
                call("specfun", "q_inv", q_inv, eps0),
                call("specfun", "log_q_func", log_q_func, p["x"]),
                call("awgn", "eps_star", eps_star, ch, code),
                call("awgn", "eps_star_log", eps_star_log, ch, code),
                call("awgn", "rate_na", rate_na, ch, float(n), eps0),
                call("awgn", "min_blocklength", min_blocklength, ch, k, eps0),
                call("fading", "eps_quasistatic", eps_quasistatic, snr, R, float(n)),
                call("fading", "outage_prob_siso", outage_prob_siso, snr, R),
                call("fading", "outage_capacity_siso", outage_capacity_siso, snr, eps0),
                call("protocols", "twoway_reliability", twoway_reliability,
                     TwoWayConfig(k, p["k2"], ch), n, p["n2"]),
                call("protocols", "twoway_tdd_eval", twoway_tdd_eval, k, p["ki"] * k, float(n), ch),
                call("protocols", "downlink_compare", downlink_compare,
                     DownlinkConfig(p["M"], k, float(n), ch)),
            )

        return run

    def record(self, i: int, out: Any) -> Any:
        q, qi, lq, e, le, rr, n_min, eqs, po, ce, rel, tdd, dl = out
        return {
            "q": q, "qinv": qi, "logq": lq, "eps": e, "log_eps": le,
            "rate": rr.rate, "capacity": rr.capacity, "dispersion": rr.dispersion,
            "penalty": rr.penalty, "correction": rr.correction, "n_min": n_min,
            "eps_qs": eqs, "p_out": po, "c_eps": ce, "rel2": rel,
            "tdd_eps": tdd.eps, "tdd_thr": tdd.throughput,
            "dl_eps_tdma": dl.eps_tdma, "dl_eps_concat": dl.eps_concat,
            "dl_log_eps_concat": dl.log_eps_concat, "dl_bits": dl.per_device_decoded_bits,
        }

    def rel_tol(self, i: int, key: str) -> float:
        return REL_QS if key == "eps_qs" else REL_CLOSED

    # a point calls four layers; its problems name the function or record key
    LAYER_OF = {
        "q": "specfun", "qinv": "specfun", "logq": "specfun",
        "q_func": "specfun", "q_inv": "specfun", "log_q_func": "specfun",
        "eps_qs": "fading", "p_out": "fading", "c_eps": "fading",
        "eps_quasistatic": "fading", "outage_prob_siso": "fading", "outage_capacity_siso": "fading",
        "rel2": "protocols", "tdd_eps": "protocols", "tdd_thr": "protocols", "dl_eps_tdma": "protocols",
        "dl_eps_concat": "protocols", "dl_log_eps_concat": "protocols", "dl_bits": "protocols",
        "twoway_reliability": "protocols", "twoway_tdd_eval": "protocols", "downlink": "protocols",
    }

    def layer_of(self, i: int, problem: str) -> str:
        word = problem.removeprefix("golden ").split()[0].split(":")[0]
        return self.LAYER_OF.get(word, "awgn")

    def check(self, i: int, out: Any) -> list[str]:
        p = self.inputs[i]
        snr, real, n, k, eps0, x, R = p["snr"], p["real"], p["n"], p["k"], p["eps0"], p["x"], p["R"]
        o = self.record(i, out)
        bad: list[str] = []
        _need(bad, ref.close(o["q"], ref.q(x), REL_CLOSED), "q_func")
        _need(bad, ref.close(ref.q(o["qinv"]), eps0, REL_EPS), "q_inv round trip")
        _need(bad, abs(o["logq"] - math.log(ref.q(x))) <= ABS_LOGQ, "log_q_func")
        e_ref = ref.eps(snr, real, k, n)
        _need(bad, ref.close(o["eps"], e_ref, REL_EPS, TINY), "eps_star")
        if o["eps"] > TINY:
            _need(bad, ref.close(math.exp(o["log_eps"]), o["eps"], REL_EPS), "eps_star_log")
        _need(bad, o["rate"] == o["capacity"] - o["penalty"] + o["correction"], "rate_na identity")
        _need(bad, ref.close(o["capacity"], ref.cap(snr, real), REL_CLOSED), "rate_na capacity")
        v = ref.disp(snr, real)
        _need(bad, ref.close(o["dispersion"], v, REL_CLOSED), "rate_na dispersion")
        _need(bad, ref.close(o["correction"], math.log2(n) / (2.0 * n), REL_CLOSED), "rate_na correction")
        _need(bad, ref.close(ref.q(o["penalty"] / math.sqrt(v / n)), eps0, REL_EPS), "rate_na penalty")
        m = o["n_min"]
        tight = isinstance(m, int) and m >= 1
        tight = tight and ref.eps(snr, real, k, m) <= eps0 * (1.0 + REL_EPS)
        tight = tight and (m == 1 or ref.eps(snr, real, k, m - 1) > eps0 * (1.0 - REL_EPS))
        _need(bad, tight, "min_blocklength not the smallest n meeting the target")
        _need(bad, ref.close(o["eps_qs"], ref.eps_quasistatic(snr, R, float(n)), REL_QS), "eps_quasistatic")
        _need(bad, ref.close(o["p_out"], ref.outage(snr, R), REL_CLOSED), "outage_prob_siso")
        _need(bad, ref.close(o["c_eps"], ref.outage_cap(snr, eps0), REL_CLOSED), "outage_capacity_siso")
        rel2 = ref.twoway_rel(snr, real, k, p["k2"], n, p["n2"])
        _need(bad, ref.close(o["rel2"], rel2, REL_EPS), "twoway_reliability")
        _need(bad, ref.close(o["tdd_eps"], e_ref, REL_EPS, TINY), "twoway_tdd_eval eps")
        thr = (1.0 - o["tdd_eps"]) * p["ki"] * k / n
        _need(bad, ref.close(o["tdd_thr"], thr, REL_CLOSED), "twoway_tdd_eval throughput")
        _need(bad, ref.close(o["dl_eps_tdma"], e_ref, REL_EPS, TINY), "downlink eps_tdma")
        e_cat = ref.eps(snr, real, p["M"] * k, p["M"] * float(n))
        if e_cat > TINY:
            _need(bad, abs(o["dl_log_eps_concat"] - math.log(e_cat)) <= ABS_LOGQ, "downlink log_eps_concat")
        _need(bad, o["dl_eps_concat"] == math.exp(o["dl_log_eps_concat"]), "downlink eps_concat")
        _need(bad, o["dl_bits"] == p["M"] * k, "downlink bits")
        return bad


# ---------------------------------------------------------------------------
# design-scan: the optimizers, i.e. the array path over many points per call


class DesignScan(Workload):
    name = "design-scan"
    tail_pct = 90.0
    # The counts place the latency percentiles inside groups of like calls,
    # away from the jumps in cost between groups: p50 among the fixed-n
    # calls, p90 among the reliability-target calls, below the 16 ALOHA
    # scans at M >= 1000
    FIXED = 100
    TARGET = 48
    ALOHA_CALLS = {10: 4, 100: 4, 1000: 4, 10_000: 4}  # per (M, perfect decoding)

    def __init__(self, seed: int, src: str) -> None:
        super().__init__(seed, src)
        r = self.rng

        def link() -> dict[str, Any]:
            k1 = r.uniform(50.0, 400.0)
            return {
                "snr": _db(r.uniform(0.0, 20.0)),
                "real": r.random() < 0.5,
                "k1": k1,
                "k2": r.uniform(20.0, 200.0),
                "ki1": r.uniform(0.3, 1.0) * k1,
            }

        # n_total stratified over 200..5000, so the spread of call costs, and
        # with it the median call, is the same for every seed
        items = [{"kind": "fixed", "n_total": 200 + int((j + r.random()) * 4800 / self.FIXED), **link()}
                 for j in range(self.FIXED)]
        items += [{"kind": "target", "target": 1.0 - 10.0 ** -r.uniform(2.0, 6.0), **link()}
                  for _ in range(self.TARGET)]
        for M, calls in self.ALOHA_CALLS.items():
            for perfect in (False, True) * calls:
                items.append(
                    {
                        "kind": "aloha",
                        "M": M,
                        "perfect": perfect,
                        "snr": _db(r.uniform(0.0, 20.0)),
                        "real": r.random() < 0.5,
                        "D": r.uniform(50.0, 400.0),
                        "n": M * r.uniform(60.0, 200.0),
                    }
                )
        r.shuffle(items)
        self.inputs = items
        self.ops = [self._op(p) for p in items]

    @staticmethod
    def _op(p: dict[str, Any]) -> Op:
        if p["kind"] == "aloha":
            label = "aloha_optimize_small" if p["M"] <= 100 else "aloha_optimize_large"

            def run(call: Call) -> Any:
                cfg = AlohaConfig(p["M"], p["D"], p["n"], _channel(p["snr"], p["real"]))
                return call("protocols", "aloha_optimize", aloha_optimize, cfg, None, p["perfect"])

            return Op(label, "protocols", run)
        objective = {"n_total": p["n_total"]} if p["kind"] == "fixed" else {"target_reliability": p["target"]}

        def run(call: Call) -> Any:
            cfg = TwoWayConfig(p["k1"], p["k2"], _channel(p["snr"], p["real"]), **objective)
            return call("protocols", "twoway_optimize", twoway_optimize, cfg, p["ki1"])

        return Op(f"twoway_optimize_{p['kind']}", "protocols", run)

    def _sample_ks(self, i: int, k_max: int, k_opt: int) -> list[int]:
        r = random.Random(f"{self.name}:{self.seed}:{i}")
        return sorted({1, k_opt, k_max, *(r.randint(1, k_max) for _ in range(3))})

    def record(self, i: int, out: Any) -> Any:
        if self.inputs[i]["kind"] == "aloha":
            k_max = len(out.profile)
            ks = self._sample_ks(i, k_max, out.k_opt)
            return {"k_opt": out.k_opt, "k_max": k_max,
                    "samples": [[kk, out.profile[kk - 1][1]] for kk in ks]}
        return {"feasible": out.feasible, "n": out.n, "n1": out.n1, "n2": out.n2,
                "reliability": out.reliability, "throughput": out.throughput}

    def check(self, i: int, out: Any) -> list[str]:
        p = self.inputs[i]
        bad: list[str] = []
        if p["kind"] == "aloha":
            M, D, n = p["M"], p["D"], p["n"]
            prof = out.profile
            _need(bad, [kk for kk, _ in prof] == list(range(1, 4 * M + 1)), "profile must scan K=1..4M")
            if bad:
                return bad
            vals = [v for _, v in prof]
            best = max(vals)
            _need(bad, vals[out.k_opt - 1] == best and best not in vals[: out.k_opt - 1],
                  "k_opt is not the first argmax of the profile")
            ref_vals = [ref.aloha_success(M, kk, p["snr"], p["real"], D, n, p["perfect"])
                        for kk in range(1, 4 * M + 1)]
            _need(bad, ref_vals[out.k_opt - 1] >= max(ref_vals) * (1.0 - REL_SPLIT), "k_opt not optimal")
            for kk, v in self.record(i, out)["samples"]:
                _need(bad, ref.close(v, ref_vals[kk - 1], REL_EPS), f"profile value at K={kk}")
            return bad
        snr, real, k1, k2 = p["snr"], p["real"], p["k1"], p["k2"]
        _need(bad, out.feasible is True and out.n1 >= 1 and out.n2 >= 1 and out.n1 + out.n2 == out.n,
              "split must be feasible and sum to n")
        if bad:
            return bad
        rel = ref.twoway_rel(snr, real, k1, k2, out.n1, out.n2)
        _need(bad, ref.close(out.reliability, rel, REL_EPS), "reliability")
        _need(bad, ref.close(out.throughput, out.reliability * p["ki1"] / out.n, REL_CLOSED), "throughput")
        if p["kind"] == "fixed":
            _need(bad, out.n == p["n_total"], "n must equal n_total")
            best = ref.best_twoway_rel(snr, real, k1, k2, out.n)
            _need(bad, rel >= best - REL_SPLIT, "split is not the best")
        else:
            _need(bad, out.reliability > p["target"], "target not met")
            if out.n > 2:
                below = ref.best_twoway_rel(snr, real, k1, k2, out.n - 1)
                _need(bad, below <= p["target"] + REL_SPLIT, "n - 1 already meets the target")
        return bad


# ---------------------------------------------------------------------------
# mc-crosscheck: the simulators at fixed shapes


SNR10 = 10.0
QS_EPS = 0.1  # 1x1 MIMO runs at the outage capacity of this outage level


class McCrosscheck(Workload):
    name = "mc-crosscheck"
    # (label, layer, trials); trial counts separate the operations' times so
    # the latency percentiles fall inside one operation kind each
    SHAPES = (
        ("sim_aloha_small", "mcsim", 1 << 18),
        ("sim_aloha_large", "mcsim", 1 << 14),
        ("sim_twoway", "mcsim", 1 << 20),
        ("mimo_1x1", "fading", 1 << 17),
        ("mimo_4x4_l4", "fading", 1 << 14),
    )

    def __init__(self, seed: int, src: str) -> None:
        super().__init__(seed, src)
        for idx, (label, layer, trials) in enumerate(self.SHAPES):
            h = hashlib.sha256(f"{self.name}:{seed}:{idx}".encode()).digest()
            mc_seed = int.from_bytes(h[:8], "little")
            self.inputs.append({"label": label, "trials": trials, "seed": mc_seed})
            self.ops.append(Op(label, layer, self._op(label, trials, mc_seed)))

    @staticmethod
    def _op(label: str, trials: int, s: int) -> Callable[[Call], Any]:
        ch = Channel(SNR10, Convention.REAL_CU)
        if label == "sim_aloha_small":
            cfg = AlohaConfig(10, 192.0, 750.0, ch, K=6)
            return lambda call: call("mcsim", label, sim_aloha, cfg, trials, s)
        if label == "sim_aloha_large":
            cfg = AlohaConfig(100, 192.0, 7500.0, ch, K=60)
            return lambda call: call("mcsim", label, sim_aloha, cfg, trials, s)
        if label == "sim_twoway":
            cfg = TwoWayConfig(193.0, 97.0, ch)
            return lambda call: call("mcsim", label, sim_twoway, cfg, 132, 71, trials, s)
        if label == "mimo_1x1":
            qs = QuasiStaticConfig(SNR10, 1, 1)
            rate = ref.outage_cap(SNR10, QS_EPS)
            return lambda call: call("fading", label, outage_prob_mimo_mc, qs, 1, rate, trials, s)
        qs = QuasiStaticConfig(SNR10, 4, 4)
        return lambda call: call("fading", label, outage_prob_mimo_mc, qs, 4, 10.0, trials, s)

    @staticmethod
    def _report(rep: Any) -> dict[str, Any]:
        return {"estimate": rep.estimate, "std_error": rep.std_error, "trials": rep.trials, "seed": rep.seed}

    def record(self, i: int, out: Any) -> Any:
        if self.inputs[i]["label"].startswith("sim_aloha"):
            return {"per_slot": self._report(out.per_slot_throughput),
                    "per_device": self._report(out.per_device_success)}
        return self._report(out)

    def rel_tol(self, i: int, key: str) -> float:
        return 0.0  # reports are bit-identical per seed

    def check(self, i: int, out: Any) -> list[str]:
        p = self.inputs[i]
        label, trials = p["label"], p["trials"]
        bad: list[str] = []
        if label.startswith("sim_aloha"):
            M, K = (10, 6) if label == "sim_aloha_small" else (100, 60)
            n_slot = (750 if M == 10 else 7500) // K
            rep, dev = out.per_slot_throughput, out.per_device_success
            _need(bad, ref.close(rep.estimate * K, dev.estimate * M, REL_CLOSED), "per-slot/per-device identity")
            analytic = ref.aloha_success(M, K, SNR10, True, 192.0, float(K * n_slot), False)
        elif label == "sim_twoway":
            rep = out
            analytic = ref.twoway_rel(SNR10, True, 193.0, 97.0, 132, 71)
        else:
            rep = out
            analytic = QS_EPS if label == "mimo_1x1" else None
        _need(bad, rep.trials == trials and rep.seed == p["seed"], "report echoes trials and seed")
        _need(bad, 0.0 <= rep.estimate <= 1.0, "estimate in range")
        if not label.startswith("sim_aloha"):
            se = math.sqrt(rep.estimate * (1.0 - rep.estimate) / trials)
            _need(bad, ref.close(rep.std_error, se, REL_CLOSED), "binomial standard error")
        if analytic is not None:
            _need(bad, abs(rep.estimate - analytic) <= MC_SIGMAS * rep.std_error,
                  f"{abs(rep.estimate - analytic) / max(rep.std_error, 1e-300):.2f} sigma from the analytic value")
        return bad


# ---------------------------------------------------------------------------
# cli-session: a fixed script of shortpacket processes, one at a time

CLI_MAIN = "import sys; from shortpacket.cli import main; sys.exit(main())"
FORMATS = ("table", "json", "csv")
QS_SWEEP_POINTS = 1001
EPS_SWEEP_POINTS = 201
SWEEP_CHECK_EVERY = 10  # sweep rows checked against the library


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def run_cli(src: str, argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-c", CLI_MAIN, *argv],
        capture_output=True, text=True, env=child_env(src), timeout=150,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _num(s: str) -> Any:
    try:
        return int(s)
    except ValueError:
        return float(s)


def parse_output(fmt: str, text: str) -> dict[str, Any]:
    """Scalars and rows of one CLI output, whatever its format."""
    if fmt == "json":
        data = json.loads(text)
        rows = next((v for v in data.values() if isinstance(v, list)), None)
        return {"scalars": {k: v for k, v in data.items() if not isinstance(v, list)}, "rows": rows}
    lines = text.splitlines()
    if fmt == "csv":
        head = lines[0].split(",")
        body = [dict(zip(head, (_num(c) for c in ln.split(",")))) for ln in lines[1:]]
        return {"scalars": body[0] if len(body) == 1 else {}, "rows": body}
    scalars: dict[str, Any] = {}
    i = 0
    while i < len(lines) and lines[i].strip():
        parts = lines[i].split()
        if len(parts) != 2:
            break
        scalars[parts[0]] = parts[1]
        i += 1
    while i < len(lines) and not lines[i].strip():
        i += 1
    rows = None
    if i < len(lines):
        head = lines[i].split()
        rows = [dict(zip(head, ln.split())) for ln in lines[i + 1:]]
    return {"scalars": scalars, "rows": rows}


def _fmt6(v: Any) -> str:
    if isinstance(v, bool):
        return str(int(v))
    return str(v) if isinstance(v, int) else f"{v:.6g}"


class CliSession(Workload):
    """Not timed as a workload: one shortpacket process per call made its
    run-to-run spread on a shared 2-vCPU VM wider than any bound the
    benchmark can set.  The traced run runs the script once and checks
    every invocation."""

    name = "cli-session"

    def __init__(self, seed: int, src: str) -> None:
        super().__init__(seed, src)
        r = self.rng

        def f(lo: float, hi: float, nd: int = 3) -> float:
            return round(r.uniform(lo, hi), nd)

        def chan() -> dict[str, Any]:
            return {"snr_db": f(0.0, 20.0), "convention": r.choice(("complex", "real"))}

        mt, mr = r.randint(1, 4), r.randint(1, 4)
        nc = r.randint(2 * min(mt, mr) + mr + 1, 40)
        M = r.randint(5, 40)
        script: list[tuple[str, dict[str, Any]]] = [
            ("rate", {"n": float(r.randint(50, 2000)), "eps": float(f"{10 ** -r.uniform(1, 6):.3e}"), **chan()}),
            ("eps", {"k": f(50.0, 400.0), "n": float(r.randint(100, 600)), **chan()}),
            ("min-n", {"k": f(50.0, 400.0), "eps": float(f"{10 ** -r.uniform(1, 6):.3e}"), **chan()}),
            ("outage", {"rate": f(0.1, 6.0), "snr_db": f(0.0, 25.0)}),
            ("outage-cap", {"eps": float(f"{10 ** -r.uniform(0.5, 6):.3e}"), "snr_db": f(0.0, 25.0)}),
            ("qs-eps", {"rate": f(0.5, 4.0), "n": float(r.randint(50, 2000)), "snr_db": f(0.0, 25.0)}),
            ("prelog", {"mt": mt, "mr": mr, "nc": nc}),
            ("dmt", {"mt": mt, "mr": mr, "mode": "noncoherent", "nc": nc,
                     "at": f(0.0, float(mt * mr))}),
            ("twoway-opt", {"k1": f(50.0, 300.0), "k2": f(20.0, 200.0), "ki1": f(20.0, 50.0),
                            "n": r.randint(200, 3000), **chan()}),
            ("twoway-tdd", {"k": f(100.0, 300.0), "ki": f(20.0, 99.0), "n_slot": float(r.randint(60, 400)),
                            **chan()}),
            ("downlink", {"devices": r.randint(2, 20), "bits": f(50.0, 300.0),
                          "slot": float(r.randint(60, 400)), **chan()}),
            ("aloha", {"devices": M, "bits": f(50.0, 300.0), "frame": float(M * r.randint(60, 200)),
                       "slots": r.randint(1, 4 * M), **chan()}),
            ("aloha-opt", {"devices": M, "bits": f(50.0, 300.0), "frame": float(M * r.randint(60, 200)),
                           **chan()}),
        ]
        offset = seed % 3
        for j, (cmd, a) in enumerate(script):
            a["format"] = FORMATS[(j + offset) % 3]
        n0 = r.randint(50, 500)
        script.append(("qs-eps", {"rate": f(0.5, 4.0), "n": float(n0), "snr_db": f(0.0, 25.0), "format": "csv",
                                  "sweep": f"n:{n0}:{n0 + QS_SWEEP_POINTS - 1}:1"}))
        n1 = r.randint(100, 600)
        script.append(("eps", {"k": f(50.0, 400.0), "n": float(n1), **chan(), "format": "json",
                               "sweep": f"n:{n1}:{n1 + EPS_SWEEP_POINTS - 1}:1"}))
        script.append(("reproduce-paper", {}))
        for cmd, a in script:
            label = cmd + ("-sweep" if "sweep" in a else "")
            self.inputs.append({"cmd": cmd, "label": label, "args": a, "argv": self.argv(cmd, a)})
            self.ops.append(Op(label, "cli", self._op(self.inputs[-1]["argv"])))

    @staticmethod
    def argv(cmd: str, a: dict[str, Any]) -> list[str]:
        out = [cmd]
        for key, v in a.items():
            out += [f"--{key.replace('_', '-')}", repr(v) if isinstance(v, float) else str(v)]
        return out

    def _op(self, argv: list[str]) -> Callable[[Call], Any]:
        return lambda call: call("cli", argv[0], run_cli, self.src, argv)

    def record(self, i: int, out: Any) -> Any:
        code, stdout, _ = out
        p = self.inputs[i]
        if p["cmd"] == "reproduce-paper":
            return {"exit": code, "lines": stdout.splitlines()}
        parsed = parse_output(p["args"]["format"], stdout) if code == 0 else None
        if parsed and "sweep" in p["args"]:
            rows = parsed["rows"] or []
            parsed = {"count": len(rows), "rows": rows[::SWEEP_CHECK_EVERY]}
        return {"exit": code, "output": parsed}

    def rel_tol(self, i: int, key: str) -> float:
        p = self.inputs[i]
        if p["args"].get("format") == "table":
            return 0.0  # compared as the printed text
        return REL_QS if p["cmd"] == "qs-eps" else REL_CLOSED

    def check(self, i: int, out: Any) -> list[str]:
        code, stdout, stderr = out
        p = self.inputs[i]
        cmd, a = p["cmd"], p["args"]
        if code != 0:
            return [f"exit {code}: {stderr.strip()[-300:]}"]
        if cmd == "reproduce-paper":
            lines = stdout.splitlines()
            ok = len(lines) == 12 and all(ln.startswith("[PASS] ") for ln in lines)
            return [] if ok else ["reproduce-paper must print 12 [PASS] lines"]
        got = parse_output(a["format"], stdout)
        want = expected_cli(cmd, a)
        bad: list[str] = []
        rel = REL_QS if cmd == "qs-eps" else REL_CLOSED
        if "sweep" in a:
            name = a["sweep"].split(":")[0]
            rows = got["rows"] or []
            _need(bad, len(rows) == len(want["rows"]), "sweep row count")
            for j in range(0, min(len(rows), len(want["rows"])), SWEEP_CHECK_EVERY):
                bad += _compare(rows[j], want["rows"][j], a["format"], rel)
            return bad
        if want["scalars"] and not (a["format"] == "csv" and want["rows"]):
            bad += _compare(got["scalars"], want["scalars"], a["format"], rel)
        if want["rows"]:
            rows = got["rows"] or []
            _need(bad, len(rows) == len(want["rows"]), "row count")
            for gr, wr in zip(rows, want["rows"]):
                bad += _compare(gr, wr, a["format"], rel)
        return bad


def _compare(got: dict[str, Any], want: dict[str, Any], fmt: str, rel: float) -> list[str]:
    bad = []
    for key, w in want.items():
        if key not in got:
            bad.append(f"missing {key}")
            continue
        g = got[key]
        if fmt == "table":
            ok = g == _fmt6(w) or (not isinstance(w, int) and ref.close(float(g), w, REL_TABLE, TINY))
        elif isinstance(w, (bool, int)):
            ok = g == int(w)
        else:
            ok = isinstance(g, (int, float)) and ref.close(float(g), w, rel, TINY)
        if not ok:
            bad.append(f"{key}: got {g!r}, want {w!r}")
    return bad


def expected_cli(cmd: str, a: dict[str, Any]) -> dict[str, Any]:
    """What the library says a subcommand should print, as scalars and rows."""
    if "sweep" in a:
        name, start, stop, step = a["sweep"].split(":")
        count = int(math.floor((float(stop) - float(start)) / float(step) + 1e-9)) + 1
        rows: list[dict[str, Any]] = []
        for j in range(count):
            v = float(start) + j * float(step)
            point = {k: x for k, x in a.items() if k != "sweep"}
            point[name] = v
            rows.append({name: v, **expected_cli(cmd, point)["scalars"]} if j % SWEEP_CHECK_EVERY == 0 else {})
        return {"scalars": {}, "rows": rows}
    snr = _db(a["snr_db"]) if "snr_db" in a else None
    ch = _channel(snr, a.get("convention") == "real") if "convention" in a else None
    rows = None
    if cmd == "rate":
        r = rate_na(ch, a["n"], a["eps"])
        s = {"rate": r.rate, "capacity": r.capacity, "dispersion": r.dispersion,
             "penalty": r.penalty, "correction": r.correction}
    elif cmd == "eps":
        code = CodeSpec(a["k"], a["n"])
        s = {"eps": eps_star(ch, code), "log_eps": eps_star_log(ch, code)}
    elif cmd == "min-n":
        s = {"n_min": min_blocklength(ch, a["k"], a["eps"])}
    elif cmd == "outage":
        s = {"p_out": outage_prob_siso(snr, a["rate"])}
    elif cmd == "outage-cap":
        s = {"c_eps": outage_capacity_siso(snr, a["eps"])}
    elif cmd == "qs-eps":
        s = {"eps": eps_quasistatic(snr, a["rate"], a["n"])}
    elif cmd == "prelog":
        s = {"prelog": noncoherent_prelog(a["mt"], a["mr"], a["nc"]), "m_star": min(a["mt"], a["mr"], a["nc"] // 2)}
    elif cmd == "dmt":
        curve = dmt_curve(a["mt"], a["mr"], DmtMode(a["mode"]), n_c=a["nc"])
        s = {"scaling": curve.scaling, "multiplexing_at_d": dmt_eval(curve, a["at"])}
        rows = [{"diversity": d, "multiplexing": m} for d, m in curve.breakpoints]
    elif cmd == "twoway-opt":
        res = twoway_optimize(TwoWayConfig(a["k1"], a["k2"], ch, n_total=a["n"]), a["ki1"])
        s = {"feasible": int(res.feasible), "n": res.n, "n1": res.n1, "n2": res.n2,
             "reliability": res.reliability, "throughput": res.throughput}
    elif cmd == "twoway-tdd":
        res = twoway_tdd_eval(a["k"], a["ki"], a["n_slot"], ch)
        s = {"eps": res.eps, "throughput": res.throughput}
    elif cmd == "downlink":
        res = downlink_compare(DownlinkConfig(a["devices"], a["bits"], a["slot"], ch))
        s = {"eps_tdma": res.eps_tdma, "eps_concat": res.eps_concat,
             "log_eps_concat": res.log_eps_concat, "per_device_decoded_bits": res.per_device_decoded_bits}
    elif cmd == "aloha":
        cfg = AlohaConfig(a["devices"], a["bits"], a["frame"], ch, K=a["slots"])
        s = {"p_success": aloha_success(cfg), "eps": eps_star(ch, CodeSpec(cfg.D, cfg.slot_length)),
             "slot_length": cfg.slot_length}
    elif cmd == "aloha-opt":
        res = aloha_optimize(AlohaConfig(a["devices"], a["bits"], a["frame"], ch))
        s = {"k_opt": res.k_opt}
        rows = [{"slots": kk, "p_success": v} for kk, v in res.profile]
    else:
        raise ValueError(f"no expectation for {cmd}")
    return {"scalars": s, "rows": rows}


WORKLOADS = {w.name: w for w in (PointSweep, DesignScan, McCrosscheck)}


# ---------------------------------------------------------------------------
# domain-edge inputs: each must give a finite in-range value, ValueError or
# exit code 3.  They run once per run, outside the timed operations, and their
# failures are reported on their own line and in <layer>.failed.


def edge_inputs(call: Call) -> list[tuple[str, str, str | None]]:
    """(layer, input, problem or None) for each domain-edge input."""
    from shortpacket import dispersion
    from shortpacket.cli import run as cli_run

    def value_in(lo: float, hi: float) -> Callable[[Any], bool]:
        return lambda v: math.isfinite(v) and lo <= v <= hi

    def cli_outage() -> int:
        from contextlib import redirect_stderr, redirect_stdout

        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli_run(["outage", "--rate", "2000", "--snr-db", "10"])

    cases = [
        ("fading", "outage_prob_siso(10, 2000)", lambda: outage_prob_siso(10.0, 2000.0), value_in(0.0, 1.0)),
        ("fading", "eps_quasistatic(10, 2000, 100)", lambda: eps_quasistatic(10.0, 2000.0, 100.0),
         value_in(0.0, 1.0)),
        ("awgn", "dispersion(Channel(1e200))", lambda: dispersion(Channel(1e200)), value_in(0.0, math.inf)),
        ("cli", "shortpacket outage --rate 2000 --snr-db 10", cli_outage, lambda code: code in (0, 3)),
    ]
    results = []
    for layer, label, fn, ok in cases:
        try:
            v = call(layer, "edge", fn)
            problem = None if ok(v) else f"returned {v!r}"
        except ValueError:
            problem = None
        except Exception as exc:  # the defect being probed: anything but ValueError
            problem = f"raised {type(exc).__name__}: {exc}"
        results.append((layer, label, problem))
    return results
