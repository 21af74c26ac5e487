"""Short-packet protocol analyses built on the finite-blocklength error
probability: two-way exchange optimization, TDD round throughput, downlink
broadcast strategies, and framed slotted ALOHA.

Every protocol here trades the same quantity: at fixed total resources,
longer packets decode more reliably but carry fewer per-link channel uses
(or collide more often).  The optimizers do exhaustive or monotone searches
over small integer spaces, so results are exact for the model rather than
local optima.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._check import integer, probability, real
from .awgn import Channel, CodeSpec, _eps_star_grid, _smallest_n, eps_star, eps_star_log

__all__ = [
    "TwoWayConfig",
    "TwoWayResult",
    "TddResult",
    "DownlinkConfig",
    "DownlinkResult",
    "AlohaConfig",
    "AlohaOptResult",
    "twoway_reliability",
    "twoway_optimize",
    "twoway_tdd_eval",
    "downlink_compare",
    "aloha_success",
    "aloha_optimize",
]


@dataclass(frozen=True)
class TwoWayConfig:
    """Two-way packet exchange: k1 bits one way, k2 bits back.

    Exactly one of n_total (maximize reliability at fixed total blocklength)
    or target_reliability (minimize total blocklength) must be set before
    calling twoway_optimize; twoway_reliability needs neither.
    """

    k1: float
    k2: float
    ch: Channel
    n_total: int | None = None
    target_reliability: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "k1", real("k1", self.k1, gt=0.0))
        object.__setattr__(self, "k2", real("k2", self.k2, gt=0.0))
        if not isinstance(self.ch, Channel):
            raise ValueError(f"ch must be a Channel, got {self.ch!r}")
        if self.n_total is not None:
            object.__setattr__(self, "n_total", integer("n_total", self.n_total, ge=2))
        if self.target_reliability is not None:
            target = probability("target_reliability", self.target_reliability)
            object.__setattr__(self, "target_reliability", target)
        if self.n_total is not None and self.target_reliability is not None:
            raise ValueError("set at most one of n_total and target_reliability")


@dataclass(frozen=True)
class TwoWayResult:
    """Optimized exchange.  When feasible is False (target unreachable below
    the search ceiling), the remaining fields describe the best split found
    at the ceiling."""

    feasible: bool
    n: int
    n1: int
    n2: int
    reliability: float
    throughput: float


@dataclass(frozen=True)
class TddResult:
    """One TDD round: packet error probability and per-use throughput."""

    eps: float
    throughput: float


def _check_devices(cfg: DownlinkConfig | AlohaConfig) -> None:
    object.__setattr__(cfg, "M", integer("M", cfg.M, ge=1))
    object.__setattr__(cfg, "D", real("D", cfg.D, gt=0.0))
    object.__setattr__(cfg, "n", real("n", cfg.n, ge=1.0))
    if not isinstance(cfg.ch, Channel):
        raise ValueError(f"ch must be a Channel, got {cfg.ch!r}")


@dataclass(frozen=True)
class DownlinkConfig:
    """Downlink broadcast to M devices, D bits each, per-device slot n."""

    M: int
    D: float
    n: float
    ch: Channel

    def __post_init__(self) -> None:
        _check_devices(self)

    @property
    def frame_length(self) -> float:
        return self.M * self.n

    @property
    def total_bits(self) -> float:
        return self.M * self.D


@dataclass(frozen=True)
class DownlinkResult:
    """Per-device error probability of the two broadcast strategies over the
    same frame: one short packet per device (TDMA) versus one long packet
    carrying every payload (concatenation).  log_eps_concat stays finite
    when eps_concat underflows."""

    eps_tdma: float
    eps_concat: float
    log_eps_concat: float
    per_device_decoded_bits: float


@dataclass(frozen=True)
class AlohaConfig:
    """Framed slotted ALOHA: M devices, D bits per packet, frame of n
    channel uses split into K slots.  K may be left unset when it is the
    optimization variable."""

    M: int
    D: float
    n: float
    ch: Channel
    K: int | None = None

    def __post_init__(self) -> None:
        _check_devices(self)
        if self.K is not None:
            object.__setattr__(self, "K", integer("K", self.K, ge=1))

    @property
    def slot_length(self) -> float:
        """Real-valued slot length n/K (the simulator floors it)."""
        if self.K is None:
            raise ValueError("slot_length requires K to be set")
        return self.n / self.K


class _AlohaProfile(Sequence):
    """Read-only (K, success probability) pairs for K = 1..len, over one
    float array.

    It acts as the tuple ((1, p_1), (2, p_2), ...) of int and float pairs
    in len, indexing, slicing (which returns that tuple's slice),
    iteration, ==, hash, repr and pickling.  The pairs are built on access,
    so the array is all it holds.
    """

    __slots__ = ("_ps",)

    def __init__(self, ps: np.ndarray) -> None:
        ps.flags.writeable = False
        self._ps = ps

    def __len__(self) -> int:
        return len(self._ps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(zip(range(1, len(self._ps) + 1)[i], self._ps[i].tolist()))
        i = operator.index(i)
        n = len(self._ps)
        if not -n <= i < n:
            raise IndexError("profile index out of range")
        i %= n
        return i + 1, float(self._ps[i])

    def __iter__(self):
        return zip(range(1, len(self._ps) + 1), self._ps.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, _AlohaProfile)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        # written out in full, never numpy's "..." summary
        return repr(tuple(self))

    def __reduce__(self):
        return type(self), (self._ps,)


@dataclass(frozen=True)
class AlohaOptResult:
    """Optimal slot count and the full (K, success probability) profile.

    profile is a read-only sequence of (int, float) pairs for K = 1..k_max,
    computed on access from one float array; it equals, hashes and prints
    as the tuple of those pairs.
    """

    k_opt: int
    profile: Sequence[tuple[int, float]]


def twoway_reliability(cfg: TwoWayConfig, n1: int, n2: int) -> float:
    """Probability both packets of the exchange decode: the product
    (1 - eps*(k1, n1)) * (1 - eps*(k2, n2))."""
    n1 = integer("n1", n1, ge=1)
    n2 = integer("n2", n2, ge=1)
    e1 = eps_star(cfg.ch, CodeSpec(cfg.k1, n1))
    e2 = eps_star(cfg.ch, CodeSpec(cfg.k2, n2))
    return (1.0 - e1) * (1.0 - e2)


def _best_split(cfg: TwoWayConfig, n: int) -> tuple[int, float]:
    # exhaustive scan over n1 = 1..n-1; first argmax, so ties land on
    # the smaller n1 (and on n/2 when the objective is symmetric)
    n1 = np.arange(1, n, dtype=float)
    e1 = _eps_star_grid(cfg.ch, cfg.k1, n1)
    e2 = _eps_star_grid(cfg.ch, cfg.k2, float(n) - n1)
    rel = (1.0 - e1) * (1.0 - e2)
    i = int(np.argmax(rel))
    return int(n1[i]), float(rel[i])


def twoway_optimize(cfg: TwoWayConfig, k_i1: float, n_ceiling: int = 1_000_000) -> TwoWayResult:
    """Optimize the blocklength split of a two-way exchange.

    With cfg.n_total set: maximize exchange reliability over all splits
    n1 + n2 = n_total (ties go to the smaller n1).  With
    cfg.target_reliability set: find the smallest total n whose best split
    meets the target; if no n <= n_ceiling does, the result has
    feasible=False and reports the best split at the ceiling.

    Args:
        cfg: exchange description carrying exactly one objective.
        k_i1: information bits credited per successful exchange, > 0;
            throughput = reliability * k_i1 / n.
        n_ceiling: giving-up point for the minimum-blocklength search.
    """
    k_i1 = real("k_i1", k_i1, gt=0.0)
    n_ceiling = integer("n_ceiling", n_ceiling, ge=2)
    if (cfg.n_total is None) == (cfg.target_reliability is None):
        raise ValueError("exactly one of n_total and target_reliability must be set")

    def result(n: int, feasible: bool) -> TwoWayResult:
        n1, rel = _best_split(cfg, n)
        return TwoWayResult(feasible, n, n1, n - n1, reliability=rel, throughput=rel * k_i1 / n)

    if cfg.n_total is not None:
        return result(cfg.n_total, True)

    # the best achievable reliability is nondecreasing in n (any split at n
    # is available at n+1 with one spare use added where it cannot hurt)
    target = cfg.target_reliability
    n = _smallest_n(lambda m: _best_split(cfg, m)[1] > target, 2, n_ceiling)
    return result(n_ceiling, False) if n is None else result(n, True)


def twoway_tdd_eval(k: float, k_i: float, n_slot: float, ch: Channel) -> TddResult:
    """One TDD round: k total bits (payload plus protocol overhead) in a
    slot of n_slot uses, of which k_i are credited information bits.

    throughput = (1 - eps*(k, n_slot)) * k_i / n_slot.
    """
    code = CodeSpec(k, real("n_slot", n_slot, gt=0.0))
    k_i = real("k_i", k_i, gt=0.0, le=code.k)  # credited bits are a part of the k sent
    eps = eps_star(ch, code)
    return TddResult(eps=eps, throughput=(1.0 - eps) * k_i / code.n)


def downlink_compare(cfg: DownlinkConfig) -> DownlinkResult:
    """Per-device error probability: M short packets of (D, n) versus one
    concatenated packet of (M*D, M*n) occupying the same frame."""
    eps_tdma = eps_star(cfg.ch, CodeSpec(cfg.D, cfg.n))
    log_concat = eps_star_log(cfg.ch, CodeSpec(cfg.M * cfg.D, cfg.M * cfg.n))
    return DownlinkResult(
        eps_tdma=eps_tdma,
        eps_concat=math.exp(log_concat),
        log_eps_concat=log_concat,
        per_device_decoded_bits=cfg.M * cfg.D,
    )


def _aloha_profile(cfg: AlohaConfig, ks: np.ndarray, perfect: bool) -> np.ndarray:
    # p_success(K) = (M/K)(1 - 1/K)^(M-1) * (1 - eps*(D, n/K));
    # expected successful packets per slot, which is also the per-slot
    # throughput of the frame
    ks = ks.astype(float)
    collision = (cfg.M / ks) * (1.0 - 1.0 / ks) ** (cfg.M - 1)
    if perfect:
        return collision
    eps = _eps_star_grid(cfg.ch, cfg.D, cfg.n / ks)
    return collision * (1.0 - eps)


def aloha_success(cfg: AlohaConfig, assume_perfect_decoding: bool = False) -> float:
    """Per-slot success probability of framed slotted ALOHA at the
    configured slot count K.

    assume_perfect_decoding drops the finite-blocklength decoding factor,
    leaving only the collision term.
    """
    if cfg.K is None:
        raise ValueError("aloha_success requires cfg.K to be set")
    return float(_aloha_profile(cfg, np.array([cfg.K]), assume_perfect_decoding)[0])


def aloha_optimize(
    cfg: AlohaConfig, k_max: int | None = None, assume_perfect_decoding: bool = False
) -> AlohaOptResult:
    """Exhaustive search for the slot count maximizing per-slot success.

    Scans K = 1..k_max (default 4*M); ties go to the smaller K.  Returns
    the winner and the full profile for inspection or plotting.
    """
    k_max = integer("k_max", 4 * cfg.M if k_max is None else k_max, ge=1)
    ps = _aloha_profile(cfg, np.arange(1, k_max + 1), assume_perfect_decoding)
    # ks = 1..k_max, so the first argmax at index i is K = i + 1
    return AlohaOptResult(k_opt=int(np.argmax(ps)) + 1, profile=_AlohaProfile(ps))
