"""Short-packet protocol analyses built on the finite-blocklength error
probability: two-way exchange optimization, TDD round throughput, downlink
broadcast strategies, and framed slotted ALOHA.

Every protocol here trades the same quantity: at fixed total resources,
longer packets decode more reliably but carry fewer per-link channel uses
(or collide more often).  The optimizers scan small integer spaces
exhaustively, or, for a two-way reliability target, every split that can
meet it, so results are exact for the model rather than local optima.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

from ._check import MAX_EXACT, integer, probability, real
from .awgn import Channel, CodeSpec, _saturation, _slot_success, _success_grid, eps_star, eps_star_log

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
        object.__setattr__(self, "k1", real("k1", self.k1, gt=0.0, le=MAX_EXACT))
        object.__setattr__(self, "k2", real("k2", self.k2, gt=0.0, le=MAX_EXACT))
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
    object.__setattr__(cfg, "D", real("D", cfg.D, gt=0.0, le=MAX_EXACT))
    object.__setattr__(cfg, "n", real("n", cfg.n, ge=1.0, le=MAX_EXACT))
    if not isinstance(cfg.ch, Channel):
        raise ValueError(f"ch must be a Channel, got {cfg.ch!r}")


@dataclass(frozen=True)
class DownlinkConfig:
    """Downlink broadcast to M devices, D bits each, per-device slot n; the
    frame M*n and the total payload M*D stop at 2**53, as each of n and D does."""

    M: int
    D: float
    n: float
    ch: Channel

    def __post_init__(self) -> None:
        _check_devices(self)
        # the concatenated packet is a CodeSpec of (M*D, M*n)
        real("frame length M*n", self.frame_length, le=MAX_EXACT)
        real("total bits M*D", self.total_bits, le=MAX_EXACT)

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


def _leg_grids(cfg: TwoWayConfig, size: int) -> np.ndarray:
    """s[0, m-1] = 1 - eps*(k1, m) and s[1, m-1] = 1 - eps*(k2, m) for m = 1..size,
    both legs from one _success_grid call over k as a (2, 1) column, so
    m*C, log2(m)/2 and sqrt(mV) are shared."""
    import numpy as np
    k = np.array([[cfg.k1], [cfg.k2]])
    return _success_grid(cfg.ch, k, np.arange(1, size + 1, dtype=float))


def _best_split(s: np.ndarray, n: int) -> tuple[int, float]:
    """(n1, reliability) of the best split of n uses over the grid pair s."""
    # n1 = 1..n-1 against n2 = n-1..1; first argmax, so ties land on the
    # smaller n1 (and on n/2 when the objective is symmetric)
    rel = s[0, : n - 1] * s[1, n - 2 :: -1]
    i = int(rel.argmax())
    return i + 1, float(rel[i])


def _smallest_total(s: np.ndarray, target: float, n_ceiling: int) -> tuple[int, int, float] | None:
    """(n, n1, reliability) for the smallest n <= n_ceiling whose best split
    beats target, at that split's first argmax n1; None if no n does.

    s is the grid pair of _leg_grids, L entries a leg: L = n_ceiling - 1,
    or less where every leg's entry is exactly 1.0 from m = L on.
    Both success probabilities are at most 1 and rounding is monotone, so
    a product is at most each factor and a split beats the target only if
    each leg does: n1 >= a1 and n2 >= b2, the legs' floors, where a1 is the
    first m with s[0, m-1] > target (b2 likewise).  Split (a1 + i, b2 + j)
    then lies on anti-diagonal d = i + j, which holds every split of
    n = a1 + b2 + d that can meet the target.  Every other split of that n
    is at most the target, so the first argmax on the first diagonal that
    beats it is the first argmax of a full scan, and it multiplies the
    same two grid floats.

    That diagonal is found through the legs' running maxima: some split
    with i + j <= d beats the target exactly when the maxima's diagonal d
    does, and that test rises with d.  The test runs at d = 0, 1, 3, 7, ...
    until it passes (or reaches the last diagonal), then bisects the last gap:
    O(d log d) products.  It never reads past the grid: on diagonal
    L - max(a1, b2), the split that pairs one leg's entry at m = L, 1.0,
    with the other leg's floor already beats the target.  Nothing here
    assumes that the best reliability rises with n.
    """
    import numpy as np
    above = s > target
    a, b = above.argmax(axis=1).tolist()  # floors a1 - 1 and b2 - 1
    if not (above[0, a] and above[1, b]):
        return None
    # the largest diagonal at or below the ceiling, and within the grid
    last = min(n_ceiling - a - b - 2, s.shape[1] - 1 - max(a, b))
    if last < 0:
        return None
    # below a floor every entry is at most the target, so the maxima from
    # m = 1 equal those from the floor on the floor and past it
    top = np.maximum.accumulate(s, axis=1)

    def beats(d: int) -> bool:
        return (top[0, a : a + d + 1] * top[1, b : b + d + 1][::-1]).max() > target

    lo = hi = 0
    while not beats(hi):
        if hi == last:
            return None
        lo, hi = hi + 1, min(2 * hi + 1, last)
    d = bisect.bisect_left(range(lo, hi), True, key=beats) + lo
    rel = s[0, a : a + d + 1] * s[1, b : b + d + 1][::-1]
    i = int(rel.argmax())
    return a + b + 2 + d, a + 1 + i, float(rel[i])


def twoway_optimize(cfg: TwoWayConfig, k_i1: float, n_ceiling: int = 1_000_000) -> TwoWayResult:
    """Optimize the blocklength split of a two-way exchange.

    With cfg.n_total set: maximize exchange reliability over all splits
    n1 + n2 = n_total (ties go to the smaller n1).  With
    cfg.target_reliability set: find the smallest total n whose best split
    meets the target; if no n <= n_ceiling does, the result has
    feasible=False and reports the best split at the ceiling.

    Both read one grid pair of per-leg success probabilities,
    1 - eps*(k1, m) and 1 - eps*(k2, m), built once.  A fixed n scans every
    split of it, over n - 1 entries a leg.  A target search builds its
    grids up to the ceiling, or only up to awgn._saturation's length, past
    which both legs are exactly 1.0.  It finds each leg's floor, the first
    m whose success beats the target, and then the first anti-diagonal of
    splits above both floors (one total n) that holds a split beating it,
    by a doubling search and a bisection over the legs' running maxima; no
    split below a floor can meet the target, so the answer is the exact
    smallest n and the same split a full scan picks.  An infeasible search
    on saturated grids builds them again up to the ceiling for its split.

    Args:
        cfg: exchange description carrying exactly one objective.
        k_i1: information bits credited per successful exchange, in
            (0, 2**53]; throughput = reliability * k_i1 / n.
        n_ceiling: giving-up point for the minimum-blocklength search.
    """
    k_i1 = real("k_i1", k_i1, gt=0.0, le=MAX_EXACT)
    n_ceiling = integer("n_ceiling", n_ceiling, ge=2)
    if (cfg.n_total is None) == (cfg.target_reliability is None):
        raise ValueError("exactly one of n_total and target_reliability must be set")

    def result(feasible: bool, n: int, n1: int, rel: float) -> TwoWayResult:
        return TwoWayResult(feasible, n, n1, n - n1, reliability=rel, throughput=rel * k_i1 / n)

    if cfg.n_total is not None:
        n = cfg.n_total
        return result(True, n, *_best_split(_leg_grids(cfg, n - 1), n))
    size = min(n_ceiling - 1, _saturation(cfg.ch, max(cfg.k1, cfg.k2)))
    s = _leg_grids(cfg, size)
    found = _smallest_total(s, cfg.target_reliability, n_ceiling)
    if found is not None:
        return result(True, *found)
    if size < n_ceiling - 1:
        s = _leg_grids(cfg, n_ceiling - 1)
    return result(False, n_ceiling, *_best_split(s, n_ceiling))


def twoway_tdd_eval(k: float, k_i: float, n_slot: float, ch: Channel) -> TddResult:
    """One TDD round: k total bits (payload plus protocol overhead) in a
    slot of n_slot uses, of which k_i are credited information bits.

    throughput = (1 - eps*(k, n_slot)) * k_i / n_slot.
    """
    code = CodeSpec(k, real("n_slot", n_slot, ge=1 / MAX_EXACT, le=MAX_EXACT))
    k_i = real("k_i", k_i, gt=0.0, le=code.k)  # credited bits are a part of the k sent
    eps = eps_star(ch, code)
    return TddResult(eps=eps, throughput=(1.0 - eps) * k_i / code.n)


def downlink_compare(cfg: DownlinkConfig) -> DownlinkResult:
    """Per-device error probability: M short packets of (D, n) versus one
    concatenated packet of (M*D, M*n) occupying the same frame."""
    eps_tdma = eps_star(cfg.ch, CodeSpec(cfg.D, cfg.n))
    log_concat = eps_star_log(cfg.ch, CodeSpec(cfg.total_bits, cfg.frame_length))
    return DownlinkResult(
        eps_tdma=eps_tdma,
        eps_concat=math.exp(log_concat),
        log_eps_concat=log_concat,
        per_device_decoded_bits=cfg.total_bits,
    )


def _collision(M: int, K):
    """(M/K)(1 - 1/K)^(M-1): the chance that a given one of K slots holds
    exactly one of the M packets, for a float K or an array of them.  An
    array K of floats is overwritten with the result, and the one array
    made besides it holds 1 - 1/K and its power."""
    q = -1.0 / K
    q += 1.0  # 1 - 1/K bit for bit: -1/K is 1/K negated, and -1 + 1 is +0.0
    q **= M - 1
    if isinstance(K, float):
        r = M / K
    else:
        import numpy as np
        r = np.divide(M, K, out=K)
    r *= q
    return r


def _aloha_profile(cfg: AlohaConfig, k_max: int, perfect: bool) -> np.ndarray:
    """p_success(K) = _collision(M, K) * (1 - eps*(D, n/K)) for K = 1..k_max,
    the per-slot throughput.  The decoding factor (dropped if perfect) comes
    first, from awgn._slot_success, which evaluates it only for the slot
    counts where it is neither 0 nor 1; the collision term then makes the
    profile's array and one more, so no more than two full-length arrays
    are alive at once."""
    import numpy as np
    j, s = (k_max, ()) if perfect else _slot_success(cfg.ch, cfg.D, cfg.n, k_max)
    ps = _collision(cfg.M, np.arange(1.0, k_max + 1.0))  # exact below 2**53
    ps[j : j + len(s)] *= s
    ps[j + len(s) :] = 0.0
    return ps


def aloha_success(cfg: AlohaConfig, assume_perfect_decoding: bool = False) -> float:
    """Per-slot success probability of framed slotted ALOHA at the
    configured slot count K: _collision(M, K) * (1 - eps*(D, n/K)), in
    floats.

    assume_perfect_decoding drops the finite-blocklength decoding factor,
    leaving only the collision term.
    """
    if cfg.K is None:
        raise ValueError("aloha_success requires cfg.K to be set")
    collision = _collision(cfg.M, float(cfg.K))
    if assume_perfect_decoding:
        return collision
    return collision * (1.0 - eps_star(cfg.ch, CodeSpec(cfg.D, cfg.slot_length)))


def aloha_optimize(
    cfg: AlohaConfig, k_max: int | None = None, assume_perfect_decoding: bool = False
) -> AlohaOptResult:
    """Exhaustive search for the slot count maximizing per-slot success.

    Scans K = 1..k_max (default 4*M); ties go to the smaller K.  Returns
    the winner and the full profile for inspection or plotting.
    """
    import numpy as np
    k_max = integer("k_max", 4 * cfg.M if k_max is None else k_max, ge=1)
    ps = _aloha_profile(cfg, k_max, assume_perfect_decoding)
    # ks = 1..k_max, so the first argmax at index i is K = i + 1
    return AlohaOptResult(k_opt=int(np.argmax(ps)) + 1, profile=_AlohaProfile(ps))
