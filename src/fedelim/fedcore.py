"""Shared statistical machinery of the elimination protocol.

Confidence bounds, per-depth sampling thresholds, the stage-transition depth,
the report and broadcast message types, the merge of the reports, and the
one elimination rule, on arrays: the best cell of a run is its first largest
mean, and a cell falls when its optimistic value lies strictly below the best
cell's pessimistic one.  The server applies it to the merged reports, each
client to its own cells.

The confidence half-width for an ``n``-pull mean is ``c * sqrt(log(c1*T/d) / n)``
and the depth-``h`` sampling threshold is the smallest pull count that drives
this half-width below the cell resolution ``nu1 * rho**h``.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .partition import NodeId

TAU_SATURATED = int(sys.float_info.max)


class ProtocolFault(RuntimeError):
    """A message or state violated the protocol contract."""


@dataclass(frozen=True)
class ConfParams:
    """Confidence-bound parameters: scale c, slack c1, level delta, horizon T."""

    c: float
    c1: float
    delta: float
    horizon_T: int

    def __post_init__(self):
        if not (0 < self.c < math.inf and 0 < self.c1 < math.inf):
            raise ValueError("c and c1 must be finite and positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.horizon_T < 1:
            raise ValueError("horizon must be a positive integer")
        if self.c1 * self.horizon_T / self.delta < math.e:
            raise ValueError("c1 * T / delta must be at least e so the log term is >= 1")

    @functools.cached_property  # read by every confidence bound
    def log_term(self) -> float:
        ratio = self.c1 * self.horizon_T / self.delta
        if ratio < math.inf:
            return math.log(ratio)
        # the ratio overflows, its log does not
        return math.log(self.c1) + math.log(self.horizon_T) - math.log(self.delta)


@dataclass(frozen=True)
class SmoothParams:
    """Smoothness scale nu1, decay rho, and optimal-value gap bound."""

    nu1: float
    rho: float
    delta_gap: float

    def __post_init__(self):
        if not 0 < self.nu1 < math.inf:
            raise ValueError("nu1 must be finite and positive")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie strictly inside (0, 1)")
        if not 0 < self.delta_gap <= 1:
            raise ValueError("delta_gap must lie in (0, 1]")

    def slack(self, depth: int) -> float:
        """Cell resolution nu1 * rho**depth used as elimination slack."""
        return self.nu1 * self.rho ** depth


@dataclass
class ClientReport:
    """Per-depth upload: the client's column of the server's active cells, in active order.

    ``means`` (float64) and ``pulls`` (int64) hold the client's mean estimate
    and pull count of each active cell.  No reward sum crosses to the server.
    """

    client: int
    depth: int
    means: np.ndarray
    pulls: np.ndarray


@dataclass
class ServerBroadcast:
    """Per-depth download: the merged (mean, bound) of every survivor.

    The keys of ``stats`` are the survivors, in survivor order.
    """

    depth: int
    stats: dict[NodeId, tuple[float, float]]


def confidence_bound(pulls, conf: ConfParams):
    """Hoeffding-style half-width ``c * sqrt(log(c1*T/delta) / pulls)`` of each count in ``pulls``.

    ``pulls`` is an int64 array, or one int; every count is positive.
    """
    return conf.c * np.sqrt(conf.log_term / pulls)


def tau(h: int, conf: ConfParams, smooth: SmoothParams) -> int:
    """Pulls required at depth h: ceil(c^2 * log(c1*T/delta) / nu1^2 * rho^(-2h)).

    If a factor over- or underflows, the product is redone in log space, so
    the value itself decides saturation: a value past the float range
    saturates at ``TAU_SATURATED``, the largest finite float.  No per-client
    quota or top-up of it fits in a budget, so it is simply never reached.
    """
    if h < 0:
        raise ValueError("depth must be nonnegative")
    try:
        value = (conf.c ** 2) * conf.log_term / (smooth.nu1 ** 2) * smooth.rho ** (-2 * h)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not value < math.inf:
        try:
            value = math.exp(2 * math.log(conf.c) + math.log(conf.log_term)
                             - 2 * math.log(smooth.nu1) - 2 * h * math.log(smooth.rho))
        except OverflowError:
            return TAU_SATURATED
    return max(1, math.ceil(value))


def quota(tau_h: int, clients: int) -> int:
    """Per-client share of a depth threshold: ceil(tau_h / M)."""
    if tau_h < 1 or clients < 1:
        raise ValueError("threshold and client count must be positive")
    return -(-tau_h // clients)


def _within_gap(smooth: SmoothParams, h: int) -> bool:
    """``nu1 * rho**h <= delta_gap``, in log space where ``rho**h`` or the product underflows."""
    power = smooth.rho ** h
    if min(power, smooth.nu1 * power) >= sys.float_info.min:
        return smooth.nu1 * power <= smooth.delta_gap
    return math.log(smooth.nu1) + h * math.log(smooth.rho) <= math.log(smooth.delta_gap)


def transition_depth(smooth: SmoothParams) -> int:
    """Smallest h >= 0 with nu1 * rho**h <= delta_gap, decided by ``_within_gap``.

    A bracket from 0 doubles until the predicate holds and is then
    bisected, so exact boundary cases are decided by the predicate
    itself, and each loop ends within about 64 steps: the depth stays below
    ``2**64`` for any valid parameters.
    """
    lo, hi = -1, 0  # the predicate fails at lo (-1 standing for none) and holds at hi
    while not _within_gap(smooth, hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _within_gap(smooth, mid) else (mid, hi)
    return hi


def merge_global(reports: list[ClientReport],
                 conf: ConfParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's unweighted average of the client means, pooled pull count and bound.

    The reports, sorted by client so that the result does not depend on the
    order they arrived in, are stacked into one C-contiguous (clients x
    cells) array and summed over axis 0.  numpy adds its rows in order, so
    each cell's sum is the fold ``((0.0 + m_1) + m_2) + ...``, bit for bit.
    Reports of different lengths are a protocol fault.
    """
    if not reports:
        raise ProtocolFault("cannot merge an empty report list")
    ordered = sorted(reports, key=lambda r: r.client)
    cells = len(ordered[0].means)
    for report in ordered:
        if not len(report.means) == len(report.pulls) == cells:
            raise ProtocolFault(
                f"report length mismatch between clients {ordered[0].client} and {report.client}"
            )
    means = np.array([r.means for r in ordered], dtype=float).sum(axis=0) / len(ordered)
    pulls = np.array([r.pulls for r in ordered], dtype=np.int64).sum(axis=0)
    return means, pulls, confidence_bound(pulls, conf)


def select_best(means: np.ndarray, counts: list[int]) -> list[int]:
    """Each run's best cell: the flat index of its first largest mean, so ties go to the first.

    ``means`` holds runs of ``counts`` cells, one after another.
    """
    values, best, first = means.tolist(), [], 0
    for count in counts:
        last = first + count
        best.append(values.index(max(values[first:last]), first, last))
        first = last
    return best


def eliminate(means: np.ndarray, bounds: np.ndarray, best: list[int], counts: list[int],
              slack: float, candidates: np.ndarray | None = None) -> np.ndarray:
    """Flat indices of the cells whose optimistic value falls strictly below their run's best.

    ``means`` and ``bounds`` hold runs of ``counts`` cells, run ``i``'s best
    cell at ``best[i]``.  A cell falls when ``mean + bound + slack <
    mean_best - bound_best``.  The inequality is strict, so the best cell
    never eliminates itself.  Only cells of the boolean mask ``candidates``,
    or every cell without one, may fall.
    """
    falls = means + bounds + slack < (means - bounds)[best].repeat(counts)
    if candidates is not None:
        falls &= candidates
    return falls.nonzero()[0]
