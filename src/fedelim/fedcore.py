"""Shared statistical machinery of the elimination protocol.

Confidence bounds, per-depth sampling thresholds, the stage-transition depth,
the report and broadcast message types, and the argmax / elimination rules
used by both the server pass and the per-client pass.

The confidence half-width for an ``n``-pull mean is ``c * sqrt(log(c1*T/d) / n)``
and the depth-``h`` sampling threshold is the smallest pull count that drives
this half-width below the cell resolution ``nu1 * rho**h``.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

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


@dataclass(slots=True)
class NodeStats:
    """Pull count, reward sum, mean estimate and confidence half-width.

    A client's statistics (``Client.stats``, a view of its column of the
    run's cell table) of a cell the server kept carry the broadcast (mean,
    bound) over its own pulls and reward sum.  ``reward_sum`` is None for
    server-side merged statistics.
    """

    pulls: int
    reward_sum: float | None
    mean: float
    bound: float


@dataclass
class ClientReport:
    """Per-depth upload: the client's mean estimate and pull count per node."""

    client: int
    depth: int
    entries: dict[NodeId, tuple[float, int]]


@dataclass
class ServerBroadcast:
    """Per-depth download: the merged (mean, bound) of every survivor.

    The keys of ``stats`` are the survivors, in survivor order.
    """

    depth: int
    stats: dict[NodeId, tuple[float, float]]


def confidence_bound(pulls: int, conf: ConfParams) -> float:
    """Hoeffding-style half-width ``c * sqrt(log(c1*T/delta) / pulls)``."""
    if pulls < 1:
        raise ValueError("confidence bound needs at least one pull")
    return conf.c * math.sqrt(conf.log_term / pulls)


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


def merge_global(reports: list[ClientReport], conf: ConfParams) -> dict[NodeId, NodeStats]:
    """Unweighted average of client means plus pooled pull counts per node.

    Reports are folded in ascending client order so the result is invariant
    to the order in which they arrived.  Mismatched key sets across reports
    are a protocol fault.
    """
    if not reports:
        raise ProtocolFault("cannot merge an empty report list")
    ordered = sorted(reports, key=lambda r: r.client)
    keys = set(ordered[0].entries)
    for report in ordered[1:]:
        if set(report.entries) != keys:
            raise ProtocolFault(
                f"report key mismatch between clients {ordered[0].client} and {report.client}"
            )
    m = len(ordered)
    merged: dict[NodeId, NodeStats] = {}
    for node in sorted(keys):
        mean_sum = 0.0
        pulls = 0
        for report in ordered:
            entry_mean, entry_pulls = report.entries[node]
            mean_sum += entry_mean
            pulls += entry_pulls
        merged[node] = NodeStats(
            pulls=pulls,
            reward_sum=None,
            mean=mean_sum / m,
            bound=confidence_bound(pulls, conf),
        )
    return merged


def select_best(stats: Mapping[NodeId, NodeStats]) -> NodeId:
    """Node with the largest mean; ties go to the smallest node index."""
    if not stats:
        raise ValueError("cannot select from an empty statistics map")
    best_mean = max(s.mean for s in stats.values())
    return min(node for node, s in stats.items() if s.mean == best_mean)


def eliminate(
    stats: Mapping[NodeId, NodeStats],
    candidates: Iterable[NodeId],
    best: NodeId,
    h: int,
    smooth: SmoothParams,
) -> set[NodeId]:
    """Candidates whose optimistic value falls strictly below the best node.

    A node n is removed when ``mean_n + bound_n + nu1*rho**h < mean_best -
    bound_best``.  The inequality is strict, so the best node can never
    eliminate itself even when it appears among the candidates.
    """
    if best not in stats:
        raise ValueError("best node missing from the statistics map")
    slack = smooth.slack(h)
    threshold = stats[best].mean - stats[best].bound
    out = set()
    for node in candidates:
        if node not in stats:
            raise ValueError(f"candidate {node} missing from the statistics map")
        s = stats[node]
        if s.mean + s.bound + slack < threshold:
            out.add(node)
    return out
