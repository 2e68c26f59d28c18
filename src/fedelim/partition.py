"""Hierarchical k-nary partition of an axis-aligned box domain.

Cells are addressed by ``(depth, index)`` with the root at ``(0, 1)``; the
children of ``(h, i)`` are ``(h+1, k*(i-1)+1) .. (h+1, k*i)``.  One walk from
the root finds a cell's box (from the base-``k`` digits of ``index - 1``)
and a point's cell (from the point): step ``s`` cuts dimension ``s % dim``
into ``k`` equal slabs, so every dimension is refined at the same rate.  All
functions here are pure; indices are plain Python integers and may grow as
``k**depth`` without overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class NodeId(NamedTuple):
    """Address of one partition cell: tree depth and 1-based index."""

    depth: int
    index: int


ROOT = NodeId(0, 1)


def _check_widths(widths: list[float]) -> None:
    """Raise ValueError unless every width, a domain's or a cell's, is finite and positive."""
    if not all(map(math.isfinite, widths)):
        raise ValueError("domain bounds and widths must be finite")
    if not all(w > 0 for w in widths):
        raise ValueError("every lower bound must be strictly below its upper bound")


@dataclass
class BoxDomain:
    """Axis-aligned box ``[lower_j, upper_j]`` per dimension j."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must be 1-D vectors of equal length")
        if self.lower.size < 1:
            raise ValueError("domain needs at least one dimension")
        _check_widths((self.upper - self.lower).tolist())

    @property
    def dim(self) -> int:
        return int(self.lower.size)

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x, atol: float = 0.0) -> bool:
        """Whether the point ``x``, or every row of a 2-D batch ``x``, lies in the box."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim > 2 or x.shape[-1:] != self.lower.shape:
            return False
        return bool(np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol))

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Project a point (or batch of points) onto the box, per dimension."""
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def bounds_key(self) -> tuple:
        return (tuple(self.lower.tolist()), tuple(self.upper.tolist()))


@dataclass(frozen=True)
class PartitionSpec:
    """Branching factor of the partition tree; the split rule is fixed."""

    arity: int = 2

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError("arity must be at least 2")


def validate_node(node: NodeId, spec: PartitionSpec) -> None:
    """Raise ValueError unless ``node`` is a valid address for ``spec``."""
    if node.depth < 0:
        raise ValueError(f"negative depth in {node}")
    if not 1 <= node.index <= spec.arity ** node.depth:
        raise ValueError(f"index out of range in {node} for arity {spec.arity}")


def children(node: NodeId, spec: PartitionSpec) -> list[NodeId]:
    """The k children of a cell, in ascending index order."""
    validate_node(node, spec)
    k = spec.arity
    base = k * (node.index - 1)
    return [NodeId(node.depth + 1, base + j) for j in range(1, k + 1)]


def parent(node: NodeId, spec: PartitionSpec) -> NodeId:
    """Parent cell; the root has none."""
    validate_node(node, spec)
    if node.depth == 0:
        raise ValueError("the root cell has no parent")
    return NodeId(node.depth - 1, (node.index - 1) // spec.arity + 1)


def _walk(domain: BoxDomain, depth: int, spec: PartitionSpec, pick) -> tuple[list, list, int]:
    """Lower corner, upper corner and index of the cell reached in ``depth`` steps from the root.

    Step ``s`` cuts the box's dimension ``j = s % dim`` into ``arity`` slabs of
    width ``w`` upward from ``base`` and keeps slab ``pick(s, j, base, w)``.
    Corners are Python floats, which round as numpy float64 scalars do, and
    siblings are cut from the same parent coordinates, so they tile it exactly.
    """
    k = spec.arity
    lo, up = domain.lower.tolist(), domain.upper.tolist()
    index = 1
    for step in range(depth):
        j = step % len(lo)
        base = lo[j]
        w = (up[j] - base) / k
        ordinal = pick(step, j, base, w)
        lo[j] = base + ordinal * w
        up[j] = base + (ordinal + 1) * w
        index = (index - 1) * k + ordinal + 1
    return lo, up, index


def _corners(domain: BoxDomain, node: NodeId, spec: PartitionSpec) -> tuple[list, list]:
    """Lower and upper corners of ``node``'s cell, walked along the digits of ``index - 1``."""
    validate_node(node, spec)
    rest, ordinals = node.index - 1, []  # least significant digit first
    for _ in range(node.depth):
        rest, ordinal = divmod(rest, spec.arity)
        ordinals.append(ordinal)
    lo, up, _ = _walk(domain, node.depth, spec, lambda step, j, base, w: ordinals[-1 - step])
    return lo, up


def cell(domain: BoxDomain, node: NodeId, spec: PartitionSpec) -> BoxDomain:
    """Sub-box reached by descending from the root to ``node``."""
    return BoxDomain(*_corners(domain, node, spec))


def representative(domain: BoxDomain, node: NodeId, spec: PartitionSpec) -> np.ndarray:
    """Fixed evaluation point of a cell: the center of ``cell``'s box, bit for bit."""
    lo, up = _corners(domain, node, spec)
    _check_widths([u - v for v, u in zip(lo, up)])
    return np.array([(v + u) / 2.0 for v, u in zip(lo, up)])


def node_containing(domain: BoxDomain, point, depth: int, spec: PartitionSpec) -> NodeId:
    """Depth-``depth`` cell containing ``point``.

    Points on an interior slab boundary are assigned to the higher slab
    (floor convention), clamped so that domain boundary points stay inside.
    """
    x = np.atleast_1d(np.asarray(point, dtype=float))
    if x.ndim != 1 or not domain.contains(x, atol=1e-12):
        raise ValueError("point lies outside the domain")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    k = spec.arity
    x = x.tolist()
    pick = lambda step, j, base, w: min(max(int((x[j] - base) // w), 0), k - 1) if w > 0 else 0
    return NodeId(depth, _walk(domain, depth, spec, pick)[2])
