"""Hierarchical k-nary partition of an axis-aligned box domain.

Cells are addressed by ``(depth, index)`` with the root at ``(0, 1)``; the
children of ``(h, i)`` are ``(h+1, k*(i-1)+1) .. (h+1, k*i)``.  Splits cycle
through the dimensions in index order, cutting the active dimension into
``k`` equal slabs, so every dimension is refined at the same rate.  All
functions here are pure; indices are plain Python integers and may grow as
``k**depth`` without overflow.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class NodeId(NamedTuple):
    """Address of one partition cell: tree depth and 1-based index."""

    depth: int
    index: int


ROOT = NodeId(0, 1)


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
        # one subtraction covers both checks: every cell of the partition is a BoxDomain
        widths = self.upper - self.lower
        if not np.isfinite(widths).all():
            raise ValueError("domain bounds and widths must be finite")
        if not (widths > 0).all():
            raise ValueError("every lower bound must be strictly below its upper bound")

    @property
    def dim(self) -> int:
        return int(self.lower.size)

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x, atol: float = 0.0) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != self.lower.shape:
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


def _ordinal_path(node: NodeId, spec: PartitionSpec) -> list[int]:
    """Child ordinals (0-based) along the root-to-node path."""
    k = spec.arity
    path = []
    i = node.index
    for _ in range(node.depth):
        path.append((i - 1) % k)
        i = (i - 1) // k + 1
    path.reverse()
    return path


def cell(domain: BoxDomain, node: NodeId, spec: PartitionSpec) -> BoxDomain:
    """Sub-box reached by descending from the root to ``node``.

    At each step the current box is cut into ``arity`` equal slabs along
    dimension ``step % dim``; sibling boundaries are computed from the same
    parent coordinates, so children tile the parent exactly.
    """
    validate_node(node, spec)
    k = spec.arity
    d = domain.dim
    lo = domain.lower.copy()
    up = domain.upper.copy()
    for step, ordinal in enumerate(_ordinal_path(node, spec)):
        j = step % d
        w = (up[j] - lo[j]) / k
        base = lo[j]
        lo[j] = base + ordinal * w
        up[j] = base + (ordinal + 1) * w
    return BoxDomain(lo, up)


def representative(domain: BoxDomain, node: NodeId, spec: PartitionSpec) -> np.ndarray:
    """Fixed evaluation point of a cell: its center."""
    box = cell(domain, node, spec)
    return (box.lower + box.upper) / 2.0


def node_containing(domain: BoxDomain, point, depth: int, spec: PartitionSpec) -> NodeId:
    """Depth-``depth`` cell containing ``point``.

    Points on an interior slab boundary are assigned to the higher slab
    (floor convention), clamped so that domain boundary points stay inside.
    """
    x = np.atleast_1d(np.asarray(point, dtype=float))
    if not domain.contains(x, atol=1e-12):
        raise ValueError("point lies outside the domain")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    k = spec.arity
    d = domain.dim
    lo = domain.lower.copy()
    up = domain.upper.copy()
    index = 1
    for step in range(depth):
        j = step % d
        w = (up[j] - lo[j]) / k
        ordinal = int((x[j] - lo[j]) // w) if w > 0 else 0
        ordinal = min(max(ordinal, 0), k - 1)
        base = lo[j]
        lo[j] = base + ordinal * w
        up[j] = base + (ordinal + 1) * w
        index = (index - 1) * k + ordinal + 1
    return NodeId(depth, index)
