"""Phased-elimination bandit optimization over hierarchical partitions.

The package simulates a server and M clients that optimize shifted copies of
a benchmark objective from noisy point evaluations.  A collaborative stage
eliminates cells on the client average; a personalized stage then re-checks
every cell against each client's own objective (a server-eliminated cell
first on the client's own stage-one pulls, and at the full threshold only
if those do not settle it), so no region is discarded for a client until it
has failed both tests.
"""
from .harness import ExperimentConfig, VARIANTS, run, run_many
from .objectives import OBJECTIVE_NAMES, make_base, make_suite, near_optimal_census
from .partition import (
    ROOT,
    BoxDomain,
    NodeId,
    PartitionSpec,
    cell,
    children,
    node_containing,
    parent,
    representative,
)

__version__ = "0.1.0"

__all__ = [
    "BoxDomain",
    "ExperimentConfig",
    "NodeId",
    "OBJECTIVE_NAMES",
    "PartitionSpec",
    "ROOT",
    "VARIANTS",
    "cell",
    "children",
    "make_base",
    "make_suite",
    "near_optimal_census",
    "node_containing",
    "parent",
    "representative",
    "run",
    "run_many",
]
