"""Phased-elimination bandit optimization over hierarchical partitions.

The package simulates a server and M clients that optimize shifted copies of
a benchmark objective from noisy point evaluations.  A collaborative stage
eliminates cells on the client average; a personalized stage then re-checks
every cell against each client's own objective (a server-eliminated cell
first on the client's own stage-one pulls, and at the full threshold only
if those do not settle it), so no region is discarded for a client until it
has failed both tests.
"""
from .fedcore import (
    ClientReport,
    ConfParams,
    NodeStats,
    ProtocolFault,
    ServerBroadcast,
    SmoothParams,
    confidence_bound,
    eliminate,
    merge_global,
    quota,
    select_best,
    tau,
    transition_depth,
)
from .harness import (
    AggregateMetrics,
    ConfigError,
    ExperimentConfig,
    RunMetrics,
    VARIANTS,
    run,
    run_many,
    variant_schedule,
)
from .objectives import (
    BaseObjective,
    NoiseModel,
    ObjectiveSuite,
    OBJECTIVE_NAMES,
    OptimumCertificate,
    OracleFailure,
    make_base,
    make_suite,
    near_optimal_census,
    oracle_optimum,
)
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
from .protocol import (
    CommRound,
    EliminationEvent,
    PullLog,
    run_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateMetrics",
    "BaseObjective",
    "BoxDomain",
    "ClientReport",
    "CommRound",
    "ConfParams",
    "ConfigError",
    "EliminationEvent",
    "ExperimentConfig",
    "NodeId",
    "NodeStats",
    "NoiseModel",
    "OBJECTIVE_NAMES",
    "ObjectiveSuite",
    "OptimumCertificate",
    "OracleFailure",
    "PartitionSpec",
    "ProtocolFault",
    "PullLog",
    "ROOT",
    "RunMetrics",
    "ServerBroadcast",
    "SmoothParams",
    "VARIANTS",
    "cell",
    "children",
    "confidence_bound",
    "eliminate",
    "make_base",
    "make_suite",
    "merge_global",
    "near_optimal_census",
    "node_containing",
    "oracle_optimum",
    "parent",
    "quota",
    "representative",
    "run",
    "run_many",
    "run_protocol",
    "select_best",
    "tau",
    "transition_depth",
    "variant_schedule",
]
