"""Experiment orchestration: configs, single runs, and multi-seed aggregates.

An ``ExperimentConfig`` is checked when it is built and derives the run's
parameters: the base objective, the shift scales, the confidence and
smoothness parameters and the partition.  A run builds the shifted
objective suite from them (local certificates only; no run reads the global
one), drives the protocol to budget exhaustion under the config's variant,
and accounts per-client regret plus communication.  Runs
are bit-deterministic for a fixed (config, seed) pair; seeds are independent
and may be executed in any order or in parallel.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fedcore import ConfParams, SmoothParams
from .objectives import BaseObjective, NoiseModel, ObjectiveSuite, make_base, make_suite
from .partition import BoxDomain, PartitionSpec
from .protocol import VARIANTS, ProtocolResult, PullLog, run_protocol


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines an experiment, with desk-scale defaults.

    A config is checked when it is built, ``dataclasses.replace`` included:
    one that exists can run.  The parameters a run derives from it are its
    properties, each written here once.
    """

    objective: str = "garland"
    clients: int = 10
    horizon: int = 5000
    shift_std: float | None = None
    noise: float = 0.1
    nu1: float = 1.0
    rho: float = 0.5
    c: float = 0.1
    c1: float = 1.0
    delta_conf: float | None = None
    delta_gap: float = 0.01
    arity: int = 2
    depth_cap: int = 40
    variant: str = "pfpne"
    seeds: tuple[int, ...] = (0,)
    checkpoint_stride: int = 10
    domain_lower: tuple[float, ...] | None = None
    domain_upper: tuple[float, ...] | None = None

    def __post_init__(self):
        """Raise ConfigError unless a run can be built from this config.

        Builds every derived parameter, the base included; the base comes
        from ``make_base``'s cache, so the run pays no second certificate.
        """
        if self.clients < 1:  # before conf divides by it
            raise ConfigError("clients must be at least 1")
        if self.horizon > np.iinfo(np.int64).max:  # pull counts are int64 table entries
            raise ConfigError(f"horizon must be at most 2**63 - 1, got {self.horizon}")
        if self.shift_std is not None and not 0 <= self.shift_std < math.inf:
            raise ConfigError("shift_std must be finite and nonnegative")
        if self.depth_cap < 1:
            raise ConfigError("depth_cap must be at least 1")
        if self.checkpoint_stride < 1:
            raise ConfigError("checkpoint_stride must be at least 1")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be nonnegative")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        try:  # build each derived parameter, so that a bad one fails here
            self.smooth, self.conf, self.spec, NoiseModel(self.noise), self.base
        except (ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
            raise ConfigError(str(exc)) from exc
        if self.arity > self.horizon:  # a depth-1 sweep pulls each of its cells once
            raise ConfigError("arity must not exceed the horizon")

    @property
    def base(self) -> BaseObjective:
        """The certified objective on ``domain_lower``..``domain_upper``, or on its own box.

        Not cached on the config: ``make_base`` caches it per (name, domain).
        """
        if (self.domain_lower is None) != (self.domain_upper is None):
            raise ValueError("domain_lower and domain_upper must be given together")
        if self.domain_lower is None:
            return make_base(self.objective)
        return make_base(self.objective, BoxDomain(self.domain_lower, self.domain_upper))

    @property
    def shift_scales(self) -> np.ndarray:
        """One shift scale per dimension: ``shift_std``, or by default 5% of its width."""
        widths = np.asarray(self.base.domain.widths, dtype=float)
        if self.shift_std is not None:
            return np.full(len(widths), float(self.shift_std))
        return 0.05 * widths

    @functools.cached_property
    def conf(self) -> ConfParams:
        """``delta_conf=None`` is ``1/clients``, clamped so that one client keeps a valid level."""
        delta = self.delta_conf if self.delta_conf is not None else min(1.0 / self.clients, 0.5)
        return ConfParams(self.c, self.c1, delta, self.horizon)

    @functools.cached_property
    def smooth(self) -> SmoothParams:
        return SmoothParams(self.nu1, self.rho, self.delta_gap)

    @functools.cached_property
    def spec(self) -> PartitionSpec:
        return PartitionSpec(self.arity)


@dataclass
class RunMetrics(ProtocolResult):
    """One run's protocol result plus its regret accounting."""

    variant: str
    seed: int
    checkpoints: np.ndarray
    avg_cum_regret: np.ndarray
    suite: ObjectiveSuite | None


@dataclass
class AggregateMetrics:
    """Across-seed mean and standard deviation of the regret trace."""

    variant: str
    checkpoints: np.ndarray
    mean_curve: np.ndarray
    std_curve: np.ndarray
    runs: list[RunMetrics]

    @classmethod
    def from_runs(cls, variant: str, runs: list[RunMetrics]) -> "AggregateMetrics":
        """Per-checkpoint mean and standard deviation over ``runs``, in the given order."""
        curves = np.stack([r.avg_cum_regret for r in runs])
        return cls(
            variant=variant,
            checkpoints=runs[0].checkpoints,
            mean_curve=curves.mean(axis=0),
            std_curve=curves.std(axis=0),
            runs=runs,
        )

    @property
    def final_mean(self) -> float:
        return float(self.mean_curve[-1])

    @property
    def final_std(self) -> float:
        return float(self.std_curve[-1])

    @property
    def comm_rounds_mean(self) -> float:
        return float(np.mean([r.comm_rounds_total for r in self.runs]))

    @property
    def stage_transition_t_mean(self) -> float | None:
        values = [r.stage_transition_t for r in self.runs if r.stage_transition_t is not None]
        if not values:
            return None
        return float(np.mean(values))


def checkpoint_grid(horizon: int, stride: int) -> np.ndarray:
    """Every ``stride``-th pull, then the horizon if the grid misses it."""
    step = min(stride, horizon)  # a stride past the horizon, even past int64, leaves only it
    ticks = np.arange(step, horizon + 1, step, dtype=np.int64)
    return ticks if ticks[-1] == horizon else np.append(ticks, horizon)


def average_regret_trace(pull_logs: list[PullLog], checkpoints: np.ndarray) -> np.ndarray:
    """Client-average cumulative regret at each checkpoint, in closed form per segment.

    A segment's pulls share one instant regret ``r``: at its pull ``t``, after ``start``
    earlier pulls, a client has accrued its regret before the segment plus ``(t - start) * r``,
    with ``start = end - pulls`` in exact integers.  Each segment's terms are repeated over
    the checkpoints it holds, counted by one search of the segment ends into the checkpoints.
    The client average sums in client order, so recomputation through this function is exact.
    """
    acc = np.zeros(len(checkpoints))
    for log in pull_logs:
        pulls, regret = np.array(log.pulls, dtype=np.int64), np.array(log.regrets, dtype=float)
        ends = np.cumsum(pulls)
        accrued = np.cumsum(pulls * regret)
        accrued[1:], accrued[0] = accrued[:-1], 0.0  # shifted in place: before each segment
        held = np.diff(np.searchsorted(checkpoints, ends, side="right"), prepend=0)  # per segment
        row = (checkpoints - np.repeat(ends - pulls, held)) * np.repeat(regret, held)
        row += np.repeat(accrued, held)
        acc += row
    return acc / len(pull_logs)


def run(config: ExperimentConfig, seed: int, client_records: bool = True) -> RunMetrics:
    """One variant run for one seed; ``client_records=False`` drops what no output reads."""
    suite = make_suite(config.base, clients=config.clients, shift_std=config.shift_scales,
                       noise_halfwidth=config.noise, seed=seed)
    result = run_protocol(
        suite,
        config.spec,
        config.conf,
        config.smooth,
        variant=config.variant,
        depth_cap=config.depth_cap,
        seed=seed,
    )
    checkpoints = checkpoint_grid(config.horizon, config.checkpoint_stride)
    trace = average_regret_trace(result.pull_logs, checkpoints)
    metrics = RunMetrics(**vars(result), variant=config.variant, seed=seed,
                         checkpoints=checkpoints, avg_cum_regret=trace, suite=suite)
    if not client_records:
        metrics.pull_logs = metrics.client_events = metrics.suite = None
    return metrics


def run_many(config: ExperimentConfig) -> AggregateMetrics:
    """Independent runs over config.seeds, aggregated per checkpoint, client records dropped."""
    runs = [run(config, seed, client_records=False) for seed in config.seeds]
    return AggregateMetrics.from_runs(config.variant, runs)
