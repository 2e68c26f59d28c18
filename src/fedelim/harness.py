"""Experiment orchestration: configs, single runs, and multi-seed aggregates.

A run builds the shifted objective suite (local certificates only; no run
reads the global one), wires the requested protocol variant, drives it to
budget exhaustion, and accounts per-client regret plus communication.  Runs
are bit-deterministic for a fixed (config, seed) pair; seeds are independent
and may be executed in any order or in parallel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fedcore import ConfParams, SmoothParams, transition_depth
from .objectives import BaseObjective, NoiseModel, ObjectiveSuite, make_base, make_suite
from .partition import BoxDomain, PartitionSpec
from .protocol import ProtocolResult, PullLog, run_protocol

VARIANTS = ("pfpne", "global-only", "local-only")


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines an experiment, with desk-scale defaults.

    ``shift_std=None`` resolves to 5% of each dimension's domain width, one
    scale per dimension; ``delta_conf=None`` to ``min(1/clients, 0.5)``.
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

    def domain_override(self) -> BoxDomain | None:
        if (self.domain_lower is None) != (self.domain_upper is None):
            raise ValueError("domain_lower and domain_upper must be given together")
        if self.domain_lower is None:
            return None
        return BoxDomain(self.domain_lower, self.domain_upper)

    def resolved_delta_conf(self) -> float:
        if self.delta_conf is not None:
            return self.delta_conf
        # 1/clients, clamped so a single-client run keeps a valid level
        return min(1.0 / self.clients, 0.5)

    def resolve_base(self) -> BaseObjective:
        return make_base(self.objective, self.domain_override())

    def resolved_shift_std(self, base: BaseObjective) -> np.ndarray:
        if self.shift_std is not None:
            return np.full(base.domain.dim, float(self.shift_std))
        return 0.05 * np.asarray(base.domain.widths, dtype=float)

    def conf_params(self) -> ConfParams:
        return ConfParams(self.c, self.c1, self.resolved_delta_conf(), self.horizon)

    def smooth_params(self) -> SmoothParams:
        return SmoothParams(self.nu1, self.rho, self.delta_gap)

    def validate(self) -> None:
        """Raise ConfigError unless a run can be built from this config.

        Builds every value object a run builds, the base included; the base
        comes from ``make_base``'s cache, so the run pays no second certificate.
        """
        if self.clients < 1:  # before resolved_delta_conf divides by it
            raise ConfigError("clients must be at least 1")
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
        try:
            variant_schedule(self.variant, self.smooth_params(), self.depth_cap)
            self.conf_params()
            PartitionSpec(self.arity)
            NoiseModel(self.noise)
            self.resolve_base()
        except (ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
            raise ConfigError(str(exc)) from exc
        if self.arity > self.horizon:  # a depth-1 sweep pulls each of its cells once
            raise ConfigError("arity must not exceed the horizon")


@dataclass(frozen=True)
class VariantWiring:
    """Protocol wiring derived from a variant name."""

    h0: int
    pe_enabled: bool


def variant_schedule(variant: str, smooth: SmoothParams, depth_cap: int) -> VariantWiring:
    """Stage split per variant: the ``(h0, pe_enabled)`` pair that ``run_protocol`` reads.

    The full protocol transitions at the gap-matching depth; global-only runs
    server rounds through ``depth_cap`` and never personalizes; local-only
    runs personal elimination from the first pull and never communicates.
    """
    if variant == "pfpne":
        return VariantWiring(h0=min(transition_depth(smooth), depth_cap), pe_enabled=True)
    if variant == "global-only":
        return VariantWiring(h0=depth_cap, pe_enabled=False)
    if variant == "local-only":
        return VariantWiring(h0=0, pe_enabled=True)
    raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


@dataclass
class RunMetrics(ProtocolResult):
    """One run's protocol result plus its regret accounting."""

    variant: str
    seed: int
    checkpoints: np.ndarray
    avg_cum_regret: np.ndarray
    suite: ObjectiveSuite | None

    @property
    def final_avg_regret(self) -> float:
        return float(self.avg_cum_regret[-1])


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
    earlier pulls, a client has accrued its regret before the segment plus ``(t - start) * r``.
    The client average sums in client order, so recomputation through this function is exact.
    """
    acc = np.zeros(len(checkpoints))
    for log in pull_logs:
        _, pulls, _, regret = zip(*log.segments)
        pulls, regret = np.array(pulls, dtype=np.int64), np.array(regret, dtype=float)
        ends = np.cumsum(pulls)
        accrued = np.concatenate(([0.0], np.cumsum(pulls * regret)[:-1]))  # before each segment
        k = np.searchsorted(ends, checkpoints)  # the segment that holds pull t
        acc += accrued[k] + (checkpoints - ends[k] + pulls[k]) * regret[k]
    return acc / len(pull_logs)


def _suite_for(config: ExperimentConfig, seed: int) -> ObjectiveSuite:
    base = config.resolve_base()
    return make_suite(
        base,
        clients=config.clients,
        shift_std=config.resolved_shift_std(base),
        noise_halfwidth=config.noise,
        seed=seed,
    )


def run(config: ExperimentConfig, seed: int, client_records: bool = True,
        suite: ObjectiveSuite | None = None) -> RunMetrics:
    """One variant run for one seed; ``client_records=False`` drops what no output reads."""
    config.validate()
    suite = suite if suite is not None else _suite_for(config, seed)
    conf = config.conf_params()
    smooth = config.smooth_params()
    wiring = variant_schedule(config.variant, smooth, config.depth_cap)
    result = run_protocol(
        suite,
        PartitionSpec(config.arity),
        conf,
        smooth,
        h0=wiring.h0,
        pe_enabled=wiring.pe_enabled,
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
    config.validate()
    runs = [run(config, seed, client_records=False) for seed in config.seeds]
    return AggregateMetrics.from_runs(config.variant, runs)
