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
from .objectives import OBJECTIVE_NAMES, BaseObjective, ObjectiveSuite, make_base, make_suite
from .partition import BoxDomain, PartitionSpec
from .protocol import ProtocolResult, PullLog, run_protocol

VARIANTS = ("pfpne", "global-only", "local-only")


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines an experiment, with desk-scale defaults.

    ``shift_std=None`` resolves to 5% of the per-dimension domain width and
    ``delta_conf=None`` to 1/clients.
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
            raise ConfigError("domain_lower and domain_upper must be given together")
        if self.domain_lower is None:
            return None
        try:
            return BoxDomain(self.domain_lower, self.domain_upper)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def resolved_delta_conf(self) -> float:
        if self.delta_conf is not None:
            return self.delta_conf
        # 1/clients, clamped so a single-client run keeps a valid level
        return min(1.0 / self.clients, 0.5)

    def resolve_base(self) -> BaseObjective:
        try:
            return make_base(self.objective, self.domain_override())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def resolved_shift_std(self, base: BaseObjective) -> float:
        if self.shift_std is not None:
            return self.shift_std
        return 0.05 * float(base.domain.widths[0])

    def conf_params(self) -> ConfParams:
        try:
            return ConfParams(self.c, self.c1, self.resolved_delta_conf(), self.horizon)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def smooth_params(self) -> SmoothParams:
        try:
            return SmoothParams(self.nu1, self.rho, self.delta_gap)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.objective not in OBJECTIVE_NAMES:
            raise ConfigError(
                f"unknown objective {self.objective!r}; expected one of {OBJECTIVE_NAMES}"
            )
        if self.clients < 1:
            raise ConfigError("clients must be at least 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if not 0 <= 2 * self.noise < math.inf:  # the draw's range, 2 * noise, must be finite
            raise ConfigError("noise halfwidth must be nonnegative, with 2 * noise finite")
        if self.shift_std is not None and not 0 <= self.shift_std < math.inf:
            raise ConfigError("shift_std must be finite and nonnegative")
        if self.arity < 2:
            raise ConfigError("arity must be at least 2")
        if self.arity > self.horizon:  # a depth-1 sweep pulls each of its cells once
            raise ConfigError("arity must not exceed the horizon")
        if self.depth_cap < 1:
            raise ConfigError("depth_cap must be at least 1")
        if self.checkpoint_stride < 1:
            raise ConfigError("checkpoint_stride must be at least 1")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be nonnegative")
        self.conf_params()
        self.smooth_params()
        self.domain_override()


@dataclass(frozen=True)
class VariantWiring:
    """Protocol wiring derived from a variant name."""

    h0: int
    pe_enabled: bool


def variant_schedule(variant: str, smooth: SmoothParams, depth_cap: int) -> VariantWiring:
    """Stage split per variant.

    The full protocol transitions at the gap-matching depth; the global-only
    baseline never leaves the collaborative stage; the local-only baseline
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
    final_regret_per_client: np.ndarray
    suite: ObjectiveSuite

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
    ticks = list(range(stride, horizon + 1, stride))
    if not ticks or ticks[-1] != horizon:
        ticks.append(horizon)
    return np.asarray(ticks, dtype=int)


def average_regret_trace(pull_logs: list[PullLog], checkpoints: np.ndarray) -> np.ndarray:
    """Client-average cumulative regret at each checkpoint.

    Per-client cumulative sums run in pull order; the client average is a
    plain sum divided by the client count, so a recomputation from the raw
    pull records reproduces the trace bit for bit.
    """
    m = len(pull_logs)
    acc = np.zeros(len(checkpoints))
    for log in pull_logs:
        cum = np.cumsum(log.regret_array())
        acc += cum[checkpoints - 1]
    return acc / m


def _suite_for(config: ExperimentConfig, seed: int) -> ObjectiveSuite:
    base = config.resolve_base()
    return make_suite(
        base,
        clients=config.clients,
        shift_std=config.resolved_shift_std(base),
        noise_halfwidth=config.noise,
        seed=seed,
    )


def run(config: ExperimentConfig, seed: int, record_pulls: bool = True,
        suite: ObjectiveSuite | None = None) -> RunMetrics:
    """Execute one variant run for one seed and account its metrics."""
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
    finals = np.asarray([float(np.sum(log.regret_array())) for log in result.pull_logs])
    metrics = RunMetrics(**vars(result), variant=config.variant, seed=seed,
                         checkpoints=checkpoints, avg_cum_regret=trace,
                         final_regret_per_client=finals, suite=suite)
    if not record_pulls:
        metrics.pull_logs = None
    return metrics


def run_many(config: ExperimentConfig) -> AggregateMetrics:
    """Independent runs over config.seeds, aggregated per checkpoint, pull logs dropped."""
    config.validate()
    runs = [run(config, seed, record_pulls=False) for seed in config.seeds]
    return AggregateMetrics.from_runs(config.variant, runs)
