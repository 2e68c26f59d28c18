"""Experiment orchestration: configs, variants, determinism, aggregation."""
import numpy as np
import pytest

from fedelim import protocol
from fedelim.fedcore import SmoothParams
from fedelim.harness import (
    AggregateMetrics,
    ConfigError,
    ExperimentConfig,
    average_regret_trace,
    checkpoint_grid,
    run,
    run_many,
    variant_schedule,
)
from pull_helpers import expand_pulls

SMOOTH = SmoothParams(1.0, 0.5, 0.01)


def small_config(**overrides):
    settings = dict(objective="garland", clients=4, horizon=800, seeds=(0,),
                    checkpoint_stride=10)
    settings.update(overrides)
    return ExperimentConfig(**settings)


class TestVariantSchedule:
    def test_full_protocol_switches_after_depth_seven(self):
        wiring = variant_schedule("pfpne", SMOOTH, depth_cap=40)
        assert wiring.h0 == 7 and wiring.pe_enabled

    def test_global_only_never_transitions(self):
        wiring = variant_schedule("global-only", SMOOTH, depth_cap=40)
        assert wiring.h0 == 40 and not wiring.pe_enabled

    def test_local_only_never_communicates(self):
        wiring = variant_schedule("local-only", SMOOTH, depth_cap=40)
        assert wiring.h0 == 0 and wiring.pe_enabled

    def test_depth_cap_clamps_transition(self):
        wiring = variant_schedule("pfpne", SmoothParams(1.0, 0.5, 1e-9), depth_cap=5)
        assert wiring.h0 == 5

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            variant_schedule("centralized", SMOOTH, 40)


class TestRun:
    def test_determinism(self):
        config = small_config(noise=0.1)
        a = run(config, 3)
        b = run(config, 3)
        assert np.array_equal(a.avg_cum_regret, b.avg_cum_regret)
        assert a.comm_rounds_total == b.comm_rounds_total
        assert [len(e.eliminated) for e in a.comm_rounds] == [
            len(e.eliminated) for e in b.comm_rounds
        ]

    def test_local_only_single_client_has_no_communication(self):
        config = small_config(variant="local-only", clients=1)
        metrics = run(config, 0)
        assert metrics.comm_rounds_total == 0
        assert metrics.scalars_up_total == 0 and metrics.scalars_down_total == 0
        assert metrics.stage_transition_t == 0

    def test_large_gap_matches_local_only_trajectory(self):
        kwargs = dict(clients=3, horizon=600, delta_gap=1.0)
        a = run(small_config(variant="pfpne", **kwargs), 5)
        b = run(small_config(variant="local-only", **kwargs), 5)
        assert a.comm_rounds_total == 0
        for la, lb in zip(a.pull_logs, b.pull_logs):
            depths_a, indices_a, rewards_a, _ = expand_pulls(la)
            depths_b, indices_b, rewards_b, _ = expand_pulls(lb)
            assert depths_a == depths_b
            assert indices_a == indices_b
            assert np.array_equal(rewards_a, rewards_b)

    def test_comm_rounds_bounded_by_transition_depth(self):
        config = small_config(clients=10, horizon=5000)
        metrics = run(config, 1)
        assert metrics.h0 == 7
        assert metrics.comm_rounds_total <= 8

    def test_global_only_matches_full_protocol_through_stage_one(self):
        # with the transition forced to the cap, the collaborative prefix of
        # the full protocol equals the global-only run pull for pull
        kwargs = dict(clients=3, horizon=700, delta_gap=1e-9, depth_cap=6)
        a = run(small_config(variant="pfpne", **kwargs), 2)
        b = run(small_config(variant="global-only", **kwargs), 2)
        cut = a.stage_transition_t
        if cut is None:
            cut = a.horizon
        for la, lb in zip(a.pull_logs, b.pull_logs):
            _, indices_a, rewards_a, _ = expand_pulls(la)
            _, indices_b, rewards_b, _ = expand_pulls(lb)
            assert indices_a[:cut] == indices_b[:cut]
            assert np.array_equal(rewards_a[:cut], rewards_b[:cut])

    def test_client_average_identity(self):
        config = small_config(noise=0.1, clients=5)
        metrics = run(config, 7)
        recomputed = average_regret_trace(metrics.pull_logs, metrics.checkpoints)
        assert np.array_equal(metrics.avg_cum_regret, recomputed)

    def test_trace_is_nondecreasing(self):
        metrics = run(small_config(noise=0.1), 11)
        assert np.all(np.diff(metrics.avg_cum_regret) >= -1e-9)

    def test_final_regret_per_client_matches_logs(self):
        metrics = run(small_config(clients=3), 4)
        for final, log in zip(metrics.final_regret_per_client, metrics.pull_logs):
            assert final == float(np.sum(log.regret_array()))

    def test_each_cell_is_evaluated_once_for_every_client(self, monkeypatch):
        calls = []
        representative = protocol.representative
        monkeypatch.setattr(protocol, "representative",
                            lambda *a: calls.append(a[1]) or representative(*a))
        metrics = run(small_config(clients=4, horizon=3000, delta_gap=0.05), 2, record_pulls=True)
        assert metrics.stage_transition_t is not None
        per_client = [{node for node, _, _ in log.segments} for log in metrics.pull_logs]
        cells = set().union(*per_client)
        assert sorted(calls) == sorted(cells)
        # personal stages revisit cells: one table per client would evaluate more
        assert len(cells) < sum(len(c) for c in per_client)

    def test_run_never_certifies_the_global_optimum(self):
        for variant in ("pfpne", "global-only", "local-only"):
            metrics = run(small_config(variant=variant), 0)
            assert "global_optimum" not in vars(metrics.suite)


class TestRunMany:
    def test_single_seed_zero_std(self):
        agg = run_many(small_config(seeds=(3,)))
        assert np.all(agg.std_curve == 0.0)
        assert agg.final_std == 0.0

    def test_duplicated_seed_zero_std(self):
        agg = run_many(small_config(seeds=(3, 3)))
        assert np.all(agg.std_curve == 0.0)

    def test_mean_within_envelope(self):
        agg = run_many(small_config(seeds=(0, 1, 2), noise=0.1))
        curves = np.stack([r.avg_cum_regret for r in agg.runs])
        assert np.all(agg.mean_curve <= curves.max(axis=0) + 1e-12)
        assert np.all(agg.mean_curve >= curves.min(axis=0) - 1e-12)

    def test_aggregate_metadata(self):
        agg = run_many(small_config(seeds=(0, 1)))
        assert isinstance(agg, AggregateMetrics)
        assert agg.comm_rounds_mean >= 0
        assert len(agg.runs) == 2


class TestCheckpoints:
    def test_grid_includes_horizon(self):
        grid = checkpoint_grid(95, 10)
        assert grid[-1] == 95
        assert list(grid[:3]) == [10, 20, 30]

    def test_exact_multiple(self):
        grid = checkpoint_grid(100, 10)
        assert grid[-1] == 100 and len(grid) == 10


class TestConfigValidation:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            small_config(variant="hct").validate()

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            small_config(clients=0).validate()
        with pytest.raises(ConfigError):
            small_config(horizon=0).validate()
        with pytest.raises(ConfigError):
            small_config(depth_cap=0).validate()

    def test_domain_override_must_be_paired(self):
        with pytest.raises(ConfigError):
            small_config(domain_lower=(0.0,)).validate()

    def test_domain_override_roundtrip(self):
        config = small_config(domain_lower=(0.2,), domain_upper=(0.8,))
        config.validate()
        base = config.resolve_base()
        assert base.domain.lower[0] == 0.2 and base.domain.upper[0] == 0.8

    def test_unknown_objective(self):
        with pytest.raises(ConfigError):
            small_config(objective="branin").validate()

    def test_delta_conf_defaults_to_inverse_clients(self):
        config = small_config(clients=8)
        assert config.resolved_delta_conf() == 0.125

    def test_shift_std_default_tracks_domain_width(self):
        config = small_config(objective="himmelblau")
        base = config.resolve_base()
        assert config.resolved_shift_std(base) == pytest.approx(0.5)

    def test_arity_bounded_by_horizon(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(horizon=100, arity=101).validate()
        ExperimentConfig(horizon=100, arity=100).validate()

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            small_config(seeds=()).validate()
