"""Experiment orchestration: configs, variants, determinism, aggregation."""
import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fedelim import protocol
from fedelim.fedcore import ConfParams, SmoothParams
from fedelim.harness import (
    AggregateMetrics,
    ConfigError,
    ExperimentConfig,
    average_regret_trace,
    checkpoint_grid,
    run,
    run_many,
)
from fedelim.objectives import make_suite
from fedelim.partition import PartitionSpec
from fedelim.seeding import PURPOSE_SHIFTS, substream
import pull_helpers
from pull_helpers import expand_pulls

SMOOTH = SmoothParams(1.0, 0.5, 0.01)


def small_config(**overrides):
    settings = dict(objective="garland", clients=4, horizon=800, seeds=(0,),
                    checkpoint_stride=10)
    settings.update(overrides)
    return ExperimentConfig(**settings)


class TestVariantSchedule:
    """Each variant's stage schedule, read from a run: ``h0``, the round depths, the transition."""

    def test_full_protocol_switches_after_depth_seven(self):
        metrics = run(small_config(clients=10, horizon=5000), 1)
        assert metrics.h0 == 7
        assert [rnd.depth for rnd in metrics.comm_rounds] == list(range(8))
        assert metrics.stage_transition_t == metrics.comm_rounds[-1].clock

    def test_global_only_never_transitions(self):
        metrics = run(small_config(variant="global-only", depth_cap=4, horizon=2000), 0)
        assert metrics.h0 == 4
        assert [rnd.depth for rnd in metrics.comm_rounds] == list(range(5))
        assert metrics.stage_transition_t is None and not any(metrics.client_events)

    def test_local_only_never_communicates(self):
        metrics = run(small_config(variant="local-only"), 0)
        assert metrics.h0 == 0 and metrics.comm_rounds == []
        assert metrics.stage_transition_t == 0

    def test_depth_cap_clamps_transition(self):
        metrics = run(small_config(delta_gap=1e-9, depth_cap=5, horizon=2000), 0)
        assert metrics.h0 == 5
        assert [rnd.depth for rnd in metrics.comm_rounds] == list(range(6))
        assert metrics.stage_transition_t == metrics.comm_rounds[-1].clock

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="unknown variant 'centralized'; expected one of"):
            small_config(variant="centralized")
        config = small_config()
        suite = make_suite(config.base, clients=1, shift_std=0.0, noise_halfwidth=0.0, seed=0)
        with pytest.raises(ValueError, match="unknown variant 'centralized'"):
            protocol.run_protocol(suite, config.spec, config.conf, SMOOTH, variant="centralized",
                                  depth_cap=40, seed=0)


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
        assert metrics.stage_transition_t == 0

    def test_large_gap_matches_local_only_trajectory(self):
        kwargs = dict(clients=3, horizon=600, delta_gap=1.0)
        a = run(small_config(variant="pfpne", **kwargs), 5)
        b = run(small_config(variant="local-only", **kwargs), 5)
        assert a.comm_rounds_total == 0
        for m, (la, lb) in enumerate(zip(a.pull_logs, b.pull_logs), start=1):
            depths_a, indices_a, rewards_a, _ = expand_pulls(la, a.suite, m, a.seed)
            depths_b, indices_b, rewards_b, _ = expand_pulls(lb, b.suite, m, b.seed)
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
        for m, (la, lb) in enumerate(zip(a.pull_logs, b.pull_logs), start=1):
            _, indices_a, rewards_a, _ = expand_pulls(la, a.suite, m, a.seed)
            _, indices_b, rewards_b, _ = expand_pulls(lb, b.suite, m, b.seed)
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

    def test_each_cell_is_evaluated_once_for_every_client(self, monkeypatch):
        calls = []
        representative = protocol.representative
        monkeypatch.setattr(protocol, "representative",
                            lambda *a: calls.append(a[1]) or representative(*a))
        metrics = run(small_config(clients=4, horizon=3000, delta_gap=0.05), 2, client_records=True)
        assert metrics.stage_transition_t is not None
        per_client = [{node for node, *_ in log.segments} for log in metrics.pull_logs]
        cells = set().union(*per_client)
        assert sorted(calls) == sorted(cells)
        # personal stages revisit cells: one table per client would evaluate more
        assert len(cells) < sum(len(c) for c in per_client)

    def test_each_cell_is_expanded_once_per_run(self, monkeypatch):
        calls = []
        children = protocol.children
        monkeypatch.setattr(protocol, "children", lambda *a: calls.append(a[0]) or children(*a))
        metrics = run(small_config(clients=20, horizon=20_000), 1)
        expanded = {n for rnd in metrics.comm_rounds for n in rnd.survivors}
        expanded.update(n for steps in metrics.client_events for e in steps for n in e.survivors)
        # the server and all 20 clients expand these cells; each is built once
        assert sorted(calls) == sorted(expanded) and len(calls) == 83

    def test_run_never_certifies_the_global_optimum(self):
        for variant in ("pfpne", "global-only", "local-only"):
            metrics = run(small_config(variant=variant), 0)
            assert "global_optimum" not in vars(metrics.suite)


class TestPullLog:
    def test_memory_held_by_a_run_does_not_grow_with_pulls(self):
        config = small_config(clients=5, horizon=200_000)
        run(config, 1)  # warm-up: imports and the cached base certificate
        tracemalloc.start()
        try:
            metrics = run(config, 1)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a million pulls; eight bytes of reward each would hold 8 MB
        assert sum(len(log) for log in metrics.pull_logs) == 1_000_000
        assert held < 1 << 20, held
        for log in metrics.pull_logs:
            assert not any(isinstance(field, np.ndarray)
                           for segment in log.segments for field in segment)

    @pytest.mark.parametrize("noise", [0.1, 0.0])
    @pytest.mark.parametrize("variant", ["pfpne", "global-only", "local-only"])
    @pytest.mark.parametrize("objective", ["garland", "doublesine"])
    def test_replay_redraws_every_segment(self, objective, variant, noise, monkeypatch):
        leftovers = []
        spend_rest = protocol.Client._spend_rest
        monkeypatch.setattr(protocol.Client, "_spend_rest",
                            lambda c, frontier: leftovers.append(c.budget) or spend_rest(c, frontier))
        config = small_config(objective=objective, variant=variant, clients=3, horizon=1000,
                              noise=noise, depth_cap=5)
        metrics = run(config, 4)
        # the depth cap leaves budget over for every client
        assert len(leftovers) == 3 and min(leftovers) > 0
        for m, log in enumerate(metrics.pull_logs, start=1):
            depths, indices, rewards, regrets = expand_pulls(log, metrics.suite, m, 4)
            assert len(depths) == len(indices) == len(rewards) == len(regrets) == 1000
            if noise == 0.0:  # every reward is the cell's value
                assert np.array_equal(regrets, metrics.suite.local_optima[m - 1].value - rewards)

    def test_shifted_replay_fails(self, monkeypatch):
        metrics = run(small_config(clients=3, horizon=1000, noise=0.1, depth_cap=5), 4)
        draw = metrics.suite.noise.draw

        def skipping_substream(seed, purpose, m):
            rng = substream(seed, purpose, m)
            draw(rng, 1)  # one draw skipped
            return rng

        expand_pulls(metrics.pull_logs[0], metrics.suite, 1, 4)
        with monkeypatch.context() as patched:
            patched.setattr(pull_helpers, "substream", skipping_substream)
            with pytest.raises(AssertionError, match="replayed sum"):
                expand_pulls(metrics.pull_logs[0], metrics.suite, 1, 4)


# SHA-256 of ``repr`` of every pull-log segment of a run, client by client:
# the cell, the pull count and the exact bits of the reward sum and the
# instant regret.  The CSV digests read only cell values, so a last-bit
# change in a reward sum can pass them; it cannot pass these.  The last
# field overrides further ``ExperimentConfig`` settings.  The digests were
# recorded when every call still drew and summed its rewards, with each
# client's exhausting call's reward sums then set to None.
SEGMENT_DIGESTS = [
    ("garland", 3, 3000, "pfpne", 0,
     "f9b27f0bf2f6c51824d0d2ccac18718aeab02ea5dbda59ce0789fc3d89117c92", {}),
    ("garland", 3, 3000, "pfpne", 1,
     "10ff31b739830dffe5cd50e324fb2d27c2242e33a115b33d9383cb3eefeeb499", {}),
    ("garland", 3, 3000, "global-only", 0,
     "f9b27f0bf2f6c51824d0d2ccac18718aeab02ea5dbda59ce0789fc3d89117c92", {}),
    ("garland", 3, 3000, "global-only", 1,
     "10ff31b739830dffe5cd50e324fb2d27c2242e33a115b33d9383cb3eefeeb499", {}),
    ("garland", 3, 3000, "local-only", 0,
     "6793da22de33acf73c2e290791f47621bfc649135fef8f14b94575f28955f557", {}),
    ("garland", 3, 3000, "local-only", 1,
     "067cf0396507883a51d18deddce0ade9950dc5251010aa3fbcb5c5b0a58741d8", {}),
    ("ackley", 2, 5000, "pfpne", 0,
     "0f8a3b1b665115029551fa54335478b32fc09ba9bea560e29d201e06cce41f7f", {}),
    ("ackley", 2, 5000, "pfpne", 1,
     "2f3652fed11507537e5b57f5b0920c926af685491e0b1da05431945b6ec7a582", {}),
    # Many clients: every client expands the cells the server kept.
    ("garland", 20, 20000, "pfpne", 1,
     "78d8dba7634d9908e569f314a119a267e54a4713a3861ac02fd84852321a81eb", {}),
    # Every client reaches the depth cap with budget left and spends it on one cell.
    ("garland", 10, 4000, "local-only", 0,
     "52b02a9a15caf55dbd40b7c06c4ab00aaeee3ce8d1b5dcec303205ae95ce3974", {"depth_cap": 2}),
]


def segment_case_id(case):
    """``objective-variant-seed``, naming the clients and overrides where there are many."""
    objective, clients, _, variant, seed, _, overrides = case
    extra = f"-M{clients}" if clients > 3 else ""
    return f"{objective}-{variant}-{seed}{extra}" + "".join(f"-{k}{v}" for k, v in overrides.items())


def hash_segments(sha, metrics):
    """``sha`` updated with ``repr`` of every segment of ``metrics``, client by client."""
    for log in metrics.pull_logs:
        for segment in log.segments:
            sha.update(repr(segment).encode())
    return sha


@pytest.mark.parametrize("objective,clients,horizon,variant,seed,digest,overrides",
                         SEGMENT_DIGESTS, ids=map(segment_case_id, SEGMENT_DIGESTS))
def test_every_segment_matches_recorded_hashes(objective, clients, horizon, variant, seed,
                                               digest, overrides):
    config = ExperimentConfig(objective=objective, variant=variant, clients=clients,
                              horizon=horizon, seeds=(seed,), **overrides)
    assert hash_segments(hashlib.sha256(), run(config, seed)).hexdigest() == digest


# The benchmark's protocol shapes at seed 1: ``wide-pool``'s two variants
# (100 clients, 1e5 pulls each) and ``long-horizon`` (10 clients, 1e6 pulls
# each).  Each digest covers ``repr`` of every segment, client by client,
# then ``repr`` of the server rounds and personal steps, then the trace
# bytes.  Recorded before the per-run statistics moved into the cell table.
SCALE_DIGESTS = [
    ("garland", 100, 100_000, "pfpne",
     "b68f504e9af818022bd86d6a104d113c9ceeec4c7f6ccb76c642b75ff2c092b2"),
    ("garland", 100, 100_000, "local-only",
     "4794ef51b5f65575e51174fece332e97bb09fcf8639fd3cecd825b4e8a02a605"),
    ("garland", 10, 1_000_000, "pfpne",
     "5c6b87c1e26ff529e1b1f0a5c3ac351ad05d280a6a018ced97907e4675dfb222"),
]


@pytest.mark.parametrize("objective,clients,horizon,variant,digest", SCALE_DIGESTS,
                         ids=[f"{o}-{v}-M{m}-T{t}" for o, m, t, v, _ in SCALE_DIGESTS])
def test_benchmark_scale_runs_match_recorded_hashes(objective, clients, horizon, variant, digest):
    config = ExperimentConfig(objective=objective, variant=variant, clients=clients,
                              horizon=horizon, seeds=(1,))
    metrics = run(config, 1)
    sha = hash_segments(hashlib.sha256(), metrics)
    sha.update(repr((metrics.comm_rounds, metrics.client_events)).encode())
    sha.update(metrics.avg_cum_regret.tobytes())
    assert sha.hexdigest() == digest


# SHA-256 over a grid of small runs: for each, ``repr`` of every segment, the
# trace bytes, the server rounds, the personal steps, ``h0`` and the
# transition time.
BATTERY_DIGEST = "ed7e094235a4984e92c0c4334d96e7a3ae2d05e8d882659be14676c28ca90cc0"


def test_run_battery_matches_recorded_hash():
    sha = hashlib.sha256()
    for objective, variant, clients, horizon, depth_cap, arity, noise, seed in itertools.product(
            ("garland", "doublesine", "himmelblau", "ackley", "rastrigin"), protocol.VARIANTS,
            (1, 3), (60, 700, 4000), (1, 2, 40), (2, 3), (0.0, 0.1), (0, 1)):
        config = ExperimentConfig(objective=objective, variant=variant, clients=clients,
                                  horizon=horizon, depth_cap=depth_cap, arity=arity,
                                  noise=noise, delta_gap=0.05, seeds=(seed,))
        metrics = run(config, seed)
        hash_segments(sha, metrics).update(metrics.avg_cum_regret.tobytes())
        sha.update(repr((metrics.comm_rounds, metrics.client_events, metrics.h0,
                         metrics.stage_transition_t)).encode())
    assert sha.hexdigest() == BATTERY_DIGEST


def segment_log(segments):
    """A pull log of (pulls, instant regret) segments, all in the root cell, logged as one call."""
    log = protocol.PullLog()
    pulls, regrets = map(list, zip(*segments))
    log.append_batch(([protocol.ROOT] * len(pulls), pulls, [0.0] * len(pulls), regrets),
                     range(sum(pulls)))
    return log


class TestRegretTrace:
    @pytest.mark.parametrize("seed", range(5))
    def test_closed_form_matches_an_exact_sum_over_pulls(self, seed):
        rng = np.random.default_rng(seed)
        logs, bounds = [], set()
        for _ in range(3):
            pulls = rng.choice([1, 1, 2, 7, 40, 300], size=rng.integers(1, 40)).tolist()
            regret = rng.uniform(0.0, 2.0, size=len(pulls)) * (rng.random(len(pulls)) < 0.7)
            logs.append(segment_log(zip(pulls, regret.tolist())))
            ends = np.cumsum(pulls)
            bounds.update((ends - pulls + 1).tolist())  # each segment's first pull
            bounds.update(ends.tolist())  # and its last
        horizon = min(len(log) for log in logs)  # the last tick every client reaches
        ticks = sorted({t for t in bounds if t <= horizon} | {1, horizon})
        expanded = [np.repeat([r for *_, r in log.segments], [n for _, n, _, _ in log.segments])
                    for log in logs]
        exact = [math.fsum(math.fsum(per_pull[:t]) for per_pull in expanded) / len(logs)
                 for t in ticks]
        trace = average_regret_trace(logs, np.asarray(ticks))
        np.testing.assert_allclose(trace, exact, rtol=1e-12, atol=0)

    def test_a_trillion_pulls_in_three_segments(self):
        # A per-pull array of this log would take 8 TB.
        first, zero, horizon = 2**39, 3, 10**12
        logs = [segment_log([(first, 0.5), (zero, 0.0), (horizon - first - zero, 0.25)]),
                segment_log([(1, 1.0), (horizon - 1, 0.0)])]
        ticks = np.array([1, first, first + 1, first + zero, first + zero + 1, horizon])
        after = first * 0.5  # accrued by the first client when its first segment ends
        expected = [(0.5 + 1.0) / 2, (after + 1.0) / 2, (after + 1.0) / 2, (after + 1.0) / 2,
                     (after + 0.25 + 1.0) / 2, (after + (horizon - first - zero) * 0.25 + 1.0) / 2]
        assert average_regret_trace(logs, ticks).tolist() == expected


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
        ExperimentConfig()

    def test_a_horizon_past_int64_is_refused(self):
        # Built only: a run of either would not end.
        assert ExperimentConfig(horizon=2**63 - 1).conf.horizon_T == 2**63 - 1
        for horizon in (2**63, 10**20):
            with pytest.raises(ConfigError, match=rf"horizon must be at most 2\*\*63 - 1, got {horizon}"):
                ExperimentConfig(horizon=horizon)

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            small_config(variant="hct")

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            small_config(clients=0)
        with pytest.raises(ConfigError):
            small_config(horizon=0)
        with pytest.raises(ConfigError):
            small_config(depth_cap=0)

    def test_domain_override_must_be_paired(self):
        with pytest.raises(ConfigError):
            small_config(domain_lower=(0.0,))

    def test_domain_override_roundtrip(self):
        config = small_config(domain_lower=(0.2,), domain_upper=(0.8,))
        base = config.base
        assert base.domain.lower[0] == 0.2 and base.domain.upper[0] == 0.8

    def test_unknown_objective(self):
        with pytest.raises(ConfigError):
            small_config(objective="branin")

    def test_delta_conf_defaults_to_inverse_clients(self):
        config = small_config(clients=8)
        assert config.conf.delta == 0.125

    def test_shift_std_default_tracks_domain_width(self):
        config = small_config(objective="himmelblau")
        assert config.shift_scales == pytest.approx(0.5)

    @pytest.mark.parametrize("lower,upper,scales", [
        ((-1.0, -10.0), (1.0, 10.0), [0.1, 1.0]),
        ((-10.0, -1.0), (10.0, 1.0), [1.0, 0.1]),
    ])
    def test_default_shift_is_five_percent_of_each_width(self, lower, upper, scales):
        # Each dimension is scaled by its own width, in either order.
        config = small_config(objective="himmelblau", clients=3,
                              domain_lower=lower, domain_upper=upper)
        resolved = config.shift_scales
        assert resolved.tolist() == pytest.approx(scales)
        normals = substream(0, PURPOSE_SHIFTS).standard_normal((3, 2))
        assert np.array_equal(run(config, 0).suite.shifts, normals * resolved)

    def test_arity_bounded_by_horizon(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(horizon=100, arity=101)
        ExperimentConfig(horizon=100, arity=100)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            small_config(seeds=())

    def test_replace_is_checked_too(self):
        with pytest.raises(ConfigError, match="clients must be at least 1"):
            dataclasses.replace(ExperimentConfig(), clients=0)

    def test_derived_parameters(self):
        config = small_config(variant="global-only", arity=3, depth_cap=9, delta_conf=0.2)
        assert config.conf == ConfParams(0.1, 1.0, 0.2, 800)
        assert config.smooth == SmoothParams(1.0, 0.5, 0.01)
        assert config.spec == PartitionSpec(3)
