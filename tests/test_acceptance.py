"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Shared protocol runs are cached across criteria; every cached
run is eagerly checked for trace integrity (criterion 10) before its pull
logs are dropped to bound memory.
"""
import math

import numpy as np
import pytest

from fedelim.fedcore import (
    ClientReport,
    ConfParams,
    SmoothParams,
    confidence_bound,
    merge_global,
    quota,
    tau,
    transition_depth,
)
from fedelim.harness import ExperimentConfig, average_regret_trace, run
from fedelim.objectives import make_base, make_suite
from fedelim.partition import NodeId, PartitionSpec, node_containing
from fedelim.seeding import PURPOSE_NOISE, substream
from pull_helpers import expand_pulls

SPEC = PartitionSpec(2)
SEEDS = tuple(range(10))

_SUITES: dict = {}
_RUNS: dict = {}
_TRACE_CHECKS: list = []


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {label}: {status}"
    if detail:
        line += f" - {detail}"
    print(line)


def cached_suite(objective, clients, shift_std, noise, seed):
    key = (objective, clients, shift_std, noise, seed)
    if key not in _SUITES:
        config = ExperimentConfig(objective=objective, clients=clients,
                                  shift_std=shift_std, noise=noise, seeds=(seed,))
        _SUITES[key] = make_suite(config.base, clients=clients, shift_std=config.shift_scales,
                                  noise_halfwidth=noise, seed=seed)
    return _SUITES[key]


def cached_run(objective, variant, seed, clients=10, horizon=5000, noise=0.1,
               shift_std=None, delta_gap=0.01, keep_logs=False):
    key = (objective, variant, seed, clients, horizon, noise, shift_std, delta_gap)
    if key in _RUNS:
        return _RUNS[key]
    config = ExperimentConfig(objective=objective, variant=variant, clients=clients,
                              horizon=horizon, noise=noise, shift_std=shift_std,
                              delta_gap=delta_gap, seeds=(seed,))
    metrics = run(config, seed)
    # criterion 10 bookkeeping: verify each emitted trace once, at creation
    recomputed = average_regret_trace(metrics.pull_logs, metrics.checkpoints)
    exact = bool(np.array_equal(metrics.avg_cum_regret, recomputed))
    monotone = bool(np.all(np.diff(metrics.avg_cum_regret) >= -1e-9))
    start_ok = bool(metrics.avg_cum_regret[0] >= -1e-9)
    _TRACE_CHECKS.append((key, exact, monotone and start_ok))
    if not keep_logs:
        metrics.pull_logs = None
    _RUNS[key] = metrics
    return metrics


class TestCriterion01OptimumSafety:
    def test_optimizer_cells_survive_noiseless_elimination(self):
        violations = []
        for objective in ("garland", "himmelblau", "doublesine"):
            for seed in SEEDS:
                metrics = cached_run(objective, "pfpne", seed, noise=0.0)
                domain = metrics.suite.domain
                gx = metrics.suite.global_optimum.x
                for event in metrics.comm_rounds:
                    if node_containing(domain, gx, event.depth, SPEC) in event.eliminated:
                        violations.append((objective, seed, "global", event.depth))
                for m, events in enumerate(metrics.client_events, start=1):
                    lx = metrics.suite.local_optima[m - 1].x
                    for event in events:
                        if node_containing(domain, lx, event.depth, SPEC) in event.eliminated:
                            violations.append((objective, seed, f"client {m}", event.depth))
        ok = not violations
        report(1, "optimum cells never eliminated (noiseless)", ok,
               f"{len(violations)} violations over 3 objectives x 10 seeds"
               + (f"; first: {violations[0]}" if violations else ""))
        assert ok, violations[:5]


class TestCriterion02Sublinearity:
    def test_regret_growth_ratio_below_linear(self):
        ratios = []
        for seed in SEEDS:
            metrics = cached_run("garland", "pfpne", seed, horizon=10_000)
            half = int(np.searchsorted(metrics.checkpoints, 5000))
            assert metrics.checkpoints[half] == 5000
            ratios.append(metrics.avg_cum_regret[-1] / metrics.avg_cum_regret[half])
        mean_ratio = float(np.mean(ratios))
        ok = mean_ratio < 1.9
        report(2, "doubling the horizon grows regret sublinearly", ok,
               f"mean ratio {mean_ratio:.4f} (required < 1.9)")
        assert ok, f"mean regret growth ratio {mean_ratio:.4f} is not below 1.9"


class TestCriterion03OrderingVsGlobalOnly:
    def test_personalized_variant_beats_collaborative_only(self):
        details = []
        ok = True
        for objective, shift in (("garland", 0.05), ("rastrigin", None)):
            pf = [cached_run(objective, "pfpne", s, shift_std=shift).avg_cum_regret[-1]
                  for s in SEEDS]
            go = [cached_run(objective, "global-only", s, shift_std=shift).avg_cum_regret[-1]
                  for s in SEEDS]
            mean_pf, mean_go = float(np.mean(pf)), float(np.mean(go))
            clause = mean_pf < mean_go
            ok = ok and clause
            details.append(f"{objective}: pfpne {mean_pf:.2f} vs global-only {mean_go:.2f}"
                           f" ({'ok' if clause else 'violated'})")
        report(3, "smaller final regret than the collaborative-only baseline", ok,
               "; ".join(details))
        assert ok, "; ".join(details)


class TestCriterion04CollaborationBenefit:
    def test_identical_locals_make_collaboration_free(self):
        pf = [cached_run("garland", "pfpne", s, clients=20, shift_std=0.0).avg_cum_regret[-1]
              for s in SEEDS]
        lo = [cached_run("garland", "local-only", s, clients=20, shift_std=0.0).avg_cum_regret[-1]
              for s in SEEDS]
        mean_pf, mean_lo = float(np.mean(pf)), float(np.mean(lo))
        ok = mean_pf <= mean_lo
        report(4, "no worse than isolated clients on identical objectives", ok,
               f"pfpne {mean_pf:.2f} vs local-only {mean_lo:.2f}")
        assert ok, f"pfpne {mean_pf:.2f} exceeds local-only {mean_lo:.2f}"


class TestCriterion05CommunicationPlateau:
    def test_rounds_bounded_and_silent_after_transition(self):
        # defaults: transition depth 7, so at most 8 collaborative rounds
        assert transition_depth(SmoothParams(1.0, 0.5, 0.01)) == 7
        checked = 0
        ok = True
        problems = []
        for s in SEEDS:  # ensure the default-configuration runs exist
            cached_run("garland", "pfpne", s, shift_std=0.05)
        for key, metrics in _RUNS.items():
            if metrics.variant != "pfpne":
                continue
            checked += 1
            if metrics.comm_rounds_total > metrics.h0 + 1:
                ok = False
                problems.append(f"{key}: {metrics.comm_rounds_total} rounds")
            cumulative = [r.cumulative_scalars for r in metrics.comm_rounds]
            if cumulative != sorted(cumulative):
                ok = False
                problems.append(f"{key}: cumulative scalars not monotone")
            if metrics.stage_transition_t is not None:
                late = [r for r in metrics.comm_rounds if r.clock > metrics.stage_transition_t]
                if late:
                    ok = False
                    problems.append(f"{key}: communication after the transition")
        defaults = [m for m in _RUNS.values()
                    if m.variant == "pfpne" and m.horizon == 5000 and m.h0 == 7]
        assert defaults, "default-scale runs must be present"
        if any(m.comm_rounds_total > 8 for m in defaults):
            ok = False
            problems.append("default runs exceeded 8 rounds")
        report(5, "communication stops at the stage transition", ok,
               f"{checked} federated runs checked" + ("" if ok else f"; {problems[:3]}"))
        assert ok, problems[:5]


class TestCriterion06DegenerationIdentities:
    def test_gap_dominated_runs_equal_local_only(self):
        mismatches = []
        for seed in (0, 1, 2):
            a = cached_run("garland", "pfpne", seed, delta_gap=1.0, keep_logs=True)
            b = cached_run("garland", "local-only", seed, delta_gap=1.0, keep_logs=True)
            if a.comm_rounds_total != 0:
                mismatches.append(f"seed {seed}: unexpected communication")
                continue
            for m, (la, lb) in enumerate(zip(a.pull_logs, b.pull_logs), start=1):
                depths_a, indices_a, rewards_a, regrets_a = expand_pulls(la, a.suite, m, seed)
                depths_b, indices_b, rewards_b, regrets_b = expand_pulls(lb, b.suite, m, seed)
                if (depths_a != depths_b or indices_a != indices_b
                        or not np.array_equal(rewards_a, rewards_b)
                        or not np.array_equal(regrets_a, regrets_b)):
                    mismatches.append(f"seed {seed}: pull logs differ for client {m}")
                    break
        ok_identity = not mismatches
        go_pe_events = []
        for s in SEEDS:
            metrics = cached_run("garland", "global-only", s, shift_std=0.05)
            go_pe_events.append(sum(len(ev) for ev in metrics.client_events))
            if metrics.stage_transition_t is not None:
                mismatches.append(f"seed {s}: collaborative-only run transitioned")
        ok_global = all(n == 0 for n in go_pe_events)
        ok = ok_identity and ok_global and not mismatches
        report(6, "degeneration identities (gap-dominated == local-only; "
                  "collaborative-only never personalizes)", ok,
               f"3 transcript identities, {len(go_pe_events)} runs without personal steps"
               + ("" if ok else f"; {mismatches[:2]}"))
        assert ok, mismatches[:5]


class TestCriterion07FormulaValues:
    def test_closed_form_examples_and_threshold_sandwich(self):
        conf = ConfParams(0.1, 1.0, 0.01, 10_000)
        smooth = SmoothParams(1.0, 0.5, 0.01)
        checks = [
            (confidence_bound(1, conf), 0.1 * math.sqrt(math.log(1e6))),
            (confidence_bound(100, conf), 0.1 * math.sqrt(math.log(1e6) / 100)),
            (float(tau(0, conf, smooth)), float(math.ceil(0.01 * math.log(1e6)))),
            (float(tau(5, conf, smooth)), float(math.ceil(0.01 * math.log(1e6) * 4 ** 5))),
            (float(quota(142, 10)), 15.0),
            (float(transition_depth(smooth)), 7.0),
            (float(transition_depth(SmoothParams(1.0, 0.5, 1.0))), 0.0),
            (float(transition_depth(SmoothParams(1.0, 0.5, 0.5))), 1.0),
        ]
        ok = all(abs(got - want) <= 1e-12 * max(1.0, abs(want)) for got, want in checks)
        assert tau(5, conf, smooth) == 142

        rng = np.random.default_rng(123)
        draws = 0
        sandwich_ok = True
        while draws < 100:
            c1 = rng.uniform(0.5, 10.0)
            delta = rng.uniform(0.001, 0.5)
            horizon = int(rng.integers(100, 1_000_000))
            if c1 * horizon / delta < math.e:
                continue
            nu1 = rng.uniform(0.2, 3.0)
            c = nu1 * rng.uniform(0.75, 3.0)  # regime where ceil(x) <= 2x holds
            conf_i = ConfParams(c, c1, delta, horizon)
            smooth_i = SmoothParams(nu1, rng.uniform(0.3, 0.9), 0.01)
            draws += 1
            for h in range(41):
                lo = c ** 2 / nu1 ** 2 * smooth_i.rho ** (-2 * h)
                hi = 2 * c ** 2 * conf_i.log_term / nu1 ** 2 * smooth_i.rho ** (-2 * h)
                t = tau(h, conf_i, smooth_i)
                if not (lo <= t <= hi * (1 + 1e-12)):
                    sandwich_ok = False
        ok = ok and sandwich_ok
        report(7, "closed-form values and threshold sandwich", ok,
               "8 formula anchors at 1e-12 rel, 100 sandwich draws x 41 depths")
        assert ok


class TestCriterion08MergeOracle:
    def test_merge_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(321)
        conf = ConfParams(0.1, 1.0, 0.05, 5000)
        worst = 0.0
        for _ in range(1000):
            m_count = int(rng.integers(1, 16))
            n_nodes = int(rng.integers(1, 9))
            nodes = [NodeId(3, int(i) + 1) for i in range(n_nodes)]
            raw = {
                (m, node): (float(rng.uniform(0, 50)), int(rng.integers(1, 60)))
                for m in range(1, m_count + 1) for node in nodes
            }
            reports = [
                ClientReport(m, 3,
                             np.array([raw[(m, node)][0] / raw[(m, node)][1] for node in nodes]),
                             np.array([raw[(m, node)][1] for node in nodes], dtype=np.int64))
                for m in range(1, m_count + 1)
            ]
            means, pooled, bounds = merge_global(reports, conf)
            for k, node in enumerate(nodes):
                mean_sum = 0.0
                pulls = 0
                for m in range(1, m_count + 1):
                    total, count = raw[(m, node)]
                    mean_sum += total / count
                    pulls += count
                want_mean = mean_sum / m_count
                rel = abs(float(means[k]) - want_mean) / max(1e-300, abs(want_mean))
                worst = max(worst, rel)
                assert pooled[k] == pulls
                assert bounds[k] == confidence_bound(pulls, conf)
        ok = worst <= 1e-15
        report(8, "global merge equals brute-force recomputation", ok,
               f"1000 random cases, worst relative error {worst:.2e}")
        assert ok


class TestCriterion09NoiseCalibration:
    def test_empirical_reward_mean_at_fixed_point(self):
        suite = cached_suite("garland", 10, None, 0.1, 0)
        rng = substream(987, PURPOSE_NOISE, 1)
        x = np.array([0.3])
        value = suite.eval_local(1, x)
        n = 100_000
        rewards = value + suite.noise.draw(rng, n)
        deviation = abs(float(rewards.mean()) - value)
        tolerance = 4 * 0.1 / math.sqrt(3 * n)
        ok = deviation < tolerance
        report(9, "empirical reward mean within four standard errors", ok,
               f"deviation {deviation:.2e} < {tolerance:.2e}")
        assert ok


class TestCriterion10TraceIntegrity:
    def test_every_emitted_trace_is_exact_and_monotone(self):
        assert len(_TRACE_CHECKS) >= 100, "expected the cached acceptance runs"
        bad_exact = [k for k, exact, _ in _TRACE_CHECKS if not exact]
        bad_mono = [k for k, _, mono in _TRACE_CHECKS if not mono]
        ok = not bad_exact and not bad_mono
        report(10, "traces recompute exactly and never decrease", ok,
               f"{len(_TRACE_CHECKS)} traces verified"
               + ("" if ok else f"; first failure {(bad_exact + bad_mono)[0]}"))
        assert ok, (bad_exact[:3], bad_mono[:3])
