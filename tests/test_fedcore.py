"""Confidence bounds, thresholds, merge, argmax and elimination rules."""
import math

import numpy as np
import pytest

from fedelim.fedcore import (
    TAU_SATURATED,
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
from fedelim.partition import NodeId

CONF = ConfParams(c=0.1, c1=1.0, delta=0.01, horizon_T=10_000)
SMOOTH = SmoothParams(nu1=1.0, rho=0.5, delta_gap=0.01)


def stats(mean, bound, pulls=10):
    return NodeStats(pulls=pulls, reward_sum=mean * pulls, mean=mean, bound=bound)


class TestConfidenceBound:
    def test_single_pull_value(self):
        expected = 0.1 * math.sqrt(math.log(1.0 * 10_000 / 0.01) / 1)
        got = confidence_bound(1, CONF)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.37169, abs=5e-5)

    def test_hundred_pull_value(self):
        expected = 0.1 * math.sqrt(math.log(1e6) / 100)
        assert confidence_bound(100, CONF) == pytest.approx(expected, rel=1e-12)
        assert confidence_bound(100, CONF) == pytest.approx(0.037169, abs=5e-6)

    def test_quadrupling_pulls_halves_bound(self):
        for pulls in (1, 7, 36, 250):
            assert confidence_bound(4 * pulls, CONF) == pytest.approx(
                confidence_bound(pulls, CONF) / 2, rel=1e-12
            )

    def test_strictly_decreasing(self):
        values = [confidence_bound(n, CONF) for n in range(1, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_zero_pulls_rejected(self):
        with pytest.raises(ValueError):
            confidence_bound(0, CONF)


class TestTau:
    def test_depth_zero(self):
        assert tau(0, CONF, SMOOTH) == math.ceil(0.01 * math.log(1e6)) == 1

    def test_depth_five(self):
        expected = math.ceil(0.01 * math.log(1e6) * 0.5 ** -10)
        assert tau(5, CONF, SMOOTH) == expected == 142

    def test_geometric_growth(self):
        ratios = [tau(h + 1, CONF, SMOOTH) / tau(h, CONF, SMOOTH) for h in range(6, 14)]
        assert all(abs(r - 4.0) < 0.05 for r in ratios)

    def test_sandwich_bounds(self):
        # c^2/nu1^2 * rho^(-2h) <= tau_h <= 2 c^2 log(c1 T/d)/nu1^2 * rho^(-2h).
        # The upper inequality is ceil(x) <= 2x, which needs x >= 1/2; draws
        # keep c/nu1 >= 0.75 so the depth-0 threshold stays inside that regime
        # (the analysis constants, not the small experimental c).
        rng = np.random.default_rng(7)
        draws = 0
        while draws < 100:
            c1 = rng.uniform(0.5, 10.0)
            delta = rng.uniform(0.001, 0.5)
            horizon = int(rng.integers(100, 1_000_000))
            if c1 * horizon / delta < math.e:
                continue
            nu1 = rng.uniform(0.2, 3.0)
            c = nu1 * rng.uniform(0.75, 3.0)
            conf = ConfParams(c, c1, delta, horizon)
            smooth = SmoothParams(nu1, rng.uniform(0.3, 0.9), 0.01)
            assert conf.log_term >= 1.0
            draws += 1
            for h in range(0, 41):
                lo = c ** 2 / smooth.nu1 ** 2 * smooth.rho ** (-2 * h)
                hi = 2 * c ** 2 * conf.log_term / smooth.nu1 ** 2 * smooth.rho ** (-2 * h)
                t = tau(h, conf, smooth)
                assert lo <= t <= hi * (1 + 1e-12)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            tau(-1, CONF, SMOOTH)

    @pytest.mark.parametrize("conf, smooth, h", [
        (CONF, SmoothParams(1.0, 1e-160, 0.01), 1),   # rho^(-2h) overflows
        (CONF, SmoothParams(1e-200, 0.5, 0.01), 0),   # nu1^2 underflows to 0
        (ConfParams(0.1, 1e308, 0.01, 500), SMOOTH, 0),  # log term is inf
        (ConfParams(1e-200, 1e308, 0.01, 500), SMOOTH, 0),  # 0 * inf
    ])
    def test_overflow_saturates_beyond_any_budget(self, conf, smooth, h):
        t = tau(h, conf, smooth)
        assert t == TAU_SATURATED
        # unreachable in stage one (per-client share) and in a personal top-up
        assert quota(t, 1000) > 10 ** 300

    def test_saturation_sits_above_finite_thresholds(self):
        smooth = SmoothParams(1.0, 1e-100, 0.01)
        finite = tau(1, CONF, smooth)
        assert finite < TAU_SATURATED == tau(2, CONF, smooth)


class TestQuota:
    def test_examples(self):
        assert quota(142, 10) == 15
        assert quota(1, 10) == 1
        assert quota(142, 1) == 142

    def test_covers_threshold(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            t = int(rng.integers(1, 10_000))
            m = int(rng.integers(1, 64))
            q = quota(t, m)
            assert q * m >= t
            assert (q - 1) * m < t


class TestTransitionDepth:
    def test_defaults_give_seven(self):
        assert transition_depth(SmoothParams(1.0, 0.5, 0.01)) == 7
        assert 0.5 ** 7 <= 0.01 < 0.5 ** 6

    def test_large_gap_gives_zero(self):
        assert transition_depth(SmoothParams(1.0, 0.5, 1.0)) == 0
        assert transition_depth(SmoothParams(0.3, 0.5, 0.5)) == 0

    def test_boundary_value(self):
        assert transition_depth(SmoothParams(1.0, 0.5, 0.5)) == 1

    def test_is_smallest_satisfying_depth(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            smooth = SmoothParams(rng.uniform(0.2, 2.0), rng.uniform(0.3, 0.9),
                                  rng.uniform(0.001, 1.0))
            h = transition_depth(smooth)
            assert smooth.nu1 * smooth.rho ** h <= smooth.delta_gap
            if h > 0:
                assert smooth.nu1 * smooth.rho ** (h - 1) > smooth.delta_gap

    def test_huge_ratio_does_not_overflow(self):
        # nu1 / delta_gap is infinite here; the depth is still the smallest satisfying one
        smooth = SmoothParams(1e308, 0.5, 0.01)
        h = transition_depth(smooth)
        assert smooth.nu1 * smooth.rho ** h <= smooth.delta_gap
        assert smooth.nu1 * smooth.rho ** (h - 1) > smooth.delta_gap


class TestMergeGlobal:
    def test_two_client_average(self):
        reports = [
            ClientReport(1, 2, {NodeId(2, 1): (0.3, 5)}),
            ClientReport(2, 2, {NodeId(2, 1): (0.5, 5)}),
        ]
        merged = merge_global(reports, CONF)
        assert merged[NodeId(2, 1)].mean == pytest.approx(0.4, abs=1e-15)
        assert merged[NodeId(2, 1)].pulls == 10

    def test_single_client_identity(self):
        reports = [ClientReport(1, 0, {NodeId(0, 1): (0.123, 3)})]
        merged = merge_global(reports, CONF)
        assert merged[NodeId(0, 1)].mean == 0.123
        assert merged[NodeId(0, 1)].bound == confidence_bound(3, CONF)

    def test_symmetric_three_clients(self):
        reports = [
            ClientReport(m, 1, {NodeId(1, 1): (mean, 5)})
            for m, mean in zip((1, 2, 3), (0.2, 0.4, 0.6))
        ]
        merged = merge_global(reports, CONF)
        assert merged[NodeId(1, 1)].mean == pytest.approx(0.4, abs=1e-15)
        assert merged[NodeId(1, 1)].pulls == 15

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(10)
        nodes = [NodeId(3, i) for i in range(1, 9)]
        reports = [
            ClientReport(m, 3, {n: (float(rng.random()), int(rng.integers(1, 50))) for n in nodes})
            for m in range(1, 7)
        ]
        forward = merge_global(reports, CONF)
        backward = merge_global(list(reversed(reports)), CONF)
        for n in nodes:
            assert forward[n].mean == backward[n].mean
            assert forward[n].pulls == backward[n].pulls
            assert forward[n].bound == backward[n].bound

    def test_brute_force_recompute(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m_count = int(rng.integers(1, 9))
            nodes = [NodeId(2, int(i)) for i in rng.choice(4, size=rng.integers(1, 4) + 1, replace=False) + 1]
            reports = [
                ClientReport(m, 2, {n: (float(rng.random()), int(rng.integers(1, 40))) for n in nodes})
                for m in range(1, m_count + 1)
            ]
            merged = merge_global(reports, CONF)
            for n in nodes:
                mean_sum = 0.0
                pulls = 0
                for r in sorted(reports, key=lambda r: r.client):
                    mean_sum += r.entries[n][0]
                    pulls += r.entries[n][1]
                assert merged[n].mean == pytest.approx(mean_sum / m_count, rel=1e-15)
                assert merged[n].pulls == pulls
                assert merged[n].bound == confidence_bound(pulls, CONF)

    def test_mismatched_keys_fault(self):
        reports = [
            ClientReport(1, 1, {NodeId(1, 1): (0.5, 5)}),
            ClientReport(2, 1, {NodeId(1, 2): (0.5, 5)}),
        ]
        with pytest.raises(ProtocolFault):
            merge_global(reports, CONF)

    def test_empty_fault(self):
        with pytest.raises(ProtocolFault):
            merge_global([], CONF)


class TestSelectBest:
    def test_plain_maximum(self):
        m = {NodeId(2, 1): stats(0.4, 0.1), NodeId(2, 3): stats(0.7, 0.1)}
        assert select_best(m) == NodeId(2, 3)

    def test_tie_breaks_to_smaller_index(self):
        m = {NodeId(2, 2): stats(0.5, 0.1), NodeId(2, 1): stats(0.5, 0.1)}
        assert select_best(m) == NodeId(2, 1)

    def test_singleton(self):
        m = {NodeId(4, 9): stats(0.1, 0.2)}
        assert select_best(m) == NodeId(4, 9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best({})


class TestEliminate:
    def test_depth_three_eliminates_weak_node(self):
        # 0.5 + 0.05 + 0.125 = 0.675 < 0.85 = 0.9 - 0.05
        m = {NodeId(3, 1): stats(0.9, 0.05), NodeId(3, 2): stats(0.5, 0.05)}
        out = eliminate(m, set(m), NodeId(3, 1), 3, SMOOTH)
        assert out == {NodeId(3, 2)}

    def test_depth_one_keeps_same_node(self):
        # 0.5 + 0.05 + 0.5 = 1.05 >= 0.85
        m = {NodeId(1, 1): stats(0.9, 0.05), NodeId(1, 2): stats(0.5, 0.05)}
        out = eliminate(m, set(m), NodeId(1, 1), 1, SMOOTH)
        assert out == set()

    def test_best_alone_never_eliminated(self):
        m = {NodeId(5, 3): stats(0.2, 0.0)}
        assert eliminate(m, {NodeId(5, 3)}, NodeId(5, 3), 5, SMOOTH) == set()

    def test_best_survives_among_candidates(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            nodes = [NodeId(4, int(i) + 1) for i in range(8)]
            m = {n: stats(float(rng.random()), float(rng.random() * 0.2)) for n in nodes}
            best = select_best(m)
            out = eliminate(m, set(nodes), best, int(rng.integers(0, 12)), SMOOTH)
            assert best not in out

    def test_monotone_in_depth(self):
        # shrinking slack can only eliminate more
        rng = np.random.default_rng(13)
        for _ in range(100):
            nodes = [NodeId(6, int(i) + 1) for i in range(10)]
            m = {n: stats(float(rng.random()), float(rng.random() * 0.3)) for n in nodes}
            best = select_best(m)
            previous = set()
            for h in range(0, 14):
                out = eliminate(m, set(nodes), best, h, SMOOTH)
                assert previous <= out
                previous = out

    def test_unknown_candidate_rejected(self):
        m = {NodeId(1, 1): stats(0.9, 0.05)}
        with pytest.raises(ValueError):
            eliminate(m, {NodeId(1, 2)}, NodeId(1, 1), 1, SMOOTH)


class TestParamValidation:
    def test_local_stats_need_one_pull(self):
        # clients never hold zero-pull statistics, so nothing downstream filters them
        with pytest.raises(ValueError):
            NodeStats.from_counts(0, 0.0, CONF)
        assert NodeStats.from_counts(1, 0.5, CONF).mean == 0.5

    def test_conf_log_floor(self):
        with pytest.raises(ValueError):
            ConfParams(c=0.1, c1=1.0, delta=0.9, horizon_T=2)  # c1*T/delta < e
        ConfParams(c=0.1, c1=1.0, delta=0.9, horizon_T=3)

    def test_conf_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            ConfParams(c=0.1, c1=1.0, delta=0.0, horizon_T=100)
        with pytest.raises(ValueError):
            ConfParams(c=0.1, c1=1.0, delta=1.0, horizon_T=100)

    def test_smooth_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            SmoothParams(1.0, 1.0, 0.01)
        with pytest.raises(ValueError):
            SmoothParams(1.0, 0.0, 0.01)

    def test_smooth_rejects_bad_gap(self):
        with pytest.raises(ValueError):
            SmoothParams(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            SmoothParams(1.0, 0.5, 1.5)


class TestCanonicalText:
    def test_broadcast_format_and_key_check(self):
        ServerBroadcast(1, (NodeId(1, 2),), {NodeId(1, 2): (0.5, 0.125)})  # keyed by survivors
        with pytest.raises(ProtocolFault):
            ServerBroadcast(1, (NodeId(1, 2),), {NodeId(1, 1): (0.5, 0.125)})
