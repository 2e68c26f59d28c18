"""Confidence bounds, thresholds, merge, argmax and elimination rules."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedelim
from fedelim.fedcore import (
    TAU_SATURATED,
    ClientReport,
    ConfParams,
    ProtocolFault,
    SmoothParams,
    confidence_bound,
    eliminate,
    merge_global,
    quota,
    select_best,
    tau,
    transition_depth,
)

CONF = ConfParams(c=0.1, c1=1.0, delta=0.01, horizon_T=10_000)
SMOOTH = SmoothParams(nu1=1.0, rho=0.5, delta_gap=0.01)


def report(client, depth, means, pulls):
    """A report of ``means`` and ``pulls``, one of each per active cell."""
    return ClientReport(client, depth, np.array(means, dtype=float), np.array(pulls, dtype=np.int64))


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

    def test_log_term_is_computed_once(self, monkeypatch):
        conf = ConfParams(c=0.1, c1=1.0, delta=0.01, horizon_T=10_000)
        calls = []
        log = math.log
        monkeypatch.setattr(math, "log", lambda x: calls.append(x) or log(x))
        bounds = [confidence_bound(n, conf) for n in (1, 2, 3)]
        assert calls == [1.0 * 10_000 / 0.01]
        assert bounds == [confidence_bound(n, CONF) for n in (1, 2, 3)]
        assert conf == CONF and hash(conf) == hash(CONF)

    def test_zero_pulls_have_no_finite_bound(self):
        with pytest.raises(ZeroDivisionError):
            confidence_bound(0, CONF)
        with np.errstate(divide="ignore"):
            assert confidence_bound(np.array([0, 1]), CONF)[0] == math.inf

    def test_an_array_of_counts_bounds_each_count(self):
        counts = np.arange(1, 2000, dtype=np.int64)
        assert confidence_bound(counts, CONF).tolist() == [
            CONF.c * math.sqrt(CONF.log_term / n) for n in counts.tolist()]


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
    ])
    def test_overflow_saturates_beyond_any_budget(self, conf, smooth, h):
        t = tau(h, conf, smooth)
        assert t == TAU_SATURATED
        # unreachable in stage one (per-client share) and in a personal top-up
        assert quota(t, 1000) > 10 ** 300

    @pytest.mark.parametrize("conf, expected", [
        (ConfParams(0.1, 1e308, 0.01, 500), 8),      # ceil(0.01 * 720.016)
        (ConfParams(1e-200, 1e308, 0.01, 500), 1),   # c^2 underflows to 0
    ])
    def test_overflowing_log_ratio_gives_a_finite_threshold(self, conf, expected):
        # c1 * T / delta overflows, but its log does not
        assert conf.c1 * conf.horizon_T / conf.delta == math.inf
        assert conf.log_term == math.log(1e308) + math.log(500) - math.log(0.01)
        assert conf.log_term == pytest.approx(720.016, abs=1e-3)
        assert tau(0, conf, SMOOTH) == expected

    @pytest.mark.parametrize("nu1", [1e154, 1e155, 1e200, 1e308])
    def test_huge_nu1_gives_threshold_one(self, nu1):
        # nu1^2 overflows from about 1.34e154 on; the threshold itself is tiny
        smooth = SmoothParams(nu1, 0.5, 0.01)
        assert [tau(h, CONF, smooth) for h in range(6)] == [1] * 6

    def test_product_overflowing_on_the_way_is_not_saturated(self):
        # c^2 * log term is inf without an exception; dividing by nu1^2 = c^2 undoes it
        huge = ConfParams(1e154, 1.0, 0.01, 10_000), SmoothParams(1e154, 0.5, 0.01)
        unit = ConfParams(1.0, 1.0, 0.01, 10_000), SmoothParams(1.0, 0.5, 0.01)
        assert [tau(h, *huge) for h in range(6)] == [tau(h, *unit) for h in range(6)]

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

    @pytest.mark.parametrize("tau_h, clients", [(0, 3), (5, 0)])
    def test_nonpositive_arguments_rejected(self, tau_h, clients):
        with pytest.raises(ValueError, match="must be positive"):
            quota(tau_h, clients)


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

    def test_rho_just_below_one_returns_at_once(self):
        # 1 / rho rounds to 1 + 2**-52 here, which once halved the closed form's
        # estimate and left the loops about 2e16 steps; a child process with a
        # timeout turns a regression into a failure instead of a stall
        code = (
            "from fedelim.fedcore import SmoothParams, transition_depth\n"
            "for rho in (1 - 1e-12, 1 - 1e-13, 0.9999999999999999):\n"
            "    smooth = SmoothParams(1.0, rho, 0.01)\n"
            "    h = transition_depth(smooth)\n"
            "    assert smooth.nu1 * rho ** h <= smooth.delta_gap < smooth.nu1 * rho ** (h - 1), rho\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fedelim.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, timeout=20)
        assert result.returncode == 0, result.stderr

    def test_underflowing_product_returns_at_once(self):
        # rho**h underflows to zero long before nu1 * rho**h reaches delta_gap,
        # so the product once decided every depth near the estimate and a
        # downward walk took about 6e18 steps; a config with these values hung
        # while it was built.  The depth is decided in log space, and matches
        # the real-valued boundary h = log(nu1 / delta) / -log(rho).  A run with
        # these values caps the schedule at depth_cap.
        code = (
            "import math, time\n"
            "from fedelim.fedcore import SmoothParams, _within_gap, transition_depth\n"
            "from fedelim.harness import ExperimentConfig, run\n"
            "start = time.perf_counter()\n"
            "smooth = SmoothParams(1e300, 0.9999999999999999, 1e-300)\n"
            "h = transition_depth(smooth)\n"
            "assert time.perf_counter() - start < 1.0\n"
            "assert _within_gap(smooth, h) and not _within_gap(smooth, h - 1), h\n"
            "assert smooth.rho ** h == 0.0\n"
            "assert abs(h - 600 * math.log(10) / 2 ** -53) < 1e-12 * h, h\n"
            "config = ExperimentConfig(nu1=1e300, rho=0.9999999999999999, delta_gap=1e-300,\n"
            "                          clients=1, horizon=8)\n"
            "assert run(config, 0).h0 == config.depth_cap\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fedelim.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, timeout=20)
        assert result.returncode == 0, result.stderr


class TestMergeGlobal:
    def test_two_client_average(self):
        reports = [report(1, 2, [0.3], [5]), report(2, 2, [0.5], [5])]
        means, pulls, _ = merge_global(reports, CONF)
        assert means[0] == pytest.approx(0.4, abs=1e-15)
        assert pulls.tolist() == [10]

    def test_single_client_identity(self):
        means, _, bounds = merge_global([report(1, 0, [0.123], [3])], CONF)
        assert means.tolist() == [0.123]
        assert bounds.tolist() == [confidence_bound(3, CONF)]

    def test_symmetric_three_clients(self):
        reports = [report(m, 1, [mean], [5]) for m, mean in zip((1, 2, 3), (0.2, 0.4, 0.6))]
        means, pulls, _ = merge_global(reports, CONF)
        assert means[0] == pytest.approx(0.4, abs=1e-15)
        assert pulls.tolist() == [15]

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(10)
        reports = [report(m, 3, rng.random(8), rng.integers(1, 50, size=8)) for m in range(1, 7)]
        forward = merge_global(reports, CONF)
        backward = merge_global(list(reversed(reports)), CONF)
        for got, want in zip(forward, backward):
            assert got.tolist() == want.tolist()

    def test_brute_force_recompute(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m_count = int(rng.integers(1, 9))
            cells = int(rng.integers(1, 5))
            reports = [report(m, 2, rng.random(cells), rng.integers(1, 40, size=cells))
                       for m in range(1, m_count + 1)]
            means, pulls, bounds = merge_global(reports, CONF)
            for k in range(cells):
                mean_sum = 0.0
                pooled = 0
                for r in sorted(reports, key=lambda r: r.client):
                    mean_sum += float(r.means[k])
                    pooled += int(r.pulls[k])
                assert means[k] == pytest.approx(mean_sum / m_count, rel=1e-15)
                assert pulls[k] == pooled
                assert bounds[k] == confidence_bound(pooled, CONF)

    @pytest.mark.parametrize("second", [([0.5, 0.5], [5, 5]), ([0.5], [5, 5])],
                             ids=["another-length", "means-and-pulls-differ"])
    def test_mismatched_lengths_fault(self, second):
        reports = [report(1, 1, [0.5], [5]), report(2, 1, *second)]
        with pytest.raises(ProtocolFault, match="report length mismatch"):
            merge_global(reports, CONF)

    def test_empty_fault(self):
        with pytest.raises(ProtocolFault):
            merge_global([], CONF)


class TestSelectBest:
    def test_plain_maximum(self):
        assert select_best(np.array([0.4, 0.7]), [2]) == [1]

    def test_tie_breaks_to_the_first(self):
        assert select_best(np.array([0.5, 0.5]), [2]) == [0]
        assert select_best(np.array([0.1, 0.0, -0.0]), [1, 2]) == [0, 1]

    def test_singleton(self):
        assert select_best(np.array([0.1]), [1]) == [0]

    def test_each_run_picks_its_own_best(self):
        means = np.array([0.3, 0.9, 0.9, 0.2, 0.8, 0.1])
        assert select_best(means, [3, 1, 2]) == [1, 3, 4]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best(np.array([]), [0])


def fallen(means, bounds, h, best=None, candidates=None):
    """``eliminate`` over one run of cells against ``best`` (by default its first largest mean)."""
    means, bounds = np.array(means, dtype=float), np.array(bounds, dtype=float)
    best = select_best(means, [len(means)]) if best is None else best
    return eliminate(means, bounds, best, [len(means)], SMOOTH.slack(h), candidates).tolist()


class TestEliminate:
    def test_depth_three_eliminates_weak_node(self):
        # 0.5 + 0.05 + 0.125 = 0.675 < 0.85 = 0.9 - 0.05
        assert fallen([0.9, 0.5], [0.05, 0.05], 3) == [1]

    def test_depth_one_keeps_same_node(self):
        # 0.5 + 0.05 + 0.5 = 1.05 >= 0.85
        assert fallen([0.9, 0.5], [0.05, 0.05], 1) == []

    def test_best_alone_never_eliminated(self):
        assert fallen([0.2], [0.0], 5) == []

    def test_best_survives_among_candidates(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            means, bounds = rng.random(8), rng.random(8) * 0.2
            best = select_best(means, [8])
            assert best[0] not in fallen(means, bounds, int(rng.integers(0, 12)), best)

    def test_monotone_in_depth(self):
        # shrinking slack can only eliminate more
        rng = np.random.default_rng(13)
        for _ in range(100):
            means, bounds = rng.random(10), rng.random(10) * 0.3
            previous = set()
            for h in range(0, 14):
                out = set(fallen(means, bounds, h))
                assert previous <= out
                previous = out

    def test_only_candidates_fall(self):
        means, bounds = [0.9, 0.1, 0.2, 0.3], [0.01] * 4
        assert fallen(means, bounds, 8) == [1, 2, 3]
        assert fallen(means, bounds, 8, candidates=np.array([True, False, True, False])) == [2]

    def test_each_run_falls_against_its_own_best(self):
        means = np.array([0.9, 0.1, 0.4, 0.38, 0.1])
        bounds = np.full(5, 0.01)
        # runs [0.9, 0.1] and [0.4, 0.38, 0.1]: 0.38 stands against 0.4, not against 0.9
        out = eliminate(means, bounds, [0, 2], [2, 3], SMOOTH.slack(8))
        assert out.tolist() == [1, 4]

    def test_candidate_mask_of_another_length_rejected(self):
        with pytest.raises(ValueError):
            fallen([0.9, 0.5], [0.05, 0.05], 3, candidates=np.array([True, True, True]))

    def test_best_outside_the_cells_rejected(self):
        with pytest.raises(IndexError):
            fallen([0.9, 0.5], [0.05, 0.05], 3, best=[2])


class TestParamValidation:
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
