"""Objective normalization, suites, the optimum oracle, and profiling."""
import functools
import itertools
import math

import numpy as np
import pytest

from fedelim import objectives
from fedelim.objectives import (
    OBJECTIVE_NAMES,
    BaseObjective,
    NoiseModel,
    ObjectiveSuite,
    OptimumCertificate,
    ORIENT_VALUE,
    OracleFailure,
    make_base,
    make_suite,
    near_optimality_profile,
    oracle_optimum,
    profile_ladder,
)
from fedelim.partition import BoxDomain


def ramp_base():
    """Linear reward surface on [0, 1]; exact optimum 1 at x = 1."""
    return BaseObjective(
        name="ramp",
        domain=BoxDomain([0.0], [1.0]),
        normalization_max=1.0,
        orientation=ORIENT_VALUE,
        raw_fn=lambda X: X[:, 0],
        known_optimum=np.array([1.0]),
    )


class TestBaseValues:
    def test_garland_vanishes_at_zero(self):
        garland = make_base("garland")
        assert garland.evaluate([0.0]) == 0.0

    def test_garland_normalization_matches_analytic_peak(self):
        # the raw peak sits exactly on a cusp at pi/6 with value 4x(1-x)
        garland = make_base("garland")
        analytic = 4.0 * (math.pi / 6) * (1 - math.pi / 6)
        assert garland.normalization_max == pytest.approx(analytic, abs=5e-8)
        assert abs(garland.known_optimum[0] - math.pi / 6) < 1e-8

    def test_himmelblau_unit_at_root(self):
        himmelblau = make_base("himmelblau")
        assert himmelblau.evaluate([3.0, 2.0]) == 1.0

    def test_himmelblau_raw_maximum_is_890_at_corner(self):
        # independent coarse grid over [-5,5]^2 confirms the corner maximum
        xs = np.linspace(-5.0, 5.0, 501)
        mx, my = np.meshgrid(xs, xs, indexing="ij")
        raw = (mx ** 2 + my - 11.0) ** 2 + (mx + my ** 2 - 7.0) ** 2
        k = np.unravel_index(np.argmax(raw), raw.shape)
        assert (xs[k[0]], xs[k[1]]) == (5.0, 5.0)
        assert raw[k] == 890.0
        himmelblau = make_base("himmelblau")
        assert himmelblau.normalization_max == 890.0
        assert himmelblau.evaluate([5.0, 5.0]) == 0.0

    def test_rastrigin_unit_at_origin(self):
        rastrigin = make_base("rastrigin")
        assert rastrigin.evaluate(np.zeros(10)) == 1.0

    def test_rastrigin_normalization_is_separable_sum(self):
        # per-dimension brute force: max of x^2 - 10 cos(2 pi x) on [-1, 1]
        xs = np.linspace(-1.0, 1.0, 2_000_001)
        per_dim = np.max(xs ** 2 - 10.0 * np.cos(2.0 * math.pi * xs))
        rastrigin = make_base("rastrigin")
        assert rastrigin.normalization_max == pytest.approx(100.0 + 10 * per_dim, abs=1e-6)

    def test_doublesine_normalization_against_fine_grid(self):
        xs = np.linspace(0.0, 1.0, 2_000_001)
        raw = 0.5 * (np.sin(13.0 * xs) * np.sin(27.0 * xs) + 1.0)
        doublesine = make_base("doublesine")
        assert doublesine.normalization_max == pytest.approx(float(raw.max()), abs=1e-9)

    def test_out_of_domain_rejected(self):
        garland = make_base("garland")
        with pytest.raises(ValueError):
            garland.evaluate([1.5])

    def test_range_on_random_clouds(self):
        rng = np.random.default_rng(21)
        for name in ("garland", "doublesine", "himmelblau", "rastrigin", "ackley"):
            base = make_base(name)
            cloud = rng.uniform(base.domain.lower, base.domain.upper,
                                size=(100_000, base.domain.dim))
            values = base.evaluate_batch(cloud)
            assert values.min() >= 0.0
            assert values.max() <= 1.0 + 1e-12

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_base("sphere")

    def test_rigid_dimension_enforced(self):
        with pytest.raises(ValueError):
            make_base("himmelblau", BoxDomain([0.0], [1.0]))


class TestSuite:
    def test_zero_shift_degeneracy(self):
        suite = make_suite(make_base("garland"), clients=3, shift_std=0.0,
                           noise_halfwidth=0.0, seed=5)
        assert np.all(suite.shifts == 0.0)
        x = 0.37
        base_value = suite.base.evaluate([x])
        for m in (1, 2, 3):
            assert suite.eval_local(m, [x]) == base_value
            assert suite.local_star(m) == pytest.approx(1.0, abs=1e-9)

    def test_zero_shift_collapses_value_gap(self):
        suite = make_suite(make_base("doublesine"), clients=4, shift_std=0.0,
                           noise_halfwidth=0.1, seed=2)
        for m in range(1, 5):
            assert abs(suite.global_optimum.value - suite.local_star(m)) <= 1e-12

    def test_single_client_average_is_identity(self):
        suite = make_suite(make_base("garland"), clients=1, shift_std=0.05,
                           noise_halfwidth=0.0, seed=3)
        rng = np.random.default_rng(4)
        for x in rng.uniform(0, 1, size=10):
            assert suite.eval_global_batch([[x]])[0] == suite.eval_local(1, [x])

    def test_distinct_shifts_and_unit_optima(self):
        suite = make_suite(make_base("garland"), clients=2, shift_std=0.05,
                           noise_halfwidth=0.0, seed=7)
        assert suite.shifts[0, 0] != suite.shifts[1, 0]
        for m, cert in enumerate(suite.local_optima, start=1):
            shifted = suite.base.known_optimum + suite.shifts[m - 1]
            if suite.domain.contains(shifted):
                assert cert.value == pytest.approx(1.0, abs=1e-6)

    def test_shift_consistency_of_argmax(self):
        suite = make_suite(make_base("garland"), clients=5, shift_std=0.03,
                           noise_halfwidth=0.0, seed=11)
        for m in range(1, 6):
            shifted = suite.base.known_optimum + suite.shifts[m - 1]
            if suite.domain.contains(shifted):
                assert abs(suite.local_optima[m - 1].x[0] - shifted[0]) < 1e-6

    def test_eval_local_shift_semantics(self):
        suite = make_suite(make_base("garland"), clients=1, shift_std=0.0,
                           noise_halfwidth=0.0, seed=0)
        suite.shifts[0, 0] = 0.1
        assert suite.eval_local(1, [0.3]) == suite.base.evaluate([0.3 - 0.1])
        suite.shifts[0, 0] = 0.5
        assert suite.eval_local(1, [0.2]) == suite.base.evaluate([0.0])  # clipped

    def test_global_is_exact_client_mean(self):
        suite = make_suite(make_base("himmelblau"), clients=4, shift_std=0.3,
                           noise_halfwidth=0.0, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = rng.uniform(-5, 5, size=2)
            acc = 0.0
            for m in range(1, 5):
                acc += suite.eval_local(m, x)
            assert suite.eval_global_batch(x[None, :])[0] == acc / 4

    @pytest.mark.parametrize("name", OBJECTIVE_NAMES)
    def test_client_values_match_the_batch_path_bit_for_bit(self, name):
        # The protocol's cell table holds eval_clients rows; each entry must
        # round exactly as one-row evaluation does, clipped shifts and
        # rastrigin's 10-term row sum included.
        base = make_base(name)
        domain = base.domain
        rng = np.random.default_rng(13)
        shifts = rng.uniform(-0.2, 0.2, size=(5, domain.dim)) * domain.widths
        suite = ObjectiveSuite(base, shifts, NoiseModel(0.0), seed=0)
        clipped = 0
        for x in rng.uniform(domain.lower, domain.upper, size=(40, domain.dim)):
            values = suite.eval_clients(x)
            for m in range(1, 6):
                assert values[m - 1] == suite.eval_local_batch(m, x[None])[0]
                assert suite.eval_local(m, x) == values[m - 1]
                clipped += not domain.contains(x - shifts[m - 1])
        assert clipped > 0

    def test_bad_client_index_rejected(self):
        suite = make_suite(ramp_base(), clients=2, shift_std=0.0,
                           noise_halfwidth=0.0, seed=1)
        with pytest.raises(ValueError):
            suite.eval_local(0, [0.5])
        with pytest.raises(ValueError):
            suite.eval_local(3, [0.5])

    def test_constructor_certifies_on_its_own_evaluators(self):
        # client 1's shifted optimum leaves the domain and falls back to the
        # grid; client 2's translates
        suite = ObjectiveSuite(ramp_base(), np.array([[0.1], [-0.2]]), NoiseModel(0.0), seed=0)
        first, second = suite.local_optima
        assert first.method == "grid-zoom" and second.method == "shift-translation"
        for m, cert in enumerate(suite.local_optima, start=1):
            assert cert.value == suite.eval_local(m, cert.x)
        assert first.value == pytest.approx(0.9, abs=1e-12)
        assert second.value == 1.0
        glob = suite.global_optimum
        assert isinstance(glob, OptimumCertificate) and glob.method == "grid-zoom"
        assert glob.value == suite.eval_global_batch(glob.x[None, :])[0]

    def test_constructor_rejects_bad_shifts(self):
        with pytest.raises(ValueError):
            ObjectiveSuite(ramp_base(), np.zeros((0, 1)), NoiseModel(0.0), 0)
        with pytest.raises(ValueError):
            ObjectiveSuite(ramp_base(), np.zeros((2, 2)), NoiseModel(0.0), 0)

    def test_out_of_domain_point_rejected(self):
        suite = make_suite(ramp_base(), clients=2, shift_std=0.0,
                           noise_halfwidth=0.0, seed=1)
        with pytest.raises(ValueError):
            suite.eval_local(1, [1.5])
        with pytest.raises(ValueError):
            suite.eval_clients([1.5])


class TestSampling:
    def test_noiseless_sampling_is_exact(self):
        suite = make_suite(ramp_base(), clients=1, shift_std=0.0,
                           noise_halfwidth=0.0, seed=1)
        rng = np.random.default_rng(0)
        reward = suite.eval_local(1, [0.25]) + suite.noise.draw(rng, 1)[0]
        assert reward == suite.eval_local(1, [0.25])

    def test_rewards_stay_in_noise_band(self):
        suite = make_suite(ramp_base(), clients=1, shift_std=0.0,
                           noise_halfwidth=0.2, seed=1)
        rng = np.random.default_rng(1)
        value = suite.eval_local(1, [0.6])
        rewards = value + suite.noise.draw(rng, 1000)
        assert np.all(rewards >= value - 0.2)
        assert np.all(rewards <= value + 0.2)

    def test_empirical_mean_calibration(self):
        # standard error of a uniform[-s, s] mean is s / sqrt(3 n)
        suite = make_suite(ramp_base(), clients=1, shift_std=0.0,
                           noise_halfwidth=0.1, seed=1)
        rng = np.random.default_rng(2)
        n = 100_000
        value = suite.eval_local(1, [0.3])
        rewards = value + suite.noise.draw(rng, n)
        tolerance = 3 * 0.1 / math.sqrt(3 * n)
        assert abs(rewards.mean() - value) < tolerance

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(halfwidth=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(halfwidth=1e308)  # the draw's range, 2 * halfwidth, overflows


class TestOracle:
    def test_constant_function(self):
        res = oracle_optimum(lambda X: np.full(len(X), 0.5), BoxDomain([0.0], [1.0]))
        assert isinstance(res, OptimumCertificate)
        assert res.value == 0.5
        assert res.method == "grid-zoom" and res.probes > 4096 and res.rounds > 0

    def test_ramp_boundary_maximum(self):
        res = oracle_optimum(lambda X: X[:, 0], BoxDomain([0.0], [1.0]))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_peak_two_dim(self):
        fn = lambda X: 1.0 - (X[:, 0] - 0.3) ** 2 - (X[:, 1] + 0.4) ** 2
        res = oracle_optimum(fn, BoxDomain([-1.0, -1.0], [1.0, 1.0]))
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.x == pytest.approx(np.array([0.3, -0.4]), abs=1e-5)

    def test_near_tied_peaks_resolved(self):
        # second peak is 1e-3 lower; candidate zoom must not lock onto it
        fn = lambda X: np.maximum(1.0 - 80.0 * np.abs(X[:, 0] - 0.2),
                                  0.999 - 0.1 * np.abs(X[:, 0] - 0.8))
        res = oracle_optimum(fn, BoxDomain([0.0], [1.0]))
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.x[0] == pytest.approx(0.2, abs=1e-6)

    def test_high_dim_separable(self):
        fn = lambda X: 1.0 - ((X - 0.25) ** 2).sum(axis=1)
        res = oracle_optimum(fn, BoxDomain([0.0] * 4, [1.0] * 4),
                             rng=np.random.default_rng(3))
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.method == "random-zoom"

    def test_shifted_rastrigin_translation_certificate(self):
        base = make_base("rastrigin")
        suite = make_suite(base, clients=2, shift_std=0.05, noise_halfwidth=0.0, seed=13)
        for m in (1, 2):
            cert = suite.local_optima[m - 1]
            assert cert.method == "shift-translation"
            assert cert.value == 1.0
            assert np.array_equal(cert.x, suite.shifts[m - 1])

    @pytest.mark.parametrize("name", OBJECTIVE_NAMES)
    def test_local_certificates_dominate_translated_optimum(self, name):
        # f_m(x* + s_m) is a probe every certificate must dominate, whichever
        # path produced it; on ackley the base's own value at the origin is
        # one ulp below 1, and the shortcut must still take it.
        base = make_base(name)
        suite = make_suite(base, clients=3, shift_std=0.05 * float(base.domain.widths[0]),
                           noise_halfwidth=0.0, seed=1)
        translated = 0
        for m, cert in enumerate(suite.local_optima, start=1):
            image = base.known_optimum + suite.shifts[m - 1]
            if suite.domain.contains(image):
                translated += 1
                assert cert.value >= suite.eval_local(m, image)
            if name == "ackley":
                assert cert.method == "shift-translation"
        assert translated >= 1

    def test_unconverged_budget_reports_failure(self, monkeypatch):
        monkeypatch.setattr(objectives, "ORACLE_GRID_POINTS", 64)
        monkeypatch.setattr(objectives, "ORACLE_ZOOM_ROUNDS", 1)
        monkeypatch.setattr(objectives, "ORACLE_MAX_ZOOM_ROUNDS", 1)
        with pytest.raises(OracleFailure):
            oracle_optimum(lambda X: X[:, 0], BoxDomain([0.0], [1.0]))


def two_dim_bases():
    """The objectives with a Lipschitz bound, on 2-D boxes; rastrigin's is asymmetric."""
    return [make_base("himmelblau"), make_base("ackley"),
            make_base("rastrigin", BoxDomain([-2.0, -1.0], [1.0, 3.0]))]


def counting(fn):
    """``fn`` and a one-element list that accumulates the rows it evaluates."""
    rows = [0]

    def counted(X):
        rows[0] += len(X)
        return fn(X)

    return counted, rows


class TestLipschitz:
    @staticmethod
    def assert_lipschitz(fn, domain, lipschitz, rng):
        lo, hi = domain.lower, domain.upper
        x = rng.uniform(lo, hi, size=(20_000, 2))
        y = rng.uniform(lo, hi, size=(20_000, 2))
        # short steps along the gradient, where the bound is tightest, from
        # every corner and from random points
        starts = np.concatenate([np.array(list(itertools.product(*zip(lo, hi)))),
                                 rng.uniform(lo, hi, size=(2_000, 2))])
        h = 1e-7 * domain.widths
        grad = np.empty_like(starts)
        for j, e in enumerate(np.eye(2)):
            up, down = domain.clip(starts + h * e), domain.clip(starts - h * e)
            grad[:, j] = (fn(up) - fn(down)) / (up[:, j] - down[:, j])
        unit = grad / np.maximum(np.linalg.norm(grad, axis=1), 1e-300)[:, None]
        step = 1e-5 * float(np.linalg.norm(domain.widths))
        for sign in (1.0, -1.0):
            x = np.concatenate([x, starts])
            y = np.concatenate([y, domain.clip(starts + sign * step * unit)])
        dist = np.linalg.norm(x - y, axis=1)
        assert np.all(np.abs(fn(x) - fn(y)) <= lipschitz * dist * (1 + 1e-9))

    @pytest.mark.parametrize("index", range(3), ids=["himmelblau", "ackley", "rastrigin-2d"])
    def test_bounds_are_sound(self, index):
        base = two_dim_bases()[index]
        rng = np.random.default_rng(31 + index)
        self.assert_lipschitz(base.raw_fn, base.domain, base.lipschitz, rng)
        # shifts up to a third of the width, so that clipping bites
        shifts = rng.uniform(-1 / 3, 1 / 3, size=(3, 2)) * base.domain.widths
        suite = ObjectiveSuite(base, shifts, NoiseModel(0.0), seed=0)
        for m in (1, 2, 3):
            self.assert_lipschitz(functools.partial(suite.eval_local_batch, m), base.domain,
                                  base.value_lipschitz, rng)
        self.assert_lipschitz(suite.eval_global_batch, base.domain, base.value_lipschitz, rng)

    def test_one_dimensional_objectives_have_no_bound(self):
        assert make_base("garland").lipschitz is None
        assert make_base("doublesine").value_lipschitz is None


class TestPrunedScreen:
    @pytest.mark.parametrize("case", ["himmelblau", "ackley", "himmelblau-global"])
    def test_pruning_keeps_the_certificate(self, case):
        if case == "himmelblau-global":
            base = make_base("himmelblau")
            suite = make_suite(base, clients=3, shift_std=0.5, noise_halfwidth=0.0, seed=0)
            fn, lipschitz = suite.eval_global_batch, base.value_lipschitz
        else:
            base = make_base(case)
            fn, lipschitz = base.raw_fn, base.lipschitz
        pruned_fn, pruned_rows = counting(fn)
        full_fn, full_rows = counting(fn)
        pruned = oracle_optimum(pruned_fn, base.domain, lipschitz=lipschitz)
        full = oracle_optimum(full_fn, base.domain)
        assert pruned.value == full.value
        if case == "ackley":
            # eight symmetric raw maxima at (+-1, +-0.5588) and (+-0.5588, +-1)
            # tie exactly; the screens may pick different ones
            assert sorted(np.abs(pruned.x)) == sorted(np.abs(full.x))
        else:
            assert np.array_equal(pruned.x, full.x)
        assert full.gap is None and pruned.gap >= 0.0
        assert pruned_rows[0] < full_rows[0] / 10

    @pytest.mark.parametrize("index", range(3), ids=["himmelblau", "ackley", "rastrigin-2d"])
    def test_gap_bounds_every_point(self, index):
        base = two_dim_bases()[index]
        cert = oracle_optimum(base.raw_fn, base.domain, lipschitz=base.lipschitz)
        cloud = np.random.default_rng(41).uniform(base.domain.lower, base.domain.upper,
                                                   size=(100_000, 2))
        assert 0.0 <= cert.gap and np.max(base.raw_fn(cloud)) <= cert.value + cert.gap

    @pytest.mark.parametrize("lipschitz", [math.nan, math.inf])
    def test_non_finite_bound_keeps_every_tile(self, monkeypatch, lipschitz):
        monkeypatch.setattr(objectives, "ORACLE_GRID_POINTS", 256)
        fn = lambda X: 1.0 - (X[:, 0] - 0.3) ** 2 - (X[:, 1] + 0.4) ** 2
        domain = BoxDomain([-1.0, -1.0], [1.0, 1.0])
        counted, rows = counting(fn)
        res = oracle_optimum(counted, domain, lipschitz=lipschitz)
        ref = oracle_optimum(fn, domain)
        assert res.value == ref.value and np.array_equal(res.x, ref.x)
        assert res.probes == ref.probes and not math.isfinite(res.gap)
        # every representative, then every grid point, then the zoom
        assert rows[0] == (256 // objectives.ORACLE_TILE_POINTS) ** 2 + ref.probes


class TestProfile:
    def test_constant_counts_every_cell(self):
        fn = lambda X: np.full(len(X), 0.5)
        domain = BoxDomain([0.0], [1.0])
        assert near_optimality_profile(fn, domain, 0.5, eps=0.01, grid_step=2 ** -5) == 32

    def test_huge_eps_counts_every_cell(self):
        base = make_base("garland")
        count = near_optimality_profile(base.evaluate_batch, base.domain, 1.0,
                                        eps=1.0, grid_step=2 ** -6)
        assert count == 64

    def test_garland_counts_match_direct_enumeration(self):
        base = make_base("garland")
        for step in (2 ** -4, 2 ** -10):
            cells = int(round(1.0 / step))
            expected = 0
            for i in range(cells):
                center = (i + 0.5) * step
                if base.evaluate([center]) >= 1.0 - 0.1:
                    expected += 1
            got = near_optimality_profile(base.evaluate_batch, base.domain, 1.0,
                                          eps=0.1, grid_step=step)
            assert got == expected

    def test_monotone_in_eps(self):
        base = make_base("doublesine")
        counts = [
            near_optimality_profile(base.evaluate_batch, base.domain, 1.0, eps, 2 ** -8)
            for eps in (0.05, 0.1, 0.2, 0.5, 1.0)
        ]
        assert counts == sorted(counts)

    def test_ladder_top_rung_counts_all(self):
        base = make_base("garland")
        rows = profile_ladder(base.evaluate_batch, base.domain, 1.0, nu1=1.0, rho=0.5)
        h0, eps0, step0, count0 = rows[0]
        assert (h0, eps0, step0) == (0, 6.0, 1.0)
        assert count0 == 1  # a single cell covers the whole domain

    def test_invalid_parameters_rejected(self):
        base = make_base("garland")
        with pytest.raises(ValueError):
            near_optimality_profile(base.evaluate_batch, base.domain, 1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            near_optimality_profile(base.evaluate_batch, base.domain, 1.0, 0.1, -1.0)
