"""Objective normalization, suites, the optimum oracle, and the cell census."""
import dataclasses
import itertools
import math
import sys

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
    near_optimal_census,
    oracle_optimum,
)
from fedelim.partition import BoxDomain, NodeId, PartitionSpec, cell, representative


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

    @pytest.mark.parametrize("domain, expected", [
        (None, 202.51272990990117),
        (BoxDomain([-2.0, -1.0], [1.0, 3.0]), 48.54330006231793),
    ])
    def test_rastrigin_normalization_bits_are_pinned(self, domain, expected):
        # every rastrigin value is 1 - raw / normalization_max, so its last
        # bit reaches every output; these are the recorded constants
        assert make_base("rastrigin", domain).normalization_max == expected

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

    def test_ackley_matches_its_dimension_general_form_bit_for_bit(self):
        def general(X):  # the d-dimensional form, averaged over axis 1
            quad = np.sqrt((X * X).mean(axis=1))
            cosm = np.cos(2.0 * math.pi * X).mean(axis=1)
            return -20.0 * np.exp(-0.2 * quad) - np.exp(cosm) + 20.0 + math.e

        # the screen's tile representatives on the default box, a random
        # cloud over a wider box, and the origin with its signed zeros
        n, t = objectives.ORACLE_GRID_POINTS, objectives.ORACLE_TILE_POINTS
        axis = np.linspace(-1.0, 1.0, n)[t // 2::t]
        reps = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=1)
        cloud = np.random.default_rng(17).uniform(-40.0, 40.0, size=(500_000, 2))
        zeros = np.array(list(itertools.product([0.0, -0.0], repeat=2)))
        for X in (reps, cloud, zeros):
            assert np.array_equal(objectives._ackley_raw(X).view(np.int64),
                                  general(X).view(np.int64))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_base("sphere")

    def test_rigid_dimension_enforced(self):
        with pytest.raises(ValueError):
            make_base("himmelblau", BoxDomain([0.0], [1.0]))
        with pytest.raises(ValueError):
            make_base("ackley", BoxDomain([-1.0] * 3, [1.0] * 3))


class TestSuite:
    def test_no_clients_rejected(self):
        with pytest.raises(ValueError, match="at least one client"):
            make_suite(ramp_base(), clients=0, shift_std=0.0, noise_halfwidth=0.0, seed=0)

    def test_zero_shift_degeneracy(self):
        suite = make_suite(make_base("garland"), clients=3, shift_std=0.0,
                           noise_halfwidth=0.0, seed=5)
        assert np.all(suite.shifts == 0.0)
        x = 0.37
        base_value = suite.base.evaluate([x])
        for m in (1, 2, 3):
            assert suite.eval_local(m, [x]) == base_value
            assert suite.local_optima[m - 1].value == pytest.approx(1.0, abs=1e-9)

    def test_zero_shift_collapses_value_gap(self):
        suite = make_suite(make_base("doublesine"), clients=4, shift_std=0.0,
                           noise_halfwidth=0.1, seed=2)
        for m in range(1, 5):
            assert abs(suite.global_optimum.value - suite.local_optima[m - 1].value) <= 1e-12

    def test_single_client_average_is_identity(self):
        suite = make_suite(make_base("garland"), clients=1, shift_std=0.05,
                           noise_halfwidth=0.0, seed=3)
        rng = np.random.default_rng(4)
        for x in rng.uniform(0, 1, size=10):
            assert suite.base.shifted_mean(suite.shifts)([[x]])[0] == suite.eval_local(1, [x])

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

    def test_a_copy_made_constant_by_its_shift_is_certified_at_one_probe(self, monkeypatch):
        # every row carries the whole box past a corner, so each copy and their
        # mean are constant; the grid scan once evaluated about 17 million rows
        base = make_base("himmelblau")
        rows = []
        evaluate = BaseObjective.evaluate_batch
        monkeypatch.setattr(BaseObjective, "evaluate_batch",
                            lambda obj, X: rows.append(len(X)) or evaluate(obj, X))
        suite = make_suite(base, clients=3, shift_std=1e308, noise_halfwidth=0.0, seed=0)
        certs = suite.local_optima + [suite.global_optimum]
        assert [cert.value for cert in certs] == [
            0.4044943820224719, 0.7191011235955056, 0.3146067415730337, 0.47940074906367042]
        assert all(cert.method == "constant" and cert.probes == 1 and cert.gap == 0.0
                   and cert.x.tolist() == [5.0, 5.0] for cert in certs)
        assert sum(rows) <= 8
        # a row that saturates one coordinate only leaves a copy that varies
        partly = ObjectiveSuite(base, np.array([[4e16, 0.3]]), NoiseModel(0.0))
        assert partly.local_optima[0].method == "grid-zoom"

    def test_the_base_optimum_is_evaluated_once(self, monkeypatch):
        # every client's translation test compares against the base's value at
        # its known optimum, one value for every client
        base = dataclasses.replace(make_base("garland"))  # a copy that has evaluated nothing
        rows = []
        evaluate = BaseObjective.evaluate_batch
        monkeypatch.setattr(BaseObjective, "evaluate_batch",
                            lambda obj, X: rows.append(len(X)) or evaluate(obj, X))
        suite = make_suite(base, clients=100, shift_std=0.05, noise_halfwidth=0.0, seed=0)
        assert all(cert.method == "shift-translation" for cert in suite.local_optima)
        assert rows == [1] * 101  # one probe per client, and the base's once
        assert base.known_value == float(evaluate(base, base.known_optimum[None, :])[0])

    def test_equal_scales_per_dimension_draw_the_scalar_shifts(self):
        base = make_base("himmelblau")
        scalar = make_suite(base, clients=4, shift_std=0.3, noise_halfwidth=0.0, seed=9)
        per_dim = make_suite(base, clients=4, shift_std=np.array([0.3, 0.3]),
                             noise_halfwidth=0.0, seed=9)
        assert scalar.shifts.tobytes() == per_dim.shifts.tobytes()
        assert not make_suite(base, 2, [0.0, 0.0], 0.0, 9).shifts.any()
        for bad in ([0.3, -0.1], [0.3, math.nan], [0.3, math.inf]):
            with pytest.raises(ValueError, match="shift_std"):
                make_suite(base, clients=2, shift_std=bad, noise_halfwidth=0.0, seed=9)

    def test_global_is_exact_client_mean(self):
        suite = make_suite(make_base("himmelblau"), clients=4, shift_std=0.3,
                           noise_halfwidth=0.0, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = rng.uniform(-5, 5, size=2)
            acc = 0.0
            for m in range(1, 5):
                acc += suite.eval_local(m, x)
            assert suite.base.shifted_mean(suite.shifts)(x[None, :])[0] == acc / 4

    @pytest.mark.parametrize("name", OBJECTIVE_NAMES)
    def test_client_values_match_the_batch_path_bit_for_bit(self, name):
        # The protocol's cell table holds eval_clients_batch rows; each entry
        # must round exactly as the mean over that client's one shift row
        # does, clipped shifts and rastrigin's 10-term row sum included.
        base = make_base(name)
        domain = base.domain
        rng = np.random.default_rng(13)
        shifts = rng.uniform(-0.2, 0.2, size=(5, domain.dim)) * domain.widths
        suite = ObjectiveSuite(base, shifts, NoiseModel(0.0))
        clipped = 0
        for x in rng.uniform(domain.lower, domain.upper, size=(40, domain.dim)):
            values = suite.eval_clients_batch(x[None])[0]
            for m in range(1, 6):
                assert values[m - 1] == base.shifted_mean(shifts[m - 1:m])(x[None])[0]
                assert suite.eval_local(m, x) == values[m - 1]
                clipped += not domain.contains(x - shifts[m - 1])
        assert clipped > 0

    @pytest.mark.parametrize("name", OBJECTIVE_NAMES)
    def test_batched_cell_centers_match_one_point_evaluation_bit_for_bit(self, name):
        # The protocol fills its cell table a batch of cells at a time; each
        # row must round exactly as that point evaluated alone, at cell
        # centers down to depth 6 and at the box's corners and face centers.
        base = make_base(name)
        domain = base.domain
        shifts = np.random.default_rng(14).uniform(-0.2, 0.2, size=(4, domain.dim)) * domain.widths
        suite = ObjectiveSuite(base, shifts, NoiseModel(0.0))
        spec = PartitionSpec(2)
        centers = [representative(domain, NodeId(h, i), spec)
                   for h in range(7) for i in range(1, 2 ** h + 1)]
        mid = (domain.lower + domain.upper) / 2
        faces = [np.where(np.arange(domain.dim) == j, bound, mid)
                   for j in range(domain.dim) for bound in (domain.lower, domain.upper)]
        X = np.array(centers + faces + [domain.lower, domain.upper])
        batch = suite.eval_clients_batch(X)
        assert batch.shape == (len(X), 4)
        for x, row in zip(X, batch):
            assert row.tolist() == suite.eval_clients_batch(x[None])[0].tolist()
            assert [suite.eval_local(m, x) for m in range(1, 5)] == row.tolist()
        outside = X.copy()
        outside[-1] = domain.upper + 1e-9
        with pytest.raises(ValueError, match="outside the domain"):
            suite.eval_clients_batch(outside)
        # The global objective: the client values of each row, summed in
        # client order from zero, then divided by the client count.
        for clients in (1, 2, 3, 10):
            shifts = np.random.default_rng(clients).uniform(-0.2, 0.2, size=(clients, domain.dim))
            suite = ObjectiveSuite(base, shifts * domain.widths, NoiseModel(0.0))
            acc = np.zeros(len(X))
            for m in range(1, clients + 1):
                acc += suite.eval_clients_batch(X)[:, m - 1]
            assert base.shifted_mean(suite.shifts)(X).tolist() == (acc / clients).tolist()

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
        suite = ObjectiveSuite(ramp_base(), np.array([[0.1], [-0.2]]), NoiseModel(0.0))
        first, second = suite.local_optima
        assert first.method == "grid-zoom" and second.method == "shift-translation"
        for m, cert in enumerate(suite.local_optima, start=1):
            assert cert.value == suite.eval_local(m, cert.x)
        assert first.value == pytest.approx(0.9, abs=1e-12)
        assert second.value == 1.0
        glob = suite.global_optimum
        assert isinstance(glob, OptimumCertificate) and glob.method == "grid-zoom"
        assert glob.value == suite.base.shifted_mean(suite.shifts)(glob.x[None, :])[0]

    def test_constructor_rejects_bad_shifts(self):
        with pytest.raises(ValueError):
            ObjectiveSuite(ramp_base(), np.zeros((0, 1)), NoiseModel(0.0))
        with pytest.raises(ValueError):
            ObjectiveSuite(ramp_base(), np.zeros((2, 2)), NoiseModel(0.0))

    def test_out_of_domain_point_rejected(self):
        suite = make_suite(ramp_base(), clients=2, shift_std=0.0,
                           noise_halfwidth=0.0, seed=1)
        with pytest.raises(ValueError):
            suite.eval_local(1, [1.5])
        with pytest.raises(ValueError):
            suite.eval_clients_batch([[1.5]])


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

    @pytest.mark.parametrize("halfwidth", [
        5e-324, 1e-300, 1e-5, 0.1, 1.0, 3.0e7, 1e300, math.nextafter(sys.float_info.max / 2, 0.0),
    ])
    def test_draw_is_numpy_uniform_bit_for_bit(self, halfwidth):
        # The draw fills and scales in place; numpy's uniform is the reference.
        for seed in range(20):
            for n in (1, 2, 3, 8, 9, 1000, 65537):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                out = NoiseModel(halfwidth).draw(rng, n)
                assert out.tobytes() == ref.uniform(-halfwidth, halfwidth, n).tobytes()
                assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("halfwidth", [0.1, 0.0, -0.0])
    def test_draw_into_a_buffer_slice_is_the_plain_draw(self, halfwidth):
        # A cohort's calls draw into consecutive slices of one buffer.
        buffer = np.full(70_000, np.nan)
        for seed, (start, n) in enumerate([(0, 1), (3, 9), (17, 65_537)]):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            out = NoiseModel(halfwidth).draw(rng, n, out=buffer[start:start + n])
            assert out.base is buffer
            assert out.tobytes() == NoiseModel(halfwidth).draw(ref, n).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("halfwidth", [0.0, -0.0])
    def test_zero_halfwidth_draws_zeros_and_leaves_the_generator(self, halfwidth):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert NoiseModel(halfwidth).draw(rng, 5).tolist() == [0.0] * 5
        assert rng.bit_generator.state == state

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
        assert res.method == "grid-zoom" and res.probes > 4096

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

    def test_more_than_two_dimensions_rejected(self):
        fn = lambda X: 1.0 - ((X - 0.25) ** 2).sum(axis=1)
        with pytest.raises(ValueError):
            oracle_optimum(fn, BoxDomain([0.0] * 4, [1.0] * 4))

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


def rastrigin_term(u):
    return u * u - 10.0 * np.cos(2.0 * math.pi * u)


def coordinate_brute_force(fn, domain, shifts, points=1_000_001):
    """``fn`` at the point whose coordinates each minimize the rastrigin terms' shift mean.

    Each coordinate is searched on its own grid of ``points`` points.
    """
    x = np.empty(domain.dim)
    for j in range(domain.dim):
        xs = np.linspace(domain.lower[j], domain.upper[j], points)
        acc = np.zeros(points)
        for s in shifts[:, j]:
            acc += rastrigin_term(np.clip(xs - s, domain.lower[j], domain.upper[j]))
        x[j] = xs[np.argmin(acc)]
    return float(fn(x[None, :])[0])


class TestSeparable:
    def test_certificates_dominate_coordinate_brute_force(self):
        # large shifts push two of the three translated optima out of the box
        suite = make_suite(make_base("rastrigin"), 3, 0.8, 0.0, 0)
        searched = [(suite.shifts[m:m + 1], cert) for m, cert in enumerate(suite.local_optima)
                    if cert.method != "shift-translation"]
        assert len(searched) >= 1
        searched.append((suite.shifts, suite.global_optimum))
        for shifts, cert in searched:
            fn = suite.base.shifted_mean(shifts)
            brute = coordinate_brute_force(fn, suite.domain, shifts)
            assert cert.value >= brute - objectives.ORACLE_TOL
            assert math.isfinite(cert.gap) and cert.gap >= 0.0
            assert cert.value + cert.gap >= brute
            assert cert.value == fn(cert.x[None, :])[0] and cert.method == "separable"

    def test_two_dim_override_agrees_with_tiled_screen(self):
        base = make_base("rastrigin", BoxDomain([-2.0, -1.0], [1.0, 3.0]))
        # every shifted image of the optimum at the origin leaves the box
        shifts = np.array([[1.5, 0.5], [-0.5, -1.8], [0.3, 3.4]])
        suite = ObjectiveSuite(base, shifts, NoiseModel(0.0))
        row_sets = [shifts[0:1], shifts[1:2], shifts[2:3], shifts]
        for rows, cert in zip(row_sets, [*suite.local_optima, suite.global_optimum]):
            tiled = oracle_optimum(base.shifted_mean(rows), base.domain,
                                   lipschitz=base.shifted_lipschitz(rows))
            assert cert.method == "separable" and tiled.method == "grid-zoom"
            assert abs(cert.value - tiled.value) <= objectives.ORACLE_TOL
            assert cert.value + cert.gap >= tiled.value


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


def whole_domain(bound, domain):
    """A box bound evaluated on the whole domain."""
    return float(bound(domain.lower[None], domain.upper[None])[0])


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
        domain = base.domain
        rng = np.random.default_rng(31 + index)
        self.assert_lipschitz(base.raw_fn, domain, whole_domain(base.raw_lipschitz, domain), rng)
        # shifts up to a third of the width, so that clipping bites
        shifts = rng.uniform(-1 / 3, 1 / 3, size=(3, 2)) * domain.widths
        for rows in (shifts[0:1], shifts[1:2], shifts[2:3], shifts):
            self.assert_lipschitz(base.shifted_mean(rows), domain,
                                  whole_domain(base.shifted_lipschitz(rows), domain), rng)

    @staticmethod
    def boxes(domain, rng, count=200):
        """Random boxes, boxes on the domain's edge, and boxes one grid spacing wide."""
        lo, hi = domain.lower, domain.upper
        corners = np.sort(rng.uniform(lo, hi, size=(2, count, 2)), axis=0)
        widths = rng.uniform(0.0, 0.2, size=(count, 2)) * domain.widths
        # each edge box has one side on one face of the domain
        face = rng.integers(0, 4, size=count)
        axis, upper = face % 2, face >= 2
        edge_lo = rng.uniform(lo, hi - widths)
        rows = np.arange(count)
        edge_lo[rows, axis] = np.where(upper, hi[axis] - widths[rows, axis], lo[axis])
        spacing = domain.widths / (objectives.ORACLE_GRID_POINTS - 1)
        cell_lo = np.concatenate([np.array(list(itertools.product(*zip(lo, hi - spacing)))),
                                  rng.uniform(lo, hi - spacing, size=(count, 2))])
        return (np.concatenate([corners[0], edge_lo, cell_lo]),
                np.concatenate([corners[1], edge_lo + widths, cell_lo + spacing]))

    @pytest.mark.parametrize("index", range(3), ids=["himmelblau", "ackley", "rastrigin-2d"])
    def test_box_bounds_are_sound(self, index):
        # |f(x) - f(y)| <= bound(B) |x - y| for random pairs in each box B,
        # for the raw form, each local objective of a 10-client suite whose
        # clipped shifts bite, and their mean
        base = two_dim_bases()[index]
        domain = base.domain
        rng = np.random.default_rng(51 + index)
        shifts = rng.uniform(-1 / 3, 1 / 3, size=(10, 2)) * domain.widths
        cases = [(base.raw_fn, base.raw_lipschitz)]
        cases += [(base.shifted_mean(rows), base.shifted_lipschitz(rows))
                  for rows in [shifts, *np.split(shifts, 10)]]
        lo, hi = self.boxes(domain, rng)
        assert np.all((domain.lower <= lo) & (lo <= hi) & (hi <= domain.upper))
        pairs = 50
        x = rng.uniform(np.repeat(lo, pairs, axis=0), np.repeat(hi, pairs, axis=0))
        y = rng.uniform(np.repeat(lo, pairs, axis=0), np.repeat(hi, pairs, axis=0))
        dist = np.linalg.norm(x - y, axis=1)
        for fn, bound in cases:
            slopes = bound(lo, hi)
            assert slopes.shape == (len(lo),) and np.all(np.isfinite(slopes))
            assert np.all(slopes <= whole_domain(bound, domain) * (1 + 1e-12))
            assert np.all(np.abs(fn(x) - fn(y)) <= np.repeat(slopes, pairs) * dist * (1 + 1e-9))

    def test_himmelblau_partial_maximum_is_exact(self):
        # no |partial| on a dense grid of the box exceeds the bound, on random
        # boxes and on boxes one grid spacing wide around the interior
        # stationary points, where the extreme lies inside the box
        rng = np.random.default_rng(61)
        # x = -y = (4 +- sqrt(16 + 48 (4a - 2))) / 24 for d/dx; d/dy swaps the axes
        roots = [(4.0 + sign * math.sqrt(16.0 + 48.0 * (4.0 * a - 2.0))) / 24.0
                 for a in (11.0, 7.0) for sign in (1.0, -1.0)]
        centers = np.array([(s * r, -s * r) for r in roots for s in (1.0, -1.0)])
        corners = np.sort(rng.uniform(-5.0, 5.0, size=(2, 100, 2)), axis=0)
        half = 10.0 / (objectives.ORACLE_GRID_POINTS - 1) / 2
        lo = np.concatenate([corners[0], centers - half])
        hi = np.concatenate([corners[1], centers + half])
        t = np.linspace(0.0, 1.0, 201)
        for (xlo, ylo), (xhi, yhi) in zip(lo, hi):
            x = (xlo + t * (xhi - xlo))[:, None]
            y = (ylo + t * (yhi - ylo))[None, :]
            for (u, v), (a, b) in (((x, y), (11.0, 7.0)), ((y.T, x.T), (7.0, 11.0))):
                ulo, uhi, vlo, vhi = (np.array([c]) for c in (u.min(), u.max(), v.min(), v.max()))
                bound = objectives._himmelblau_partial_max(ulo, uhi, vlo, vhi, a, b)[0]
                grid = np.max(np.abs(4.0 * u * (u * u + v - a) + 2.0 * (u + v * v - b)))
                assert grid <= bound * (1 + 1e-12)

    def test_one_dimensional_objectives_have_no_bound(self):
        assert make_base("garland").raw_lipschitz is None
        assert make_base("doublesine").shifted_lipschitz(np.zeros((2, 1))) is None


class TestPrunedScreen:
    @pytest.mark.parametrize("case", ["himmelblau", "ackley", "himmelblau-global"])
    def test_pruning_keeps_the_certificate(self, case):
        if case == "himmelblau-global":
            base = make_base("himmelblau")
            suite = make_suite(base, clients=3, shift_std=0.5, noise_halfwidth=0.0, seed=0)
            fn, lipschitz = base.shifted_mean(suite.shifts), base.shifted_lipschitz(suite.shifts)
        else:
            base = make_base(case)
            fn, lipschitz = base.raw_fn, base.raw_lipschitz
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
        cert = oracle_optimum(base.raw_fn, base.domain, lipschitz=base.raw_lipschitz)
        cloud = np.random.default_rng(41).uniform(base.domain.lower, base.domain.upper,
                                                   size=(100_000, 2))
        assert 0.0 <= cert.gap and np.max(base.raw_fn(cloud)) <= cert.value + cert.gap

    @pytest.mark.parametrize("name,expected", [
        ("ackley", (4.6752053040600074, [0.5588000610500611, 1.0], 17081416,
                    0.060981895701340605, 538952)),
        ("himmelblau", (890.0, [5.0, 5.0], 17246191, 7.3306940576527495, 473455)),
        ("rastrigin", (40.50254598198022, [0.5025460317460317, 0.5025460317460317], 17233516,
                       0.3940196695131277, 576556)),
    ], ids=["ackley", "himmelblau", "rastrigin"])
    def test_certificates_are_pinned(self, name, expected):
        # the recorded certificates of the ackley and himmelblau bases and of
        # 2-D rastrigin on [-1, 1]^2, bit for bit, and the rows evaluated;
        # rastrigin is screened with its bound over the whole box on every box
        if name == "rastrigin":
            domain = BoxDomain([-1.0, -1.0], [1.0, 1.0])
            whole = whole_domain(objectives._rastrigin_lipschitz, domain)
            fn, lipschitz = objectives._rastrigin_raw, lambda lo, hi: np.full(len(lo), whole)
        else:
            base = make_base(name)
            fn, lipschitz, domain = base.raw_fn, base.raw_lipschitz, base.domain
            assert base.normalization_max == expected[0]
        counted, rows = counting(fn)
        cert = oracle_optimum(counted, domain, lipschitz=lipschitz)
        assert (cert.value, cert.x.tolist(), cert.probes, cert.gap, rows[0]) == expected

    def test_ten_client_himmelblau_global_certificate_is_pinned(self):
        # value and point recorded before the bounds per box, bit for bit;
        # rows, surviving super-tiles and surviving tiles recorded with them,
        # so that a weaker bound fails here
        base = make_base("himmelblau")
        suite = make_suite(base, clients=10, shift_std=0.5, noise_halfwidth=0.0, seed=0)
        calls = []
        average = base.shifted_mean(suite.shifts)

        def counted(X):
            calls.append(len(X))
            return average(X)

        cert = oracle_optimum(counted, base.domain, lipschitz=base.shifted_lipschitz(suite.shifts))
        assert cert.value.hex() == "0x1.fb87fb9d14018p-1"
        assert [v.hex() for v in cert.x] == ["0x1.790e1daea7b74p+1", "0x1.d2203b9d536ecp+0"]
        assert cert.value == suite.global_optimum.value
        # super-tile probes, the tile probes of 75 super-tiles, the points of
        # 307 tiles, then the zoom rounds of 65 x 65 points each
        tile = objectives.ORACLE_TILE_POINTS ** 2
        zoom = [n for n in calls[2:] if n == objectives.ORACLE_ZOOM_POINTS ** 2]
        assert calls[:2] == [4096, 75 * tile]
        assert sum(calls[2:]) - sum(zoom) == 307 * tile
        assert (sum(calls), cert.probes) == (193319, 16941991)
        cloud = np.random.default_rng(43).uniform(base.domain.lower, base.domain.upper,
                                                   size=(100_000, 2))
        assert 0.0 <= cert.gap and np.max(average(cloud)) <= cert.value + cert.gap

    @pytest.mark.parametrize("lipschitz", [math.nan, math.inf])
    def test_non_finite_bound_keeps_every_tile(self, monkeypatch, lipschitz):
        monkeypatch.setattr(objectives, "ORACLE_GRID_POINTS", 256)
        fn = lambda X: 1.0 - (X[:, 0] - 0.3) ** 2 - (X[:, 1] + 0.4) ** 2
        domain = BoxDomain([-1.0, -1.0], [1.0, 1.0])
        counted, rows = counting(fn)
        res = oracle_optimum(counted, domain, lipschitz=lambda lo, hi: np.full(len(lo), lipschitz))
        ref = oracle_optimum(fn, domain)
        assert res.value == ref.value and np.array_equal(res.x, ref.x)
        assert res.probes == ref.probes and not math.isfinite(res.gap)
        # every super-tile probe, every tile probe, every grid point, then the zoom
        super_tile = objectives.ORACLE_TILE_POINTS * objectives.ORACLE_SUPER_TILE
        assert rows[0] == ((256 // super_tile) ** 2 + (256 // objectives.ORACLE_TILE_POINTS) ** 2
                           + ref.probes)


# near counts per depth h = 0..6 at nu1 = 1, rho = 0.5, on the binary partition
CENSUS_COUNTS = {
    "garland": [1, 2, 4, 6, 7, 3, 1],
    "doublesine": [1, 2, 4, 6, 6, 6, 5],
    "himmelblau": [1, 2, 4, 8, 16, 26, 23],
    "ackley": [1, 2, 4, 0, 0, 0, 0],
    "rastrigin": [1, 2, 4, 8, 0, 0, 0],
}


def census_near(name: str, nu1: float = 1.0, rho: float = 0.5) -> list[int]:
    base = make_base(name)
    rows = near_optimal_census(base.evaluate_batch, base.domain, PartitionSpec(2), nu1, rho)
    return [near for _, _, near, _ in rows]


class TestProfile:
    def test_constant_counts_every_cell(self):
        fn = lambda X: np.ones(len(X))
        domain = BoxDomain([0.0, -1.0], [1.0, 1.0])
        for arity in (2, 3):
            rows = near_optimal_census(fn, domain, PartitionSpec(arity), 1.0, 0.5)
            assert [(h, near, cells) for h, _, near, cells in rows] == [
                (h, arity ** h, arity ** h) for h in range(7)]

    def test_huge_eps_counts_every_cell(self):
        assert census_near("garland", nu1=1e3) == [2 ** h for h in range(7)]

    def test_garland_counts_match_direct_enumeration(self):
        # on [0, 1] the binary partition's depth-h centers are the uniform grid's
        # (i + 0.5) / 2**h, so the 1-D counts equal the old grid ladder's; doublesine too
        for name in ("garland", "doublesine"):
            base = make_base(name)
            expected = [sum(base.evaluate([(i + 0.5) / 2 ** h]) >= 1.0 - 6.0 * 0.5 ** h
                            for i in range(2 ** h)) for h in range(7)]
            assert census_near(name) == expected == CENSUS_COUNTS[name], name

    @pytest.mark.parametrize("name", ["himmelblau", "ackley", "rastrigin"])
    def test_counts_match_partition_cell_centers(self, name):
        base, spec = make_base(name), PartitionSpec(2)
        expected = []
        for h in range(7):
            boxes = [cell(base.domain, NodeId(h, i), spec) for i in range(1, 2 ** h + 1)]
            expected.append(sum(base.evaluate((box.lower + box.upper) / 2) >= 1.0 - 6.0 * 0.5 ** h
                                for box in boxes))
        assert census_near(name) == expected == CENSUS_COUNTS[name]

    def test_monotone_in_eps(self):
        counts = [census_near("doublesine", nu1=nu1) for nu1 in (0.05, 0.1, 0.2, 0.5, 1.0)]
        for h in range(7):
            assert [row[h] for row in counts] == sorted(row[h] for row in counts)

    def test_ladder_top_rung_counts_all(self):
        base = make_base("garland")
        rows = near_optimal_census(base.evaluate_batch, base.domain, PartitionSpec(2), 1.0, 0.5)
        assert rows[0] == (0, 6.0, 1, 1)  # the root cell covers the whole domain
        assert [eps for _, eps, _, _ in rows] == [6.0 * 0.5 ** h for h in range(7)]

    def test_eps_takes_the_slack_first(self):
        # 6 * nu1 overflows for nu1 > 3e307, the slack nu1 * rho**h does not
        base = make_base("garland")
        eps = lambda nu1, rho: [e for _, e, _, _ in near_optimal_census(
            base.evaluate_batch, base.domain, PartitionSpec(2), nu1, rho)]
        tiny = eps(1e308, 1e-308)
        assert tiny[1] == pytest.approx(6.0) and not any(map(math.isnan, tiny))
        half = eps(1e308, 0.5)
        assert half[:2] == [math.inf] * 2  # 6e308 and 3e308 exceed every float
        assert half[2] == pytest.approx(1.5e308) and half[6] == pytest.approx(1e308 / 64 * 6)

    def test_invalid_parameters_rejected(self):
        base = make_base("garland")
        for nu1, rho in ((0.0, 0.5), (math.inf, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0),
                         (1.0, math.nan)):
            with pytest.raises(ValueError):
                near_optimal_census(base.evaluate_batch, base.domain, PartitionSpec(2), nu1, rho)
