import math

import numpy as np
import pytest

from curstat import (
    CAP_DENSITY,
    BasisModel,
    ObservationSample,
    build_collection,
    density_penalty,
    design_matrix,
    dyadic_family,
    dyadic_model,
    empirical_coefficients,
    generate,
    haar_family,
    haar_model,
    poly_family,
    poly_model,
    select_projection_model,
    trig_family,
    trig_model,
    SimModel,
)
from curstat.bases import basis_rows
from curstat.data import _SortedStack
from curstat.projection import _stacked_moments

from conftest import random_sample
from dense_oracle import dense_coefficients, dense_contrast
from quadrature import gram_matrix, project_function, quadrature_rule

TWO_POINT = ObservationSample([0.2, 0.6], [1.0, 0.0])


class TestEmpiricalCoefficients:
    def test_constant_function_means(self):
        coeffs = empirical_coefficients(TWO_POINT, trig_model(1), TWO_POINT.delta)
        assert coeffs[0] == pytest.approx(0.5)
        coeffs = empirical_coefficients(TWO_POINT, trig_model(1))
        assert coeffs[0] == pytest.approx(1.0)

    def test_cosine_coefficient(self):
        coeffs = empirical_coefficients(TWO_POINT, trig_model(1))
        expected = (math.sqrt(2) / 2) * (
            math.cos(0.4 * math.pi) + math.cos(1.2 * math.pi)
        )
        assert coeffs[1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.35355, abs=5e-6)

    def test_observations_outside_interval_count_in_divisor(self):
        sample = ObservationSample([0.5, 2.0], [1.0, 1.0])
        coeffs = empirical_coefficients(sample, haar_model(0))
        assert coeffs[0] == pytest.approx(0.5)  # only one point hits [0, 1]

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            empirical_coefficients(TWO_POINT, trig_model(1), np.ones(3))

    def test_matches_dense_oracle(self, rng):
        models = [trig_model(5), haar_model(3), dyadic_model(2, 4), poly_model(3, 2)]
        for _ in range(40):
            sample = random_sample(rng, int(rng.integers(2, 300)), p_outside=0.1)
            for model in models:
                for weights in (None, sample.delta):
                    np.testing.assert_allclose(
                        empirical_coefficients(sample, model, weights),
                        dense_coefficients(sample, model, weights),
                        rtol=0,
                        atol=1e-12,
                    )


class TestDensityContrast:
    def test_zero_estimate(self):
        assert dense_contrast(TWO_POINT, trig_model(1), np.zeros(3)) == 0.0

    def test_identity_on_own_coefficients(self):
        coeffs = empirical_coefficients(TWO_POINT, haar_model(0), TWO_POINT.delta)
        value = dense_contrast(TWO_POINT, haar_model(0), coeffs, TWO_POINT.delta)
        assert value == pytest.approx(-coeffs @ coeffs, abs=1e-15)
        assert value == pytest.approx(-0.25)

    def test_identity_random_models(self, rng):
        for _ in range(50):
            sample = random_sample(rng, int(rng.integers(2, 60)))
            model = [trig_model(2), haar_model(2), dyadic_model(1, 2)][
                int(rng.integers(3))
            ]
            weights = sample.delta if rng.random() < 0.5 else None
            coeffs = empirical_coefficients(sample, model, weights)
            assert dense_contrast(sample, model, coeffs, weights) == pytest.approx(
                -coeffs @ coeffs, abs=1e-10
            )


class TestDensityPenalty:
    def test_theoretical_trig(self):
        assert density_penalty(trig_model(1), 100, 4.0) == pytest.approx(0.24)

    def test_practical_degree_zero(self):
        assert density_penalty(dyadic_model(2, 0), 500, 4.0) == pytest.approx(0.032)

    def test_practical_with_degree_correction(self):
        expected = 2.0 * (2.0 + math.log(2.0) ** 2.5) / 100.0
        value = density_penalty(dyadic_model(0, 1), 100, 4.0, delta_mean=0.5)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.048, abs=1e-6)

    def test_monotone_in_dimension_at_fixed_degree(self):
        # within any fixed-degree ladder the penalty grows with dimension;
        # across degrees the correction deliberately charges smoothness, so
        # dimension alone does not order the dyadic penalties
        for models in (
            [trig_model(m) for m in range(1, 8)],
            [haar_model(p) for p in range(6)],
            [dyadic_model(p, 3) for p in range(5)],
        ):
            pens = [density_penalty(m, 500) for m in models]
            assert all(a < b for a, b in zip(pens, pens[1:]))
            assert pens[0] > 0

    @pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan"), float("inf")])
    def test_kappa_must_be_positive(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            density_penalty(haar_model(0), 10, kappa)

    def test_delta_mean_validated(self):
        with pytest.raises(ValueError, match="delta_mean"):
            density_penalty(haar_model(0), 10, delta_mean=1.5)

    def test_n_validated(self):
        with pytest.raises(ValueError, match="n must be"):
            density_penalty(haar_model(0), 0)


def target_weights(sample, target):
    """Contrast weights and penalty scale of the named target."""
    if target == "subdensity":
        return sample.delta, float(sample.delta.mean())
    return None, 1.0


def fit_pair(sample, family=None):
    """The ``(subdensity, density)`` estimates over the route's collection."""
    family = dyadic_family() if family is None else family
    collection = build_collection(family, sample.n, CAP_DENSITY)
    return select_projection_model(sample, collection)


def exhaustive_rescan(sample, collection, kappa, target):
    """Independent selection oracle via the general contrast on dense designs."""
    weights, delta_mean = target_weights(sample, target)
    scored = []
    for model in collection:
        coeffs = dense_coefficients(sample, model, weights)
        score = dense_contrast(sample, model, coeffs, weights) + density_penalty(
            model, sample.n, kappa, delta_mean
        )
        scored.append((score, model))
    return min(s for s, _ in scored), scored


class TestSelection:
    def test_all_zero_status_selects_smallest(self):
        sample = ObservationSample([0.1, 0.4, 0.8], [0.0, 0.0, 0.0])
        coll = build_collection(haar_family(), 3, "density")
        est, _ = select_projection_model(sample, coll, 4.0)
        assert est.model.dim == min(m.dim for m in coll)
        assert np.all(est.coeffs == 0.0)

    def test_single_model_collection(self):
        _, est = select_projection_model(TWO_POINT, [haar_model(1)], 4.0)
        assert est.model == haar_model(1)

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError, match="empty model collection"):
            select_projection_model(TWO_POINT, [], 4.0)

    @pytest.mark.parametrize("target", ["density", "subdensity"])
    def test_matches_exhaustive_rescan(self, rng, target):
        kappa = 4.0
        for _ in range(25):
            sample = generate(SimModel(1), 200, rng)
            coll = build_collection(haar_family(), sample.n, "density")
            pair = select_projection_model(sample, coll, kappa)
            est = pair[0] if target == "subdensity" else pair[1]
            model = est.model
            weights, delta_mean = target_weights(sample, target)
            achieved = dense_contrast(sample, model, est.coeffs, weights) + density_penalty(
                model, sample.n, kappa, delta_mean
            )
            best, scored = exhaustive_rescan(sample, coll, kappa, target)
            assert achieved == pytest.approx(best, abs=1e-12)
            # tie-break: no strictly smaller-dimension model achieves the optimum
            for score, other in scored:
                if score <= best + 1e-15:
                    assert model.dim <= other.dim


class TestCoefficientNesting:
    def test_trig_prefix(self, rng):
        # same basis functions, so equal up to summation order in the matvec
        sample = random_sample(rng, 80)
        small = empirical_coefficients(sample, trig_model(2), sample.delta)
        large = empirical_coefficients(sample, trig_model(6), sample.delta)
        np.testing.assert_allclose(small, large[: small.size], rtol=0, atol=1e-14)

    def test_dyadic_degree_prefix(self, rng):
        sample = random_sample(rng, 80)
        small = empirical_coefficients(sample, dyadic_model(2, 1))
        large = empirical_coefficients(sample, dyadic_model(2, 3))
        np.testing.assert_allclose(small, large[: small.size], rtol=0, atol=1e-14)

    def test_haar_two_scale_relation(self, rng):
        # coarse coefficients are normalized pair sums of the finer ones
        sample = random_sample(rng, 120)
        fine = empirical_coefficients(sample, haar_model(3), sample.delta)
        coarse = empirical_coefficients(sample, haar_model(2), sample.delta)
        np.testing.assert_allclose(
            coarse, (fine[0::2] + fine[1::2]) / math.sqrt(2.0), atol=1e-12
        )


def bincount_sums(sample, family, pieces, degree, weights):
    """Per-piece sums at one subdivision, one ``np.bincount`` per basis row, over n."""
    model = BasisModel(family, pieces=pieces, degree=degree)
    stack = _SortedStack([sample])
    x, w = stack.x, stack.inside([weights])
    piece, columns = basis_rows(model, x)
    return np.array([np.bincount(piece, row * w, pieces) for row in columns]) / sample.n


def assert_refined_sums_match(sample, family, atol):
    """Every subdivision's sums against its own bincount; degree-0 rows bitwise."""
    collection = build_collection(family, sample.n, CAP_DENSITY)
    levels = 0
    stack = _SortedStack([sample])
    weights = [stack.delta, np.ones(stack.x.size)]
    for group, ((sub,), (den,)) in _stacked_moments(collection, stack, weights):
        pieces, degree = group[0].pieces, sub.shape[0] - 1
        for sums, weights in ((sub, sample.delta), (den, np.ones(sample.n))):
            expected = bincount_sums(sample, family, pieces, degree, weights)
            assert sums[0].tobytes() == expected[0].tobytes()
            np.testing.assert_allclose(sums, expected, rtol=0, atol=atol)
        levels += 1
    assert levels == len({model.pieces for model in collection})


class TestTwoScaleRefinement:
    @pytest.mark.parametrize("family", [dyadic_family(), dyadic_family(0), haar_family()])
    @pytest.mark.parametrize("n", [60, 1000, 50_000])
    @pytest.mark.parametrize("model_id", [3, 5])
    def test_matches_per_subdivision_sums(self, family, n, model_id):
        assert_refined_sums_match(generate(SimModel(model_id), n, 23), family, 1e-13)

    @pytest.mark.parametrize("family", [dyadic_family(), haar_family()])
    def test_degree_zero_bitwise_on_boundaries_and_outside(self, rng, family):
        # every dyadic boundary k / 64 twice (0 and 1 among them), more points
        # at exactly 1.0, points outside [0, 1], and uniform points
        boundaries = np.arange(65) / 64
        u = np.concatenate([boundaries, boundaries, [1.0] * 5, [-0.25, 1.5, 2.0], rng.random(400)])
        sample = ObservationSample(u, rng.integers(0, 2, u.size))
        assert_refined_sums_match(sample, family, 1e-13)
        collection = build_collection(family, sample.n, CAP_DENSITY)
        for est, weights in zip(select_projection_model(sample, collection), (sample.delta, None)):
            expected = empirical_coefficients(sample, est.model, weights)
            pieces = est.model.pieces
            assert est.coeffs[:pieces].tobytes() == expected[:pieces].tobytes()

    @pytest.mark.parametrize("family", [dyadic_family(), haar_family()])
    def test_no_point_inside(self, family):
        sample = ObservationSample(np.linspace(1.5, 3.0, 200), np.tile([0.0, 1.0], 100))
        assert_refined_sums_match(sample, family, 0.0)
        sub, den = fit_pair(sample, family)
        assert np.all(sub.coeffs == 0.0) and np.all(den.coeffs == 0.0)

    @pytest.mark.parametrize(
        "family",
        [dyadic_family(), haar_family(), poly_family(2), trig_family()],
        ids=["dyadic", "haar", "poly2", "trig"],
    )
    def test_ones_row_takes_no_product(self, family):
        # a row of None sums the basis rows themselves, bit for bit a product with ones
        sample = generate(SimModel(4), 5000, 23)
        collection = build_collection(family, sample.n, CAP_DENSITY)
        stack = _SortedStack([sample])
        plain = _stacked_moments(collection, stack, [stack.delta, None])
        product = _stacked_moments(collection, stack, [stack.delta, np.ones(stack.x.size)])
        for (group, sums), (_, expected) in zip(plain, product, strict=True):
            for got, want in zip(sums, expected, strict=True):
                assert got.tobytes() == want.tobytes(), group[0]


class TestRiskDecomposition:
    def test_pythagoras_for_known_subdensity(self, rng):
        # data from the uniform model, where the sub-density is x itself
        model = haar_model(3)
        target = project_function(model, lambda x: x)
        nodes, weights = quadrature_rule(np.linspace(0, 1, 9), 2048)
        design = design_matrix(model, nodes)
        bias = float(weights @ (design @ target - nodes) ** 2)
        for _ in range(5):
            sample = generate(SimModel(1), 300, rng)
            hat = empirical_coefficients(sample, model, sample.delta)
            lhs = float(weights @ (design @ hat - nodes) ** 2)
            rhs = bias + float(((hat - target) ** 2).sum())
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestAdaptiveFits:
    def test_uniform_density_recovered(self):
        sample = generate(SimModel(1), 10_000, 7)
        _, est = fit_pair(sample)
        assert est(0.5) == pytest.approx(1.0, abs=0.1)

    def test_subdensity_mass_for_uniform_model(self):
        # the uniform model's sub-density is x, whose mass is 1/2
        sample = generate(SimModel(1), 10_000, 19)
        est, _ = fit_pair(sample)
        nodes, weights = quadrature_rule(np.linspace(0, 1, 17), 4096)
        integral = float(weights @ est(nodes))
        assert integral == pytest.approx(0.5, abs=0.02)

    def test_degenerate_two_point_sample(self):
        sample = ObservationSample([0.3, 0.7], [1.0, 0.0])
        _, est = fit_pair(sample, haar_family())
        coll = build_collection(haar_family(), 2, "density")
        assert est.model in coll
        expected = empirical_coefficients(sample, est.model)
        np.testing.assert_array_equal(est.coeffs, expected)

    def test_norm_sq_equals_coefficient_sum(self, rng):
        sample = random_sample(rng, 50)
        est, _ = fit_pair(sample, haar_family())
        gram = gram_matrix(est.model)
        quad_norm = float(est.coeffs @ gram @ est.coeffs)
        assert est.norm_sq == pytest.approx(quad_norm, abs=1e-9)
