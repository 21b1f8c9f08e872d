import numpy as np
import pytest

from curstat import (
    CAP_DENSITY,
    ProjectionEstimate,
    build_collection,
    dyadic_family,
    fit_quotient_cdf,
    generate,
    haar_family,
    haar_model,
    poly_family,
    quotient_cdf,
    replication_rng,
    select_projection_model,
    trig_family,
    trig_model,
    SimModel,
)

from conftest import random_sample
from dense_oracle import dense_density_selection

CONST = haar_model(0)


def const_estimate(value):
    return ProjectionEstimate(CONST, [value])


class TestClamping:
    def test_plain_ratio(self):
        est = quotient_cdf(const_estimate(0.3), const_estimate(1.0))
        assert est(0.5) == pytest.approx(0.3)

    def test_ratio_above_one_clamps_to_one(self):
        est = quotient_cdf(const_estimate(1.5), const_estimate(1.0))
        assert est(0.2) == 1.0

    def test_negative_ratio_clamps_to_zero(self):
        est = quotient_cdf(const_estimate(-0.2), const_estimate(1.0))
        assert est(0.2) == 0.0

    def test_identical_estimates_give_one(self, rng):
        sample = random_sample(rng, 60)
        from curstat import empirical_coefficients

        coeffs = empirical_coefficients(sample, trig_model(2))
        num = ProjectionEstimate(trig_model(2), coeffs)
        den = ProjectionEstimate(trig_model(2), coeffs)
        est = quotient_cdf(num, den)
        xs = np.linspace(0, 1, 101)
        values = est(xs)
        nonzero_den = den(xs) != 0.0
        assert np.all(values[nonzero_den] == 1.0)

    def test_zero_denominator_convention(self):
        zero = const_estimate(0.0)
        assert quotient_cdf(const_estimate(0.5), zero)(0.3) == 1.0
        assert quotient_cdf(const_estimate(-0.5), zero)(0.3) == 0.0
        assert quotient_cdf(zero, zero)(0.3) == 0.0


class TestInvariants:
    def test_range_on_grid(self, rng):
        xs = np.linspace(0, 1, 512)
        for _ in range(30):
            sample = random_sample(rng, int(rng.integers(50, 200)))
            est = fit_quotient_cdf(sample)
            values = est(xs)
            assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_clamp_dominance(self, rng):
        # |clamp(r) - c| <= |r - c| for every target c in [0, 1]
        xs = np.linspace(0, 1, 257)
        for _ in range(10):
            sample = random_sample(rng, 100)
            coll = build_collection(dyadic_family(), sample.n, CAP_DENSITY)
            num, den = select_projection_model(sample, coll)
            est = quotient_cdf(num, den)
            den_vals = den(xs)
            keep = den_vals != 0.0
            raw = num(xs)[keep] / den_vals[keep]
            clamped = est(xs)[keep]
            for c in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert np.all(np.abs(clamped - c) <= np.abs(raw - c) + 1e-12)

    def test_determinism(self):
        sample = generate(SimModel(2), 150, 5)
        est1 = fit_quotient_cdf(sample)
        est2 = fit_quotient_cdf(sample)
        xs = np.linspace(0, 1, 64)
        np.testing.assert_array_equal(est1(xs), est2(xs))


def assert_matches_oracle(sample, family):
    """Same model as the dense oracle per target, coefficients within 1e-12."""
    coll = build_collection(family, sample.n, CAP_DENSITY)
    pair = select_projection_model(sample, coll, 4.0)
    targets = (
        (sample.delta, float(sample.delta.mean())),
        (np.ones(sample.n), 1.0),
    )
    for est, (weights, delta_mean) in zip(pair, targets):
        model, coeffs = dense_density_selection(sample, coll, 4.0, weights, delta_mean)
        assert est.model == model
        np.testing.assert_allclose(est.coeffs, coeffs, rtol=0, atol=1e-12)
    return pair


class TestOneScan:
    def test_matches_per_target_oracle(self):
        families = [dyadic_family(), haar_family(), poly_family(2), trig_family(), dyadic_family(0)]
        for family in families:
            for seed in range(3):
                for model_id in range(1, 6):
                    for n in (60, 200, 1000, 5000):
                        assert_matches_oracle(generate(SimModel(model_id), n, seed), family)

    def test_points_outside_the_unit_interval(self, rng):
        for family in (dyadic_family(), poly_family(1), trig_family()):
            for n in (60, 200, 1000):
                assert_matches_oracle(random_sample(rng, n, p_outside=0.1), family)

    def test_exact_tie_sample(self):
        # dyadic levels 1 and 2 at degree 0 both score -0.264 for the
        # sub-density; the computed scores put level 2 first
        sample = generate(SimModel(2), 200, replication_rng(20080317, 2, 200, 10))
        sub, _ = assert_matches_oracle(sample, dyadic_family())
        assert sub.model.describe() == "dyadic(level=2, degree=0, dim=4)"


class TestMetadata:
    def test_models_and_penalties_recorded(self):
        sample = generate(SimModel(1), 200, 3)
        est = fit_quotient_cdf(sample, kappa=4.0)
        for key in (
            "numerator_model",
            "denominator_model",
            "numerator_contrast",
            "denominator_contrast",
            "numerator_penalty",
            "denominator_penalty",
        ):
            assert key in est.metadata
        assert est.method == "quotient"
        assert est.metadata["numerator_penalty"] > 0
