import numpy as np
import pytest

from curstat import (
    ProjectionEstimate,
    build_collection,
    dyadic_family,
    fit_quotient_cdf,
    generate,
    haar_family,
    haar_model,
    poly_family,
    quotient_cdf,
    select_projection_model,
    trig_family,
    trig_model,
    SimModel,
)
from curstat.projection import TARGET_DENSITY, TARGET_SUBDENSITY, _select_models

from conftest import random_sample

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
            from curstat import fit_examination_density, fit_status_subdensity

            num = fit_status_subdensity(sample)
            den = fit_examination_density(sample)
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


class TestJointScan:
    def test_joint_scan_equals_per_target_selection(self, rng):
        families = [dyadic_family(), haar_family(), poly_family(1), trig_family()]
        for family in families:
            for n in (60, 200, 1000):
                sample = random_sample(rng, n, p_outside=0.1)
                coll = build_collection(family, n)
                joint = _select_models(
                    sample, coll, 4.0, (TARGET_SUBDENSITY, TARGET_DENSITY)
                )
                for est, target in zip(joint, (TARGET_SUBDENSITY, TARGET_DENSITY)):
                    model, alone = select_projection_model(sample, coll, 4.0, target)
                    assert est.model == model
                    assert est.coeffs.tobytes() == alone.coeffs.tobytes()


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
