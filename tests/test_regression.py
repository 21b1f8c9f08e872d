import math

import numpy as np
import pytest
from hypothesis import given, settings

from curstat import (
    EmptyCollectionError,
    ObservationSample,
    birge_histogram,
    build_collection,
    design_matrix,
    dyadic_family,
    dyadic_model,
    fit_cdf_regression,
    fit_least_squares,
    generate,
    haar_family,
    haar_model,
    poly_family,
    poly_model,
    regression_penalty,
    trig_family,
    trig_model,
    SimModel,
)
from curstat.regression import _fit_collection

from conftest import random_sample, tied_samples
from dense_oracle import dense_least_squares, dense_selection, exact_least_squares


class TestFitLeastSquares:
    def test_two_bins_fit_bin_means(self):
        sample = ObservationSample([0.25, 0.75], [0.0, 1.0])
        fit = fit_least_squares(sample, haar_model(1))
        np.testing.assert_allclose(fit([0.25, 0.75]), [0.0, 1.0], atol=1e-12)
        assert fit.contrast == pytest.approx(0.0, abs=1e-15)

    def test_constant_model_fits_mean(self, rng):
        sample = random_sample(rng, 40)
        fit = fit_least_squares(sample, haar_model(0))
        assert fit.coeffs[0] == pytest.approx(sample.delta.mean())
        assert fit.contrast == pytest.approx(float(np.var(sample.delta)))

    def test_all_ones_give_unit_fit(self):
        sample = ObservationSample([0.1, 0.4, 0.9], [1.0, 1.0, 1.0])
        fit = fit_least_squares(sample, haar_model(1))
        np.testing.assert_allclose(fit(sample.u), 1.0)
        assert fit.contrast == pytest.approx(0.0, abs=1e-15)

    def test_all_points_outside_interval(self):
        sample = ObservationSample([1.5, 2.5], [1.0, 0.0])
        fit = fit_least_squares(sample, haar_model(1))
        assert np.all(fit.coeffs == 0.0)
        assert fit.gram_rank == 0
        assert fit.contrast == pytest.approx(0.5)

    def test_residual_orthogonality(self, rng):
        for _ in range(20):
            sample = random_sample(rng, int(rng.integers(10, 120)))
            model = [haar_model(2), dyadic_model(1, 2), trig_model(2)][
                int(rng.integers(3))
            ]
            fit = fit_least_squares(sample, model)
            design = design_matrix(model, sample.u)
            residual = sample.delta - design @ fit.coeffs
            np.testing.assert_allclose(design.T @ residual, 0.0, atol=1e-8)

    def test_projection_optimality_under_perturbation(self, rng):
        sample = random_sample(rng, 60)
        model = dyadic_model(1, 1)
        fit = fit_least_squares(sample, model)
        design = design_matrix(model, sample.u)

        def contrast(coeffs):
            return float(np.mean((sample.delta - design @ coeffs) ** 2))

        base = contrast(fit.coeffs)
        for _ in range(50):
            probe = fit.coeffs + rng.normal(0, 0.1, fit.coeffs.size)
            assert contrast(probe) >= base - 1e-12

    def test_histogram_equivalence_with_empty_bins(self, rng):
        # least squares on the histogram basis = bin means, 0 on empty bins
        sample = ObservationSample([0.05, 0.1, 0.9], [1.0, 0.0, 1.0])
        dim = 8
        fit = fit_least_squares(sample, haar_model(3))
        step = birge_histogram(sample, dim)
        centers = (np.arange(dim) + 0.5) / dim
        np.testing.assert_allclose(fit(centers), step(centers), atol=1e-10)
        assert fit.gram_rank == 2  # two occupied bins

    def test_contrast_decreases_along_nested_models(self, rng):
        for _ in range(10):
            sample = random_sample(rng, 80)
            pairs = [
                (haar_model(1), haar_model(3)),
                (dyadic_model(1, 0), dyadic_model(1, 3)),
                (trig_model(1), trig_model(4)),
            ]
            for small, large in pairs:
                c_small = fit_least_squares(sample, small).contrast
                c_large = fit_least_squares(sample, large).contrast
                assert c_large <= c_small + 1e-12

    def test_matches_dense_oracle(self, rng):
        # well-conditioned models; ill-conditioned ones are gated on their
        # contrast and rank by TestCollectionScan
        models = [haar_model(3), dyadic_model(2, 1), poly_model(3, 1), trig_model(2)]
        for _ in range(40):
            sample = random_sample(rng, int(rng.integers(2, 300)), p_outside=0.1)
            for model in models:
                fit = fit_least_squares(sample, model)
                dense = dense_least_squares(sample, model)
                assert fit.gram_rank == dense.gram_rank
                assert abs(fit.contrast - dense.contrast) <= 1e-12
                np.testing.assert_allclose(fit.coeffs, dense.coeffs, rtol=0, atol=1e-12)


class TestRegressionPenalty:
    def test_plain_dimension_penalty(self):
        assert regression_penalty(trig_model(1), 100, 4.0) == pytest.approx(0.12)

    def test_degree_zero_correction_is_plain(self):
        assert regression_penalty(dyadic_model(3, 0), 1000, 4.0) == pytest.approx(0.032)

    def test_boundary_arithmetic(self):
        assert regression_penalty(haar_model(0), 1, 4.0) == pytest.approx(4.0)

    @pytest.mark.parametrize("kappa0", [0.0, -1.0, float("nan"), float("inf")])
    def test_kappa0_must_be_positive(self, kappa0):
        with pytest.raises(ValueError, match="kappa0"):
            regression_penalty(haar_model(0), 10, kappa0)

    def test_degree_correction_value(self):
        expected = 4.0 * (2.0 + math.log(2.0) ** 2.5) / 100.0
        assert regression_penalty(dyadic_model(0, 1), 100, 4.0) == pytest.approx(expected)


class TestAdaptiveRegression:
    def test_single_model_collection(self):
        # sqrt(n)/ln(n) = 4.58 at n = 1000, so the trig collection is one model
        assert build_collection(trig_family(), 1000, "regression") == [trig_model(1)]
        sample = generate(SimModel(1), 1000, 0)
        est = fit_cdf_regression(sample, trig_family())
        assert est.metadata["model"] == "trig(m=1, dim=3)"

    def test_selection_matches_exhaustive_rescan(self, rng):
        for _ in range(10):
            sample = generate(SimModel(3), 300, rng)
            est = fit_cdf_regression(sample)
            noise_scale = est.metadata["noise_scale"]
            coll = build_collection(dyadic_family(9), sample.n, "regression")
            scores = []
            for model in coll:
                fit = dense_least_squares(sample, model)
                penalty = noise_scale * regression_penalty(model, sample.n)
                scores.append((fit.contrast + penalty, model))
            best = min(s for s, _ in scores)
            achieved = est.metadata["contrast"] + est.metadata["penalty"]
            assert achieved == pytest.approx(best, abs=1e-12)
            winners = [m for s, m in scores if s <= best + 1e-15]
            assert min(m.dim for m in winners) >= est.evaluator.model.dim

    def test_uniform_model_grid_error_shrinks(self):
        sample = generate(SimModel(1), 1000, 13)
        est = fit_cdf_regression(sample)
        xs = np.linspace(0, 1, 512)
        mse = float(np.mean((est(xs) - xs) ** 2))
        assert mse < 0.002  # published benchmark value is ~0.0003

    def test_clamp_option(self, rng):
        sample = generate(SimModel(1), 60, 2)
        raw = fit_cdf_regression(sample)
        clamped = fit_cdf_regression(sample, clamp=True)
        xs = np.linspace(0, 1, 256)
        assert np.all(clamped(xs) >= 0.0) and np.all(clamped(xs) <= 1.0)
        np.testing.assert_allclose(np.clip(raw(xs), 0, 1), clamped(xs))

    @settings(max_examples=50, deadline=None, database=None)
    @given(tied_samples(min_size=2))
    def test_clamped_range_on_tied_and_outside_times(self, sample):
        est = fit_cdf_regression(sample, clamp=True)
        values = est(np.linspace(0.0, 1.0, 512))
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_noise_scale_recorded(self):
        sample = generate(SimModel(1), 200, 4)
        est = fit_cdf_regression(sample)
        assert 0.0 < est.metadata["noise_scale"] < 0.5


def sparse_samples():
    """Samples with empty pieces, points outside [0, 1] or constant statuses."""
    rng = np.random.default_rng(7)
    samples = []
    for n in (60, 200, 1000):
        u = rng.random(n)
        samples += [ObservationSample(u, np.zeros(n)), ObservationSample(u, np.ones(n))]
    u = np.concatenate([rng.random(150), 1.0 + rng.random(50), -rng.random(10)])
    samples.append(ObservationSample(u, (rng.random(u.size) < 0.5).astype(float)))
    # points only near 0 and 1 leave the middle pieces empty
    u = np.concatenate([0.1 * rng.random(100), 0.9 + 0.1 * rng.random(5)])
    samples.append(ObservationSample(u, (rng.random(u.size) < u).astype(float)))
    # a gap of whole pieces at the rich subdivisions, with points on both sides
    for n in (200, 1000, 5000):
        for lo, hi in ((0.25, 0.5), (0.5, 0.75), (0.125, 0.875)):
            inside = rng.random(n)
            inside = inside[(inside < lo) | (inside >= hi)]
            u = np.concatenate([inside, 1.0 + rng.random(n // 10), -rng.random(n // 10)])
            delta = (rng.random(u.size) < np.clip(u, 0.0, 1.0)).astype(float)
            samples.append(ObservationSample(u, delta))
    return samples


class TestCollectionScan:
    """The one-pass scan of fit_cdf_regression against dense fits."""

    @pytest.mark.parametrize(
        "family",
        [dyadic_family(), haar_family(), poly_family(2), trig_family()],
        ids=["dyadic", "haar", "poly2", "trig"],
    )
    def test_matches_dense_oracle(self, family):
        for seed in range(3):
            for model_id in range(1, 6):
                for n in (60, 200, 1000, 5000):
                    sample = generate(SimModel(model_id), n, seed)
                    try:
                        dense, noise, best = dense_selection(sample, family)
                    except EmptyCollectionError:
                        with pytest.raises(EmptyCollectionError):
                            fit_cdf_regression(sample, family)
                        continue
                    fits, pilot = _fit_collection(
                        sample, [fit.model for fit in dense]
                    )
                    assert [f.model for f in fits] == [f.model for f in dense]
                    for fast, slow in zip(fits, dense):
                        assert fast.gram_rank == slow.gram_rank
                        assert abs(fast.contrast - slow.contrast) <= 1e-12
                    assert abs(pilot - noise) <= 1e-12
                    est = fit_cdf_regression(sample, family)
                    assert est.evaluator.model == best.model
                    assert est.metadata["gram_rank"] == best.gram_rank
                    np.testing.assert_allclose(
                        est.evaluator.coeffs, best.coeffs, rtol=0, atol=1e-12
                    )

    def test_degenerate_inputs_match_dense(self):
        # Near-exact fits make every contrast a rounding residue. The closed
        # form ||delta||^2 - 2c'b + b'Gb loses it to cancellation: on all
        # ones at n = 1000 it picked dyadic(level=1, degree=3, dim=8) with a
        # contrast of -6.7e-16, where the dense path keeps dim 1.
        for sample in sparse_samples():
            for family in (dyadic_family(), haar_family()):
                _, _, best = dense_selection(sample, family)
                est = fit_cdf_regression(sample, family)
                assert est.metadata["model"] == best.model.describe()
                assert est.metadata["gram_rank"] == best.gram_rank
                assert est.metadata["noise_scale"] >= 0.0

    # Higher-degree columns on half-empty pieces make the Gram matrices so
    # ill-conditioned that the scan's and the dense coefficients of some
    # candidates differ by up to 1.6e-4 (dyadic, degree up to 9), 2.9e-10
    # (poly degree 2) and 3.1e-11 (trig), while every contrast still agrees
    # to 2.1e-14. The coefficient gate runs on the families whose Gram
    # blocks stay well conditioned.
    @pytest.mark.parametrize(
        "family, gate_coeffs",
        [
            (dyadic_family(), False),
            (dyadic_family(1), True),
            (haar_family(), True),
            (poly_family(1), True),
            (poly_family(2), False),
            (trig_family(), False),
        ],
        ids=["dyadic", "dyadic1", "haar", "poly1", "poly2", "trig"],
    )
    def test_every_candidate_matches_dense_on_sparse_samples(self, family, gate_coeffs):
        for sample in sparse_samples():
            try:
                dense, noise, _ = dense_selection(sample, family)
            except EmptyCollectionError:
                continue
            fits, pilot = _fit_collection(sample, [fit.model for fit in dense])
            assert [f.model for f in fits] == [f.model for f in dense]
            assert abs(pilot - noise) <= 1e-12
            for fast, slow in zip(fits, dense):
                assert fast.gram_rank == slow.gram_rank
                assert abs(fast.contrast - slow.contrast) <= 1e-12
                if gate_coeffs:
                    np.testing.assert_allclose(fast.coeffs, slow.coeffs, rtol=0, atol=1e-12)


def small_sparse_samples():
    """The n <= 60 samples of ``sparse_samples`` plus gapped ones at n = 60.

    Small enough for exact rational least squares. The gapped samples
    leave part of a piece empty, so its high-degree Gram blocks run from
    well conditioned up to numerically singular.
    """
    samples = [sample for sample in sparse_samples() if sample.n <= 60]
    rng = np.random.default_rng(5)
    for lo, hi in ((0.25, 0.5), (0.5, 0.75), (0.125, 0.875)):
        u = rng.random(400)
        u = u[(u < lo) | (u >= hi)][:60]
        samples.append(ObservationSample(u, (rng.random(u.size) < u).astype(float)))
    return samples


class TestExactLeastSquares:
    """The scan and the dense normal equations against an exact rational solve.

    For a candidate with Gram condition number cond(G) <= 1e8 (below the
    1e-10 rank cut, so no direction is dropped) each float path must lie
    within ``ERROR_FACTOR * cond(G) * 2**-52 * max(1, |b|_inf)`` of the
    exact solution b, in the largest coefficient error. Above that
    condition number neither path is gated; the test only reports which
    one is nearer, since near the rank cut both can be off by 1e3 or more.
    """

    ERROR_FACTOR = 64.0
    MAX_COND = 1e8

    def test_well_conditioned_candidates_within_bound(self):
        models = [dyadic_model(level, degree) for level in (0, 1) for degree in range(10)]
        nearer = {"scan": 0, "dense": 0, "tie": 0}
        gated, worst = 0, 0.0
        for sample in small_sparse_samples():
            fits, _ = _fit_collection(sample, models)
            for model, fit in zip(models, fits):
                exact = exact_least_squares(sample, model)
                assert exact is not None  # every Gram matrix here is nonsingular
                design = design_matrix(model, sample.u)
                cond = np.linalg.cond(design.T @ design / sample.n)
                scan_err = np.max(np.abs(fit.coeffs - exact))
                dense_err = np.max(np.abs(dense_least_squares(sample, model).coeffs - exact))
                key = "tie" if scan_err == dense_err else "scan" if scan_err < dense_err else "dense"
                nearer[key] += 1
                if cond <= self.MAX_COND:
                    scale = cond * 2.0**-52 * max(1.0, np.max(np.abs(exact)))
                    assert scan_err <= self.ERROR_FACTOR * scale, (model, cond, scan_err)
                    assert dense_err <= self.ERROR_FACTOR * scale, (model, cond, dense_err)
                    gated += 1
                    worst = max(worst, scan_err / scale, dense_err / scale)
        assert gated >= 50
        print(
            f"exact least squares: {gated} candidates gated, worst error "
            f"{worst:.2f} x cond * eps * max(1, |b|), nearer path {nearer}"
        )

    def test_oracle_on_known_solutions(self):
        # two points per bin: the fit is the bin means, and the basis
        # functions are sqrt(2) on their bin, so b = mean / sqrt(2) rounded once
        sample = ObservationSample([0.1, 0.2, 0.6, 0.7], [1.0, 0.0, 1.0, 1.0])
        exact = exact_least_squares(sample, haar_model(1))
        np.testing.assert_array_equal(exact, np.array([0.5, 1.0]) / math.sqrt(2.0))
        # three points cannot determine a degree-5 polynomial
        sample = ObservationSample([0.1, 0.5, 0.9], [0.0, 1.0, 1.0])
        assert exact_least_squares(sample, dyadic_model(0, 5)) is None
