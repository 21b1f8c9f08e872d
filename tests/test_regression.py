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
from curstat import bases, regression, select_projection_model
from curstat.projection import _piece_moments
from curstat.regression import _fit_collection

from conftest import random_sample, tied_samples
from dense_oracle import (
    dense_least_squares,
    dense_piece_statistics,
    dense_selection,
    exact_least_squares,
)


def every_fit(sample, models):
    """Every model's fit from the scan's per-model solve, and the noise pilot."""
    _, pilot, fit = _fit_collection(sample, models)
    return [fit(model) for model in models], pilot


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
        families = [dyadic_family(9), haar_family(), poly_family(2), trig_family()]
        for family in families:
            for _ in range(10):
                sample = generate(SimModel(3), 300, rng)
                est = fit_cdf_regression(sample, family)
                noise_scale = est.metadata["noise_scale"]
                # the scan's penalty array charges regression_penalty's bits
                selected = est.evaluator.model
                expected = noise_scale * regression_penalty(selected, sample.n)
                assert est.metadata["penalty"] == expected
                coll = build_collection(family, sample.n, "regression")
                scores = []
                for model in coll:
                    fit = dense_least_squares(sample, model)
                    penalty = noise_scale * regression_penalty(model, sample.n)
                    scores.append((fit.contrast + penalty, model))
                best = min(s for s, _ in scores)
                achieved = est.metadata["contrast"] + est.metadata["penalty"]
                assert achieved == pytest.approx(best, abs=1e-12)
                winners = [m for s, m in scores if s <= best + 1e-15]
                assert min(m.dim for m in winners) >= selected.dim

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
                    fits, pilot = every_fit(sample, [fit.model for fit in dense])
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
        # Near-exact fits make every contrast a rounding residue, and the
        # noise pilot, hence every penalty, is near 0. The closed forms lose
        # that residue to cancellation: on all ones at n = 1000,
        # ||delta||^2 - 2c'b + b'Gb picked dim 8 (contrast -6.7e-16) and
        # ||delta||^2 - b'c dim 7 (-8.9e-16), where the dense path keeps
        # dim 1. So a near-zero pilot sends every candidate through the
        # residual pass.
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
            fits, pilot = every_fit(sample, [fit.model for fit in dense])
            assert [f.model for f in fits] == [f.model for f in dense]
            assert abs(pilot - noise) <= 1e-12
            for fast, slow in zip(fits, dense):
                assert fast.gram_rank == slow.gram_rank
                assert abs(fast.contrast - slow.contrast) <= 1e-12
                if gate_coeffs:
                    np.testing.assert_allclose(fast.coeffs, slow.coeffs, rtol=0, atol=1e-12)


class TestClosedFormContrasts:
    """Closed-form contrasts against the residual pass on the same coefficients.

    Setting the condition cut below 1 sends every candidate through the
    residual pass, which is the contrast the closed form replaces.
    """

    @staticmethod
    def residual_pass(monkeypatch, fit, *args):
        with monkeypatch.context() as patch:
            patch.setattr(regression, "_COND_CUT", -1.0)
            return fit(*args)

    def test_matches_residual_pass_at_large_n(self, monkeypatch):
        sample = generate(SimModel(3), 20000, 2)
        models = build_collection(dyadic_family(), sample.n, "regression")
        fits, pilot = every_fit(sample, models)
        slow, slow_pilot = self.residual_pass(monkeypatch, every_fit, sample, models)
        assert pilot == slow_pilot
        closed = 0
        for fast, ref in zip(fits, slow):
            assert fast.coeffs.tobytes() == ref.coeffs.tobytes()
            assert abs(fast.contrast - ref.contrast) <= 1e-12
            closed += fast.gram_cond <= regression._COND_CUT
        assert closed > len(models) // 2  # the closed form is the common case
        est = fit_cdf_regression(sample)
        ref = self.residual_pass(monkeypatch, fit_cdf_regression, sample)
        assert est.evaluator.model == ref.evaluator.model
        assert est.metadata["penalty"] == ref.metadata["penalty"]

    @pytest.mark.parametrize("status", [0.0, 1.0], ids=["zeros", "ones"])
    @pytest.mark.parametrize("outside", [False, True], ids=["inside", "outside"])
    def test_constant_status_takes_residual_pass(self, monkeypatch, status, outside):
        rng = np.random.default_rng(11)
        u = rng.random(1000)
        if outside:
            u[::10] += 1.0
        sample = ObservationSample(u, np.full(u.size, status))
        models = build_collection(dyadic_family(), sample.n, "regression")
        fits, pilot = every_fit(sample, models)
        assert pilot <= regression._PILOT_FLOOR * status
        slow, _ = self.residual_pass(monkeypatch, every_fit, sample, models)
        assert [f.contrast for f in fits] == [f.contrast for f in slow]
        est = fit_cdf_regression(sample)
        assert est.evaluator.model.dim == 1

    def test_gram_cond_at_least_one(self):
        for sample in sparse_samples():
            for family in (dyadic_family(), haar_family(), poly_family(2)):
                est = fit_cdf_regression(sample, family)
                assert est.metadata["gram_cond"] >= 1.0
        outside = ObservationSample([1.5, 2.5], [1.0, 0.0])
        assert fit_least_squares(outside, haar_model(1)).gram_cond == 1.0

    @pytest.mark.parametrize("model_id", [1, 3, 4])
    def test_gram_cond_matches_dense_gram(self, model_id):
        sample = generate(SimModel(model_id), 1000, 0)
        est = fit_cdf_regression(sample)
        assert est.metadata["gram_cond"] <= regression._COND_CUT
        design = design_matrix(est.evaluator.model, sample.u)
        dense = np.linalg.cond(design.T @ design / sample.n)
        assert est.metadata["gram_cond"] == pytest.approx(dense, rel=1e-6)


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
            fits, _ = every_fit(sample, models)
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


class TestRefinedGramBlocks:
    """The scan's per-piece statistics against dense products.

    Every Gram entry and every moment above degree 0 lies within
    ``TOL * 2**-52`` times the largest entry of its piece's dense block
    (10.5 is the worst seen on the refined dyadic levels). The degree-0
    entries are count-exact: the Gram diagonal is the piece's point
    count times m, and the moment is a per-subdivision ``np.bincount`` of
    the constant ``sqrt(m)`` over the piece's status-1 points (for trig,
    of the constant 1 on its one piece).
    """

    TOL = 64.0
    FAMILIES = [dyadic_family(), dyadic_family(0), haar_family(), poly_family(2), trig_family()]
    FAMILY_IDS = ["dyadic", "dyadic0", "haar", "poly2", "trig"]

    def assert_matches_dense(self, sample, family):
        n = sample.n
        try:
            models = build_collection(family, n, "regression")
        except EmptyCollectionError:
            # the trig regression cap, sqrt(n) / ln(n), leaves nothing below n = 1000
            assert family == trig_family() and n < 1000
            return
        x, delta = sample.sorted_inside(sample.delta)
        levels = set()
        for group, counts, (moment,), gram, _ in bases.piece_sums(models, x, [delta], gram=True):
            richest = max(group, key=lambda model: model.dim)
            m, d = richest.pieces, richest.dim // richest.pieces
            gram, moment = gram[:, :d, :d] / n, moment.T[:, :d] / n
            dense_gram, dense_moment = dense_piece_statistics(sample, richest)
            bound = self.TOL * 2.0**-52 * np.abs(dense_gram).max(axis=(1, 2))
            assert np.all(np.abs(gram - dense_gram) <= bound[:, None, None])
            assert np.all(np.abs(moment[:, 1:] - dense_moment[:, 1:]) <= bound[:, None])
            piece = np.minimum((x * m).astype(int), m - 1)
            assert counts.tolist() == np.bincount(piece, minlength=m).tolist()
            assert gram[:, 0, 0].tobytes() == (counts * float(m) / n).tobytes()
            status_sums = np.bincount(piece, np.sqrt(float(m)) * delta, m)
            assert moment[:, 0].tobytes() == (status_sums / n).tobytes()
            levels.add(m)
        assert levels == {model.pieces for model in models}

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("n", [60, 1000, 50_000])
    def test_matches_dense_blocks(self, family, n):
        if family == trig_family() and n < 1000:
            pytest.skip("the trig regression collection is empty below n = 1000")
        # the dense blocks of poly(2)'s 142 subdivisions take about 9 s per sample here
        model_ids = [3] if family == poly_family(2) and n == 50_000 else range(1, 6)
        for model_id in model_ids:
            self.assert_matches_dense(generate(SimModel(model_id), n, model_id), family)

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_matches_dense_blocks_on_sparse_samples(self, family):
        # empty finest pieces, points outside [0, 1] and constant statuses
        for sample in sparse_samples():
            self.assert_matches_dense(sample, family)


class TestSharedSums:
    """The regression scan reads the density scan's sums and sorts once."""

    @pytest.mark.parametrize("family", [dyadic_family(), haar_family(), poly_family(2)])
    @pytest.mark.parametrize("n", [200, 5000])
    def test_moments_are_subdensity_coefficients(self, monkeypatch, family, n):
        assert build_collection(family, n, "regression") == build_collection(family, n, "density")
        self.assert_moments_are_subdensity_coefficients(monkeypatch, family, n)

    def test_trig_moments_are_subdensity_coefficients(self, monkeypatch):
        # the density scan run over the trig regression collection, which is
        # cut at sqrt(n) / ln(n) and empty below n = 1000
        self.assert_moments_are_subdensity_coefficients(monkeypatch, trig_family(), 5000)

    @staticmethod
    def assert_moments_are_subdensity_coefficients(monkeypatch, family, n):
        sample = generate(SimModel(3), n, 1)
        models = build_collection(family, n, "regression")
        solved, scored = {}, {}
        solve, prefix_products = regression._solve_blocks, regression._prefix_products

        def recording_solve(gram, moment):
            # a (pieces, k) moment belongs to the model with k functions per piece
            solved[moment.shape] = moment.T.ravel()
            return solve(gram, moment)

        def recording_products(gram, moment):
            # the moments of a subdivision's richest model, read by its Cholesky scores
            products = prefix_products(gram, moment)
            scored[moment.shape] = moment.T.ravel(), products is not None
            return products

        monkeypatch.setattr(regression, "_solve_blocks", recording_solve)
        monkeypatch.setattr(regression, "_prefix_products", recording_products)
        every_fit(sample, models)
        assert len(solved) == len(models)
        # a subdivision is factored only when it holds a model other than the richest
        factored = {model.pieces for model in models[:-1]}
        assert {pieces for pieces, _ in scored} == factored
        assert any(taken for _, taken in scored.values())
        weights = sample.delta, np.ones(n)
        for group, (sub, _) in _piece_moments(models, sample, weights):
            top = max(model.dim for model in group) // group[0].pieces
            if group[0].pieces in factored:
                assert scored[group[0].pieces, top][0].tobytes() == sub[:top].ravel().tobytes()
            for model in group:
                k = model.dim // model.pieces
                assert solved[model.pieces, k].tobytes() == sub[:k].ravel().tobytes()
        sub_estimate, _ = select_projection_model(sample, models)
        model = sub_estimate.model
        key = model.pieces, model.dim // model.pieces
        assert solved[key].tobytes() == sub_estimate.coeffs.tobytes()

    @pytest.mark.parametrize(
        "family, sample",
        [
            (dyadic_family(), generate(SimModel(3), 50_000, 2)),
            (dyadic_family(), generate(SimModel(5), 1000, 0)),
            (haar_family(), generate(SimModel(3), 5000, 2)),
            (dyadic_family(), ObservationSample(np.linspace(0.0, 1.0, 1000), np.ones(1000))),
        ],
        ids=["dyadic-50000", "dyadic-1000", "haar-5000", "constant"],
    )
    def test_one_basis_evaluation_per_residual_level(self, monkeypatch, family, sample):
        calls, sorts = [], []
        legendre, argsort = bases.piecewise_legendre, np.argsort

        def counted_legendre(pieces, degree, x):
            calls.append((pieces, degree))
            return legendre(pieces, degree, x)

        def counted_argsort(*args, **kwargs):
            sorts.append(args)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(bases, "piecewise_legendre", counted_legendre)
        monkeypatch.setattr(np, "argsort", counted_argsort)
        models = build_collection(family, sample.n, "regression")
        fits, pilot = every_fit(sample, models)
        monkeypatch.undo()

        total = float(sample.delta @ sample.delta) / sample.n
        residual = {
            fit.model.pieces
            for fit in fits
            if fit.model == models[-1]
            or fit.gram_cond > regression._COND_CUT
            or pilot <= regression._PILOT_FLOOR * total
        }

        def top_degree(pieces):
            return max(model.degree for model in models if model.pieces == pieces)

        finest = max(model.pieces for model in models)
        assert calls[0] == (finest, max(model.degree for model in models))
        assert sorted(calls[1:]) == sorted((pieces, top_degree(pieces)) for pieces in residual)
        assert len(sorts) == 1

    @pytest.mark.parametrize("family", [poly_family(2), trig_family()], ids=["poly2", "trig"])
    @pytest.mark.parametrize(
        "sample",
        [
            generate(SimModel(3), 5000, 2),
            ObservationSample(np.linspace(0.0, 1.0, 1000), np.ones(1000)),
        ],
        ids=["5000", "constant"],
    )
    def test_one_basis_evaluation_per_subdivision(self, monkeypatch, family, sample):
        # constant statuses send every candidate through the residual pass,
        # which reuses the rows its subdivision's sums were taken from
        calls = []
        legendre, trig_rows = bases.piecewise_legendre, bases.trig_rows

        def counted_legendre(pieces, degree, x):
            calls.append((pieces, degree))
            return legendre(pieces, degree, x)

        def counted_trig_rows(harmonics, x):
            calls.append(("trig", harmonics))
            return trig_rows(harmonics, x)

        monkeypatch.setattr(bases, "piecewise_legendre", counted_legendre)
        monkeypatch.setattr(bases, "trig_rows", counted_trig_rows)
        models = build_collection(family, sample.n, "regression")
        _fit_collection(sample, models)
        monkeypatch.undo()

        if family == trig_family():
            assert calls == [("trig", models[-1].harmonics)]
        else:
            assert sorted(calls) == sorted((model.pieces, model.degree) for model in models)


def cholesky_samples():
    """Model samples at n = 60 to 5e4, the sparse ones and constant statuses outside [0, 1]."""
    samples = [
        generate(SimModel(model_id), n, model_id)
        for model_id in range(1, 6)
        for n in (60, 200, 1000, 5000, 50_000)
    ]
    rng = np.random.default_rng(11)
    for status in (0.0, 1.0):
        u = rng.random(1000)
        u[::10] += 1.0
        samples.append(ObservationSample(u, np.full(u.size, status)))
    return samples + sparse_samples()


class TestCholeskyScan:
    """Contrasts from one Cholesky factor per subdivision against per-candidate solves.

    A subdivision whose top-degree blocks are positive definite with
    eigenvalue condition number at most ``_COND_CUT`` scores its models
    by one factor; the others, and every subdivision when the noise
    pilot is near 0, solve each candidate by SVD as ``fit`` does.
    """

    FAMILIES = [dyadic_family(9), dyadic_family(3), haar_family()]
    FAMILY_IDS = ["dyadic9", "dyadic3", "haar"]

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_candidate_contrasts_match_closed_form(self, family):
        for sample in cholesky_samples():
            models = build_collection(family, sample.n, "regression")
            contrasts, _, fit = _fit_collection(sample, models)
            closed = np.array([fit(model).contrast for model in models])
            assert np.all(np.abs(contrasts - closed) <= 1e-12)

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_selected_model_matches_per_candidate_route(self, family):
        for sample in cholesky_samples():
            models = build_collection(family, sample.n, "regression")
            fits, pilot = every_fit(sample, models)
            penalties = [pilot * regression_penalty(fit.model, sample.n) for fit in fits]
            scores = [fit.contrast + penalty for fit, penalty in zip(fits, penalties)]
            best = scores.index(min(scores))
            ref, est = fits[best], fit_cdf_regression(sample, family)
            assert est.evaluator.model == ref.model
            assert est.evaluator.coeffs.tobytes() == ref.coeffs.tobytes()
            assert est.metadata["gram_rank"] == ref.gram_rank
            expected = {
                "contrast": ref.contrast,
                "penalty": penalties[best],
                "noise_scale": pilot,
                "gram_cond": ref.gram_cond,
            }
            for key, value in expected.items():
                assert np.float64(est.metadata[key]).tobytes() == np.float64(value).tobytes()

    def test_solves_the_richest_and_the_selected_model(self, monkeypatch):
        calls = []
        solve = regression._solve_blocks

        def counted_solve(gram, moment):
            calls.append(moment.shape)
            return solve(gram, moment)

        monkeypatch.setattr(regression, "_solve_blocks", counted_solve)
        sample = generate(SimModel(3), 50_000, 2)
        est = fit_cdf_regression(sample)
        richest = build_collection(dyadic_family(), sample.n, "regression")[-1]
        selected = est.evaluator.model
        assert selected != richest
        assert calls == [
            (model.pieces, model.dim // model.pieces) for model in (richest, selected)
        ]

    def test_factors_only_levels_it_scores(self, monkeypatch):
        # no factor before the pilot clears the floor, none for the richest model
        calls = []
        prefix_products = regression._prefix_products

        def counted_products(gram, moment):
            calls.append(gram.shape[0])
            return prefix_products(gram, moment)

        monkeypatch.setattr(regression, "_prefix_products", counted_products)
        fit_cdf_regression(ObservationSample(np.linspace(0.0, 1.0, 1000), np.ones(1000)))
        assert calls == []
        sample = generate(SimModel(3), 50_000, 2)
        fit_cdf_regression(sample)
        models = build_collection(dyadic_family(), sample.n, "regression")
        assert sorted(calls) == sorted({model.pieces for model in models[:-1]})

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_empty_or_ill_conditioned_levels_take_svd_route(self, monkeypatch, family):
        # the dense blocks decide which subdivisions must take the SVD route;
        # those within a factor 10 of the cut are left unasserted
        solved = set()
        solve = regression._solve_blocks

        def recording_solve(gram, moment):
            solved.add(moment.shape)
            return solve(gram, moment)

        monkeypatch.setattr(regression, "_solve_blocks", recording_solve)
        routes = {"svd": 0, "cholesky": 0}
        for sample in sparse_samples():
            models = build_collection(family, sample.n, "regression")
            solved.clear()
            _, pilot, _ = _fit_collection(sample, models)
            near_zero = pilot <= regression._PILOT_FLOOR * float(sample.delta.mean())
            for pieces in {model.pieces for model in models}:
                group = [model for model in models if model.pieces == pieces]
                gram, _ = dense_piece_statistics(sample, max(group, key=lambda m: m.dim))
                eig = np.linalg.eigvalsh(gram)
                lo, hi = eig[:, 0].min(), eig[:, -1].max()
                if near_zero or lo <= 0.0 or hi > 10 * regression._COND_CUT * lo:
                    route = "svd"
                elif hi < regression._COND_CUT / 10 * lo:
                    route = "cholesky"
                else:
                    continue
                routes[route] += 1
                for model in group:
                    if model != models[-1]:
                        shape = pieces, model.dim // pieces
                        assert (shape in solved) == (route == "svd"), (model, route)
        assert routes["svd"] >= 10 and routes["cholesky"] >= 10, routes
