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
from curstat.data import _SortedStack
from curstat.projection import _stacked_moments
from curstat.regression import _fit_collections

from conftest import random_sample, tied_samples
from dense_oracle import (
    dense_least_squares,
    dense_piece_factors,
    dense_piece_statistics,
    dense_selection,
    exact_least_squares,
    signed_factors,
)


def every_fit(sample, models):
    """Every model's fit from the scan's per-model solve, and the noise pilot."""
    _, (pilot,), fit = _fit_collections(_SortedStack([sample]), models)
    return [fit(model, [0])[0] for model in models], pilot


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


def tied_piece_samples():
    """Samples whose pieces hold many points at two or three distinct times, statuses mixed.

    At 4 or 8 pieces, each piece's block has rank 2 or 3 at any degree,
    and the coarser and finer levels are rank-deficient too.
    """
    rng = np.random.default_rng(3)
    samples = []
    for times in (2, 3):
        for pieces in (4, 8):
            u = (np.arange(pieces)[:, None] + rng.random((pieces, times))) / pieces
            u = np.repeat(u.ravel(), 200)
            samples.append(ObservationSample(u, (rng.random(u.size) < u).astype(float)))
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
        # noise pilot, hence every penalty, is near 0: on all ones, residue
        # of about 1e-31 in the factors' tails picked dyadic level 1, 2 or 4,
        # where the dense path keeps dim 1. So constant statuses inside
        # [0, 1] score every model exactly, and the first one wins.
        for sample in sparse_samples():
            for family in (dyadic_family(), haar_family()):
                _, _, best = dense_selection(sample, family)
                est = fit_cdf_regression(sample, family)
                assert est.metadata["model"] == best.model.describe()
                assert est.metadata["gram_rank"] == best.gram_rank
                assert est.metadata["noise_scale"] >= 0.0

    def test_tied_times_match_dense(self):
        # Householder QR reads the rounding residue of a rank-deficient block
        # as a direction; the rank cut must not let it explain part of the
        # statuses
        family = dyadic_family(5)
        cut = 0
        for sample in tied_piece_samples():
            dense, noise, best = dense_selection(sample, family)
            fits, pilot = every_fit(sample, [fit.model for fit in dense])
            for fast, slow in zip(fits, dense):
                assert fast.gram_rank == slow.gram_rank
                assert abs(fast.contrast - slow.contrast) <= 1e-12
                cut += fast.gram_rank < fast.model.dim
            assert abs(pilot - noise) <= 1e-12
            est = fit_cdf_regression(sample, family)
            assert est.evaluator.model == best.model
            assert est.metadata["gram_rank"] == best.gram_rank
        assert cut >= 20

    # Higher-degree columns on half-empty pieces make the Gram matrices so
    # ill-conditioned that the scan's and the dense coefficients of some
    # candidates differ by up to 7.6e-5 (dyadic, degree up to 9), 2.9e-10
    # (poly degree 2) and 1.9e-11 (trig), while every contrast still agrees
    # to 1.8e-14. The coefficient gate runs on the families whose Gram
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
    """Contrasts read from the factors against a residual pass over the points.

    A model whose subdivision keeps full rank gets its contrast from the
    tail of the factors' last column, with no pass over the points; here
    each contrast is checked against the mean squared residual of the
    model's own coefficients.
    """

    def test_matches_residual_pass_at_large_n(self, monkeypatch):
        sample = generate(SimModel(3), 20000, 2)
        models = build_collection(dyadic_family(), sample.n, "regression")
        solved = []
        solve = regression._solve_stack

        def recording_solve(r, k):
            solved.append((r.shape[1], k))
            return solve(r, k)

        monkeypatch.setattr(regression, "_solve_stack", recording_solve)
        (contrasts,), (pilot,), fit = _fit_collections(_SortedStack([sample]), models)
        scored = len(models) - len(solved)
        inside = (sample.u >= 0.0) & (sample.u <= 1.0)
        for model, contrast in zip(models, contrasts):
            residual = sample.delta - design_matrix(model, sample.u) @ fit(model, [0])[0].coeffs
            assert abs(contrast - np.mean(residual**2)) <= 1e-12
            if model == models[-1]:
                assert abs(pilot - np.mean(residual[inside] ** 2)) <= 1e-12
        assert scored > len(models) // 2  # the tail is the common case
        est = fit_cdf_regression(sample)
        scores = contrasts + pilot * np.array([regression_penalty(m, sample.n) for m in models])
        assert est.evaluator.model == models[int(scores.argmin())]
        assert est.metadata["contrast"] == contrasts[int(scores.argmin())]

    @pytest.mark.parametrize("status", [0.0, 1.0], ids=["zeros", "ones"])
    @pytest.mark.parametrize("outside", [False, True], ids=["inside", "outside"])
    def test_constant_statuses_fit_exactly(self, status, outside):
        # every family holds the constant, so constant statuses inside [0, 1]
        # are fitted exactly by every model: each contrast is the statuses
        # outside [0, 1] over n, the pilot is 0, and the first model wins
        rng = np.random.default_rng(11)
        u = rng.random(1000)
        if outside:
            u[::10] += 1.0
        sample = ObservationSample(u, np.full(u.size, status))
        outside_rss = status * np.count_nonzero(u > 1.0)
        for family in (dyadic_family(), haar_family(), poly_family(2), trig_family()):
            models = build_collection(family, sample.n, "regression")
            (contrasts,), (pilot,), _ = _fit_collections(_SortedStack([sample]), models)
            assert contrasts.tolist() == [outside_rss / sample.n] * len(models)
            assert pilot == 0.0
            est = fit_cdf_regression(sample, family)
            assert est.evaluator.model == models[0]
            inside = u <= 1.0
            np.testing.assert_allclose(est(u[inside]), status, rtol=0, atol=1e-12)
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
        assert est.metadata["gram_cond"] <= 1e6
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
    exact solution b, in the largest coefficient error. The scan solves
    the triangular factors, whose condition number is ``sqrt(cond(G))``,
    and must also lie within ``ERROR_FACTOR * sqrt(cond(G)) * 2**-52 *
    max(1, |b|_inf)`` (12.2 is the worst seen; the dense normal equations
    reach about 1500). Above that condition number neither path is gated;
    the test only reports which one is nearer, since near the rank cut
    both can be off by 1e3 or more.
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
                    assert scan_err <= self.ERROR_FACTOR * scale / np.sqrt(cond), (model, cond)
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
    """The scan's per-piece triangular factors against dense ones.

    Each piece's factor R of ``[X_j | delta_j]`` (whose ``R'R`` is the
    piece's Gram block) is compared with a QR of the piece's rows of the
    dense design, both signed to a non-negative diagonal. Row i of a
    factor is unique while the leading ``i + 1`` columns of X_j have full
    rank, and rounding moves it in proportion to their condition number
    ``cond_i`` and to the square root of the piece's point count, the
    length of its inner products: every entry of row i lies within
    ``TOL * max(1, cond_i) * sqrt(count) * 2**-52`` times the largest
    entry of the piece's dense factor. The worst seen is 3.2, on the
    refined dyadic levels at n = 5e4; without the count the bound would
    need a factor 88 (trig at n = 5e4, whose one piece holds every
    point). Rows whose leading block is singular are not unique and are
    not compared. A piece is occupied, the rule the scan reads, exactly
    when its factor's first entry is nonzero, and its squared first
    entry is its point count times m.
    """

    TOL = 8.0
    FAMILIES = [dyadic_family(), dyadic_family(0), haar_family(), poly_family(2), trig_family()]
    FAMILY_IDS = ["dyadic", "dyadic0", "haar", "poly2", "trig"]

    def assert_matches_dense(self, sample, family):
        try:
            models = build_collection(family, sample.n, "regression")
        except EmptyCollectionError:
            # the trig regression cap, sqrt(n) / ln(n), leaves nothing below n = 1000
            assert family == trig_family() and sample.n < 1000
            return
        stack = _SortedStack([sample])
        x = stack.x
        levels = set()
        for group, r in bases.piece_factors(models, stack):
            m, d = group[0].pieces, r.shape[-1] - 1
            if family == trig_family():
                model = trig_model((d - 1) // 2)
            else:
                model = bases.BasisModel(family, pieces=m, degree=d - 1)
            dense = dense_piece_factors(sample, model)
            piece = np.minimum((x * m).astype(int), m - 1)
            counts = np.bincount(piece, minlength=m)
            scale = np.abs(dense).max(axis=(1, 2)) * np.sqrt(counts) * 2.0**-52
            for i in range(d + 1):
                lead = np.linalg.svd(dense[:, : min(i + 1, d), : min(i + 1, d)], compute_uv=False)
                unique = lead[:, -1] > 0.0
                cond = np.maximum(1.0, lead[unique, 0] / lead[unique, -1])
                error = np.abs(signed_factors(r)[unique, i] - dense[unique, i]).max(axis=1)
                assert np.all(error <= self.TOL * cond * scale[unique]), (m, i)
            assert ((r[:, 0, 0] != 0.0) == (counts > 0)).all()
            np.testing.assert_allclose(r[:, 0, 0] ** 2, counts * float(m), rtol=1e-13)
            levels.add(m)
        assert levels == {model.pieces for model in models}

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("n", [60, 1000, 50_000])
    def test_matches_dense_blocks(self, family, n):
        if family == trig_family() and n < 1000:
            pytest.skip("the trig regression collection is empty below n = 1000")
        # the dense factors of poly(2)'s 142 subdivisions take about 7 s per sample here
        model_ids = [3] if family == poly_family(2) and n == 50_000 else range(1, 6)
        for model_id in model_ids:
            self.assert_matches_dense(generate(SimModel(model_id), n, model_id), family)

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_matches_dense_blocks_on_sparse_samples(self, family):
        # empty finest pieces, points outside [0, 1] and constant statuses
        for sample in sparse_samples():
            self.assert_matches_dense(sample, family)

    @pytest.mark.parametrize("times", ["rounded", "single", "clustered"])
    def test_factored_rows_stay_near_the_points(self, monkeypatch, times):
        # tied or clustered times must not pad every piece to the fullest
        # one: a subdivision factors at most twice its points plus d + 1 rows
        # per piece, no factorization takes more than _QR_ROWS rows besides
        # a stacked factor, and the factors still match dense ones
        rng = np.random.default_rng(5)
        n = 20_000
        u = {
            "rounded": np.round(rng.random(n), 2),
            "single": np.full(n, 0.3),
            "clustered": np.where(rng.random(n) < 0.9, 0.5 + 1e-3 * rng.random(n), rng.random(n)),
        }[times]
        sample = ObservationSample(u, (rng.random(n) < u).astype(float))
        stack = _SortedStack([sample])
        factored = []
        r_factor = bases._r_factor

        def counted_factor(blocks):
            factored.append(math.prod(blocks.shape[:-1]))
            return r_factor(blocks)

        monkeypatch.setattr(bases, "_r_factor", counted_factor)
        for pieces, degree in ((256, 9), (64, 2), (1, 0)):
            factored.clear()
            bases._padded_factors(pieces, degree, stack)
            d = degree + 2
            assert sum(factored) <= 2 * (n + pieces * (d + 1)), (pieces, degree)
            assert max(factored) <= bases._QR_ROWS + d
        monkeypatch.undo()
        self.assert_matches_dense(sample, dyadic_family())

    def test_one_factorization_per_run(self, monkeypatch):
        # each run of occupied pieces is factored on its own, at its own
        # padded height, even beside a run of the same height
        sample = generate(SimModel(3), 1000, 3)
        rounded = ObservationSample(np.round(sample.u, 2), sample.delta)
        samples = [sample, sample, rounded]
        stack = _SortedStack(samples)
        sizes, x = stack.sizes, stack.x
        pieces, degree = 16, 9
        piece = np.minimum((x * pieces).astype(int), pieces - 1)
        piece += np.repeat(np.arange(len(samples)) * pieces, sizes)
        counts = np.bincount(piece, minlength=len(samples) * pieces)
        occupied = np.flatnonzero(counts)
        cuts, rows = bases._runs(counts[occupied].tolist(), (occupied // pieces).tolist(), degree + 2)
        assert len(rows) == 3 and rows[0] == rows[1]
        factored = []
        r_factor = bases._r_factor

        def counted_factor(blocks):
            factored.append(blocks.shape)
            return r_factor(blocks)

        monkeypatch.setattr(bases, "_r_factor", counted_factor)
        bases._padded_factors(pieces, degree, stack)
        runs = [(cuts[j + 1] - cuts[j], height, degree + 2) for j, height in enumerate(rows)]
        assert factored == runs


class TestSharedSums:
    """The regression's factors carry the density scan's sums, from one sort.

    ``R'y / n`` over the leading columns of a piece's factor is the
    piece's moment vector ``X'delta / n``, the sub-density coefficients
    of ``projection``. The two are summed by different routes, so they
    agree to rounding: every entry lies within
    ``TOL * sqrt(count) * |x_a| * |delta_j| * 2**-52 / n``, with ``x_a``
    the piece's column of the function and ``delta_j`` its statuses (2.7
    is the worst seen, on the dyadic levels at n = 5e4).
    """

    TOL = 8.0

    @pytest.mark.parametrize("family", [dyadic_family(), haar_family(), poly_family(2)])
    @pytest.mark.parametrize("n", [200, 5000])
    def test_moments_are_subdensity_coefficients(self, family, n):
        assert build_collection(family, n, "regression") == build_collection(family, n, "density")
        self.assert_moments_are_subdensity_coefficients(family, n)

    def test_trig_moments_are_subdensity_coefficients(self):
        # the density scan run over the trig regression collection, which is
        # cut at sqrt(n) / ln(n) and empty below n = 1000
        self.assert_moments_are_subdensity_coefficients(trig_family(), 5000)

    @classmethod
    def assert_moments_are_subdensity_coefficients(cls, family, n):
        sample = generate(SimModel(3), n, 1)
        models = build_collection(family, n, "regression")
        stack = _SortedStack([sample])
        x = stack.x
        factors = {g[0].pieces: r for g, r in bases.piece_factors(models, stack)}
        moments = {}
        for group, ((sub,), _) in _stacked_moments(models, stack, [stack.delta, np.ones(x.size)]):
            pieces, top = group[0].pieces, sub.shape[0]
            r = factors[pieces]
            moments[pieces] = np.einsum("jba,jb->aj", r[:, :top, :top], r[:, :top, -1]) / n
            counts = np.bincount(np.minimum((x * pieces).astype(int), pieces - 1), minlength=pieces)
            columns = np.linalg.norm(r[:, :, :top], axis=1).T
            statuses = np.linalg.norm(r[:, :, -1], axis=1)
            bound = cls.TOL * np.sqrt(counts) * columns * statuses * 2.0**-52 / n
            assert np.all(np.abs(moments[pieces] - sub) <= bound)
        assert moments.keys() == factors.keys()
        sub_estimate, _ = select_projection_model(sample, models)
        model = sub_estimate.model
        moment = moments[model.pieces][: model.dim // model.pieces].ravel()
        np.testing.assert_allclose(sub_estimate.coeffs, moment, rtol=0, atol=1e-14)

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
        # every residual sum, the pilot's included, is read from the factors,
        # so the basis is evaluated once per fit, at the finest level and the
        # largest degree, and the points are sorted once
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
        every_fit(sample, models)
        monkeypatch.undo()

        finest = max(model.pieces for model in models)
        assert calls == [(finest, max(model.degree for model in models))]
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
        # one evaluation per subdivision, for constant statuses too; the trig
        # sample is one chunk of the tall QR
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
        _fit_collections(_SortedStack([sample]), models)
        monkeypatch.undo()

        if family == trig_family():
            assert calls == [("trig", models[-1].harmonics)]
        else:
            assert sorted(calls) == sorted((model.pieces, model.degree) for model in models)


def scan_samples():
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
    """Contrasts from the tails of one set of factors per subdivision against per-candidate solves.

    The class keeps its name from the Cholesky scan that the factors
    replaced. A subdivision whose occupied pieces' top-degree factors keep
    every singular value above ``sqrt(1e-10)`` times their largest scores
    every model by the tail of the factors' last column; the others solve
    each candidate by SVD of its factors, as ``fit`` does.
    """

    FAMILIES = [dyadic_family(9), dyadic_family(3), haar_family()]
    FAMILY_IDS = ["dyadic9", "dyadic3", "haar"]

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_candidate_contrasts_match_closed_form(self, family):
        # every candidate's contrast against its own SVD solve of the factors,
        # summed afresh: the tail plus the part the rank cut leaves
        for sample in scan_samples():
            models = build_collection(family, sample.n, "regression")
            (contrasts,), _, _ = _fit_collections(_SortedStack([sample]), models)
            stack = _SortedStack([sample])
            outside_rss = float(sample.delta.sum() - stack.delta.sum())
            factors = {g[0].pieces: r for g, r in bases.piece_factors(models, stack)}
            for model, contrast in zip(models, contrasts):
                r, k = factors[model.pieces], model.dim // model.pieces
                dropped = regression._solve_stack(r[None], k)[3][0]
                solved = (np.sum(r[:, k:, -1] ** 2) + dropped + outside_rss) / sample.n
                assert abs(contrast - solved) <= 1e-12

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_selected_model_matches_per_candidate_route(self, family):
        for sample in scan_samples():
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

    def test_solves_only_the_selected_model(self, monkeypatch):
        # every level of this sample keeps full rank, so the scan solves no
        # candidate, the richest included, and the fit solves the selected one
        calls = []
        solve = regression._solve_stack

        def counted_solve(r, k):
            calls.append((r.shape[:2], k))
            return solve(r, k)

        monkeypatch.setattr(regression, "_solve_stack", counted_solve)
        sample = generate(SimModel(3), 50_000, 2)
        est = fit_cdf_regression(sample)
        richest = build_collection(dyadic_family(), sample.n, "regression")[-1]
        selected = est.evaluator.model
        assert selected != richest
        assert calls == [((1, selected.pieces), selected.dim // selected.pieces)]

    def test_one_solve_per_distinct_pick(self, monkeypatch):
        # every level of this chunk keeps full rank, so the scan solves no
        # candidate, and each model that some samples pick is solved once,
        # over the factors of exactly those samples
        samples = [generate(SimModel(m), 1000, rep) for m in range(1, 6) for rep in range(4)]
        stacks, calls = {}, []
        factor, solve = regression.piece_factors, regression._solve_stack

        def recorded_factors(models, points):
            for group, r in factor(models, points):
                stacks[group[0].pieces] = r.reshape(len(samples), group[0].pieces, *r.shape[1:])
                yield group, r

        def recorded_solve(r, k):
            calls.append((r, k))
            return solve(r, k)

        monkeypatch.setattr(regression, "piece_factors", recorded_factors)
        monkeypatch.setattr(regression, "_solve_stack", recorded_solve)
        fits = regression._fit_cdf_regressions(_SortedStack(samples))
        picks = [est.evaluator.model for est in fits]
        distinct = list(dict.fromkeys(picks))
        assert 1 < len(distinct) < len(samples)
        assert len(calls) == len(distinct)
        for model in distinct:
            rows = [i for i, pick in enumerate(picks) if pick == model]
            stack, k = stacks[model.pieces][rows], model.dim // model.pieces
            matching = [
                r for r, called_k in calls if called_k == k and r.tobytes() == stack.tobytes()
            ]
            assert len(matching) == 1 and matching[0].shape == stack.shape

    def test_stacked_solve_is_each_sample_alone(self):
        # a stack that mixes full-rank samples with samples that cut a
        # direction: every sample's coefficients, rank, kept ratio (whose
        # square is gram_cond) and dropped sum are bitwise those of its own
        # solve
        samples = sparse_samples() + tied_piece_samples()
        samples += [generate(SimModel(m), n, m) for m in (1, 3, 5) for n in (60, 1000)]
        models = build_collection(dyadic_family(), 1000, "regression")
        cuts = set()
        for group, r in bases.piece_factors(models, _SortedStack(samples)):
            r = r.reshape(len(samples), group[0].pieces, *r.shape[1:])
            for k in {model.dim // model.pieces for model in group}:
                stacked = regression._solve_stack(r, k)
                for i in range(len(samples)):
                    alone = regression._solve_stack(r[i : i + 1], k)
                    for got, own in zip(stacked, alone):
                        assert got[i].tobytes() == own[0].tobytes()
                    cuts.add(bool(stacked[1][i] < group[0].pieces * k))
        assert cuts == {False, True}

    def test_failing_stack_scores_each_sample_alone(self, monkeypatch):
        # a subdivision whose stacked blocks fail the rank check solves every
        # sample of the stack; a sample that keeps every direction drops 0.0
        # there, so each sample's contrasts and pilot are bitwise its own call's
        samples = sparse_samples() + tied_piece_samples()
        samples += [generate(SimModel(m), n, m) for m in (1, 3, 5) for n in (60, 1000)]
        models = build_collection(dyadic_family(), 1000, "regression")
        solved = []
        solve = regression._solve_stack

        def recorded_solve(r, k):
            solved.append((r.shape[1] * k, solve(r, k)))
            return solved[-1][1]

        monkeypatch.setattr(regression, "_solve_stack", recorded_solve)
        contrasts, noise, _ = _fit_collections(_SortedStack(samples), models)
        monkeypatch.undo()
        for i, sample in enumerate(samples):
            (own,), (pilot,), _ = _fit_collections(_SortedStack([sample]), models)
            assert contrasts[i].tobytes() == own.tobytes(), i
            assert noise[i].tobytes() == pilot.tobytes(), i
        assert solved and all(len(ranks) == len(samples) for _, (_, ranks, _, _) in solved)
        assert any(
            ((ranks == full) & (dropped == 0.0)).any() and (ranks < full).any()
            for full, (_, ranks, _, dropped) in solved
        )

    def test_factors_only_levels_it_scores(self, monkeypatch):
        # one finest factorization from the points, one stacked factorization
        # per coarser level of the collection and one rank check per level
        # (an SVD unless its blocks are 1 x 1); a single model's fit factors
        # its own level only
        factored, checks = [], []
        r_factor, svd = bases._r_factor, np.linalg.svd

        def counted_factor(blocks):
            factored.append(blocks.shape)
            return r_factor(blocks)

        def counted_svd(a, *args, **kwargs):
            if kwargs.get("compute_uv") is False:
                checks.append(a.shape[-1])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(bases, "_r_factor", counted_factor)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        sample = generate(SimModel(3), 50_000, 2)
        models = build_collection(dyadic_family(), sample.n, "regression")
        fit_cdf_regression(sample)
        levels = sorted({model.pieces for model in models}, reverse=True)
        degree = max(model.degree for model in models)
        stacked = [(pieces, 2 * degree + 4, degree + 2) for pieces in levels[1:]]
        assert factored[-len(stacked) :] == stacked
        assert all(shape[1:] != stacked[0][1:] for shape in factored[: -len(stacked)])
        tops = [max(m.dim for m in models if m.pieces == p) // p for p in levels]
        assert checks == [top for top in tops if top > 1] and 1 in tops
        factored.clear()
        checks.clear()
        fit = fit_least_squares(sample, dyadic_model(3, 2))
        assert [shape[-1] for shape in factored] == [4] * len(factored)
        assert checks == [3] and fit.gram_rank == 24

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_empty_or_ill_conditioned_levels_take_svd_route(self, monkeypatch, family):
        # the dense Gram blocks of the occupied pieces decide which
        # subdivisions must solve each candidate (an eigenvalue ratio at or
        # below the cut of 1e-10); those within a factor 10 of it are left
        # unasserted
        solved = set()
        solve = regression._solve_stack

        def recording_solve(r, k):
            solved.add((r.shape[1], k))
            return solve(r, k)

        monkeypatch.setattr(regression, "_solve_stack", recording_solve)
        routes = {"svd": 0, "tail": 0}
        for sample in sparse_samples() + tied_piece_samples():
            models = build_collection(family, sample.n, "regression")
            solved.clear()
            _fit_collections(_SortedStack([sample]), models)
            for pieces in {model.pieces for model in models}:
                group = [model for model in models if model.pieces == pieces]
                gram, _ = dense_piece_statistics(sample, max(group, key=lambda m: m.dim))
                eig = np.linalg.eigvalsh(gram[gram[:, 0, 0] > 0.0])
                if eig.size == 0:
                    continue
                lo, hi = eig[:, 0].min(), eig[:, -1].max()
                if lo <= 0.0 or hi > 10 * 1e10 * lo:
                    route = "svd"
                elif hi < 1e10 / 10 * lo:
                    route = "tail"
                else:
                    continue
                routes[route] += 1
                for model in group:
                    shape = pieces, model.dim // pieces
                    assert (shape in solved) == (route == "svd"), (model, route)
        if family == haar_family():
            # a degree-0 block of an occupied piece is its point count times m,
            # so a Haar level never drops a direction; empty pieces add none
            assert routes["svd"] == 0 and routes["tail"] >= 10, routes
        else:
            assert routes["svd"] >= 10 and routes["tail"] >= 10, routes
