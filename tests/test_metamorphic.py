"""Metamorphic relations: transformed inputs whose estimates are known exactly."""

import numpy as np
import pytest

from curstat import (
    ObservationSample,
    SimModel,
    birge_histogram,
    dyadic_family,
    fit_cdf_regression,
    fit_quotient_cdf,
    generate,
    haar_family,
    npmle_pava,
    poly_family,
)

SEEDS = range(10)
MODEL_IDS = range(1, 6)
SIZES = (60, 200, 1000)
# trig is left out: its regression collection is empty below n = 1000
# and holds the single model of dimension 3 at n = 1000
FAMILIES = pytest.mark.parametrize(
    "family",
    [dyadic_family(), haar_family(), poly_family(2)],
    ids=["dyadic", "haar", "poly2"],
)
GRID = np.linspace(0.0, 1.0, 257)


def samples():
    for seed in SEEDS:
        for model_id in MODEL_IDS:
            for n in SIZES:
                yield seed, generate(SimModel(model_id), n, seed)


@FAMILIES
def test_regression_label_flip(family):
    # Every model spans the constants, so flipping delta to 1 - delta
    # flips the fitted values at the design points in [0, 1] and shifts
    # every contrast by the same constant; the noise pilot is unchanged,
    # so the pick is too. Off the design points the relation fails on
    # pieces without data, where both minimum-norm fits are 0.
    for _, sample in samples():
        fit = fit_cdf_regression(sample, family)
        flipped = fit_cdf_regression(ObservationSample(sample.u, 1.0 - sample.delta), family)
        assert flipped.metadata["model"] == fit.metadata["model"]
        x = sample.u[(sample.u >= 0.0) & (sample.u <= 1.0)]
        np.testing.assert_allclose(flipped(x), 1.0 - fit(x), rtol=0, atol=1e-12)


@FAMILIES
def test_regression_permutation_invariance(family):
    for seed, sample in samples():
        order = np.random.default_rng(seed).permutation(sample.n)
        permuted = ObservationSample(sample.u[order], sample.delta[order])
        fit = fit_cdf_regression(sample, family)
        again = fit_cdf_regression(permuted, family)
        assert again.metadata == fit.metadata
        assert again(GRID).tobytes() == fit(GRID).tobytes()


@FAMILIES
def test_quotient_permutation_invariance(family):
    # the per-piece sums run over the points sorted by time, so the input
    # order cannot reach the rounding of the scores or coefficients
    for seed, sample in samples():
        order = np.random.default_rng(seed).permutation(sample.n)
        permuted = ObservationSample(sample.u[order], sample.delta[order])
        fit = fit_quotient_cdf(sample, family)
        again = fit_quotient_cdf(permuted, family)
        assert again.metadata == fit.metadata
        assert again(GRID).tobytes() == fit(GRID).tobytes()


def test_npmle_permutation_invariance():
    for seed, sample in samples():
        order = np.random.default_rng(seed).permutation(sample.n)
        permuted = ObservationSample(sample.u[order], sample.delta[order])
        fit = npmle_pava(sample)
        again = npmle_pava(permuted)
        assert again.knots.tobytes() == fit.knots.tobytes()
        assert again.values.tobytes() == fit.values.tobytes()


@pytest.mark.parametrize("bins", [1, 5, 10])
def test_birge_permutation_invariance(bins):
    # bin sums of 0/1 statuses are exact in any order, so the fit is bitwise equal
    for seed, sample in samples():
        order = np.random.default_rng(seed).permutation(sample.n)
        permuted = ObservationSample(sample.u[order], sample.delta[order])
        fit = birge_histogram(sample, bins)
        again = birge_histogram(permuted, bins)
        assert again.knots.tobytes() == fit.knots.tobytes()
        assert again.values.tobytes() == fit.values.tobytes()


def test_npmle_reflection():
    # Reversing time and flipping the statuses turns the isotonic fit into
    # one minus its mirror image: a block with s ones among c statuses
    # becomes (c - s) / c, which is 1 - s / c up to rounding. These times
    # are distinct; tied ones would keep the mirror too, since each tie
    # group gets one value.
    for _, sample in samples():
        assert np.unique(sample.u).size == sample.n
        fit = npmle_pava(sample)
        mirror = npmle_pava(ObservationSample(-sample.u, 1.0 - sample.delta))
        assert mirror.knots.tobytes() == (-fit.knots[::-1]).tobytes()
        np.testing.assert_allclose(mirror.values[::-1], 1.0 - fit.values, rtol=0, atol=2.2e-16)
