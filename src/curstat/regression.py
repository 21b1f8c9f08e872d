"""Mean-square regression estimator of the distribution function.

Conditionally on an examination time u, the status indicator is
Bernoulli with success probability F(u), so F is the regression
function of delta on u. Each model is fitted by least squares on the
design points, and the model is chosen by penalized empirical risk with
penalty ``noise_scale * kappa0 * dim / n``. The noise scale is the mean
squared residual of the richest model over the observations inside
[0, 1], and the dyadic families charge the degree-corrected dimension.
Rank-deficient designs (empty histogram bins, more columns than
observations, tied times) get the minimum-norm least-squares solution,
with the rank rule of the normal equations.

``fit_cdf_regression`` fits the whole collection from per-piece
triangular factors over the points sorted once, in the time order of
the ``data`` module. They come from ``bases.piece_factors``: each
piece's R of a Householder QR of its basis rows beside its statuses,
never the Gram matrix ``X'X``, whose condition number is the square of
the design's. For the dyadic families the basis is evaluated once, at
the finest subdivision and largest degree, and every coarser
subdivision's factors are a QR of its halves' stacked factors turned by
the two-scale matrices; the regular piecewise and trigonometric
families factor each subdivision on its own. Every model of a
subdivision reads a leading block of the same factors, so a contrast is
a sum of squares of the factors' last column, and neither the contrasts
nor the noise pilot pass over the points again.

The scan takes a batch of samples, sorted once and joined one after
another in a ``data._SortedStack`` (a Monte Carlo chunk stacks its
replications, and shares the stack with the other methods), and scores
them as one
``(samples, models)`` array of contrasts, so each sample's pick is the
``argmin`` along its row. ``fit_cdf_regression`` runs it on a batch of
one sample and ``fit_least_squares`` on one sample and one model; the
dense normal equations they are checked against are in
``tests/dense_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import (
    CAP_REGRESSION,
    BasisFamily,
    BasisModel,
    build_collection,
    dyadic_family,
    penalty_factors,
    piece_factors,
)
from .data import ObservationSample, _SortedStack
from .estimates import CdfEstimate, _Clipped
from .projection import ProjectionEstimate

# the rank cut of the normal equations on the Gram's singular values; a
# triangular factor R has R'R = X'X, so its own cut is the square root
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class LeastSquaresFit(ProjectionEstimate):
    """Least-squares fit of the status indicators on one model."""

    contrast: float
    gram_rank: int
    gram_cond: float


def fit_least_squares(sample: ObservationSample, model: BasisModel) -> LeastSquaresFit:
    """Solve the normal equations for one model by ``fit_cdf_regression``'s scan.

    The scan runs on a batch of one sample and one model; the fit is the
    minimum-norm solve of that model's per-piece factors.

    The Gram matrix ``G = X'X / n`` and moment vector ``c = X'delta / n``
    always admit a solution (c lies in the range of G); when G is
    singular the minimum-norm solution is taken, with relative rank
    tolerance 1e-10 on the singular values of G.

    Accuracy, measured against an exact rational solve of the same
    normal equations on gapped samples of up to 60 points
    (``tests/test_regression.py::TestExactLeastSquares``): for
    cond(G) <= 1e8 every coefficient lies within
    ``64 * cond(G) * 2**-52 * max(1, max |b|)`` of the exact solution b.
    The solve never forms G: it takes an SVD of the per-piece triangular
    factors, whose condition number is ``sqrt(cond(G))``, so the error
    grows with that instead; the worst seen is
    ``12.2 * sqrt(cond(G)) * 2**-52 * max(1, max |b|)``, where solving G
    itself reached 1521 times that. Above about cond(G) = 1e10 the rank
    cut can drop a direction, and the coefficients can then be off by far
    more. The fit's ``gram_cond`` is the kept condition number of G to
    read.
    """
    _, _, fit = _fit_collections(_SortedStack([sample]), [model])
    return fit(model, [0])[0]


def regression_penalty(model: BasisModel, n: int, kappa0: float = 4.0) -> float:
    """Penalty ``kappa0 * dim / n``, ``dim`` from ``bases.penalty_factors``.

    The dyadic families charge the degree-corrected dimension, the
    others the raw one.
    """
    return _regression_penalty(penalty_factors(model)[1], n, kappa0)


def _regression_penalty(dim, n: int, kappa0: float):
    """``kappa0 * dim / n``, for one model's dimension or an array of them."""
    if not 0.0 < kappa0 < np.inf:
        raise ValueError("kappa0 must be positive and finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    return kappa0 * dim / n


def estimate_noise_variance(sample: ObservationSample, fit: LeastSquaresFit) -> float:
    """Mean squared residual of ``fit`` over the observations inside [0, 1].

    With the richest model as the fit, this estimates the Bernoulli noise
    variance F(u)(1 - F(u)) that scales the regression penalty. Points
    outside [0, 1] are excluded: no basis function reaches them.
    """
    inside = (sample.u >= 0.0) & (sample.u <= 1.0)
    if not inside.any():
        return 0.0
    residuals = sample.delta[inside] - fit(sample.u[inside])
    return float(np.mean(residuals**2))


def _solve_stack(r: np.ndarray, k: int):
    """Minimum-norm least squares on the first ``k`` columns of each sample's factors.

    ``r`` is a ``(samples, pieces, d + 1, d + 1)`` stack of
    ``bases.piece_factors``. With ``R = r[i, :, :k, :k]`` and
    ``y = r[i, :, :k, -1]``, returns ``(coeffs, ranks, ratios,
    dropped)``, arrays over the samples: the ``(samples, pieces, k)``
    minimum-norm solutions of ``R b = y``; each sample's total rank; its
    kept ratio ``s_max / s_min_kept`` of singular values of R (1 when
    none is kept), whose square as a Python float is the kept condition
    number of the Gram matrix; and the residual sum of squares the rank
    cut adds, the part of y outside the kept left singular vectors of R.
    Singular values at or below ``sqrt(_RANK_TOL)`` times the largest of
    any of the sample's blocks count as zero, which is the rule of
    ``np.linalg.lstsq`` with rcond ``_RANK_TOL`` on the block-diagonal
    Gram matrix ``R'R``.

    One batched SVD and two batched products take every sample's blocks
    in the shapes they have alone, and the cut, rank and ratio are
    elementwise over the ``(samples, pieces * k)`` singular values. Only
    a sample that cuts a direction sums its dropped squares, by its own
    ``np.sum`` in its own order; the others drop 0. So each sample gets
    what it gets alone, bit for bit.
    """
    count, pieces = r.shape[:2]
    u, s, vt = np.linalg.svd(r[:, :, :k, :k].reshape(count * pieces, k, k))
    rotated = np.einsum("kji,kj->ki", u, r[:, :, :k, -1].reshape(count * pieces, k))
    s, rotated = s.reshape(count, -1), rotated.reshape(count, -1)
    largest = s.max(axis=1)
    keep = s > np.sqrt(_RANK_TOL) * largest[:, None]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    ranks, dropped = keep.sum(axis=1), np.zeros(count)
    # a kept ratio is at least 1, and none kept leaves 0 / inf
    ratios = np.maximum(largest / s.min(axis=1, initial=np.inf, where=keep), 1.0)
    for i in (ranks < keep.shape[1]).nonzero()[0]:
        dropped[i] = np.sum(rotated[i][~keep[i]] ** 2)
    coeffs = np.einsum("kji,kj->ki", vt, (inverse * rotated).reshape(count * pieces, k))
    return coeffs.reshape(count, pieces, k), ranks, ratios, dropped


def _fit_collections(stack, models: list[BasisModel]):
    """Contrast of every model on each sample from one pass of per-piece triangular factors.

    Returns ``(contrasts, noise, fit)``: the contrasts as a
    ``(samples, models)`` array, in the order of ``models``; the noise
    pilots that scale the penalty as a ``(samples,)`` array, each the mean
    squared residual of the last (richest) model over the sample's
    observations inside [0, 1]; and ``fit(model, rows)``, one
    ``LeastSquaresFit`` of one of the models per sample in ``rows``.

    ``stack`` is a ``data._SortedStack``. The factors of every sample
    come from one ``piece_factors`` pass over it, and
    each subdivision's rank check is one comparison over the singular
    values of every sample's occupied top-degree blocks: the smallest
    against ``sqrt(_RANK_TOL)`` times the largest. A subdivision that
    passes scores each model by the tail of the factors' last column; one
    that fails solves every sample for each of its models by one
    ``_solve_stack`` call over the whole stack, which adds the dropped
    sums to the tails. So ``_solve_stack`` alone decides which directions
    a sample keeps, by its own largest singular value, and a sample that
    keeps every direction drops exactly 0.0, so its contrast stays its
    tail. ``fit`` solves its model over the factors of all its rows in
    one ``_solve_stack`` call, with no cache. The cut, the tails, the
    solves, the constant-status rule and the pilot are each sample's own,
    so each sample gets what it gets alone, bit for bit.
    """
    samples, sizes, delta = stack.samples, stack.sizes, stack.delta
    count = len(samples)
    factors, rss = {}, {}
    for group, r in piece_factors(models, stack):
        pieces = group[0].pieces
        factors[pieces] = r.reshape(count, pieces, *r.shape[1:])
        # tails[:, k]: the residual sum of squares of the first k functions
        # per piece, while those keep full rank on every occupied piece
        squares = (r[:, ::-1, -1] ** 2).reshape(count, pieces, -1)
        tails = np.add.reduce(squares, axis=1).cumsum(axis=1)[:, ::-1]
        top = max(model.dim for model in group) // pieces
        blocks = r[r[:, 0, 0] != 0.0, :top, :top]
        # a 1 x 1 block is its own singular value
        s = abs(blocks[:, :1, 0]) if top == 1 else np.linalg.svd(blocks, compute_uv=False)
        # by interlacing, no prefix of a stack's blocks that pass drops a direction
        cut = s.size and s.min() <= np.sqrt(_RANK_TOL) * s.max()
        for model in group:
            k = model.dim // pieces
            # a sample that keeps every direction drops exactly 0.0
            rss[model] = tails[:, k] + _solve_stack(factors[pieces], k)[3] if cut else tails[:, k]
    rss = np.array([rss[model] for model in models]).T
    # each sample's count of status 1 inside [0, 1], exact as a sum of 0/1
    ones = np.bincount(np.repeat(np.arange(count), sizes), delta, count)
    # constant statuses inside [0, 1] lie in every model's span, since every
    # family holds the constant: each model fits them exactly, and rounding
    # residue must not decide the pick
    rss[(ones == 0.0) | (ones == sizes)] = 0.0
    # every basis vanishes outside [0, 1], so the statuses there are residuals
    outside = np.array([sample.delta.sum() for sample in samples]) - ones
    contrasts = (rss + outside[:, None]) / np.array([[sample.n] for sample in samples])
    noise = rss[:, -1] / np.maximum(sizes, 1)

    def fit(model: BasisModel, rows) -> list[LeastSquaresFit]:
        coeffs, ranks, ratios, _ = _solve_stack(factors[model.pieces][rows], model.dim // model.pieces)
        column = contrasts[rows, models.index(model)].tolist()
        # piecewise coefficients are stored degree-major; a Python float's
        # ratio**2 is C pow, which gram_cond has always been squared by
        return [
            LeastSquaresFit(model, b.T.ravel(), contrast, rank, ratio**2)
            for b, contrast, rank, ratio in zip(coeffs, column, ranks.tolist(), ratios.tolist())
        ]

    return contrasts, noise, fit


def fit_cdf_regression(
    sample: ObservationSample,
    family: BasisFamily | None = None,
    kappa0: float = 4.0,
    clamp: bool = False,
) -> CdfEstimate:
    """Fit every model in the capped collection and keep the penalized best.

    All models are fitted in one scan over the points in [0, 1], sorted
    once. Per subdivision (a dyadic level, a regular piece count, or the
    single trigonometric block) ``bases.piece_factors`` gives each piece's
    triangular factor R of a Householder QR of ``[X_j | delta_j]``, the
    piece's basis rows beside its statuses, and every model of the
    subdivision reads the leading ``k x k`` block of R (k functions per
    piece) and the first k entries ``y`` of its last column. The regular
    piecewise family factors each subdivision from its points, each
    occupied piece zero-padded to the largest count of its run of
    neighbouring pieces, and the trigonometric family takes one tall QR a
    chunk of points at a time. The dyadic families evaluate the
    basis once, at the finest level and largest degree, and each coarser
    level is one QR of the stacked ``[R_left @ g0; R_right @ g1]`` with
    ``g = diag(h.T, 1)`` from the two-scale matrices of ``bases.two_scale``.
    The Gram matrix ``X'X = R'R`` is never formed.

    A degree-``k`` model's residual sum of squares over the points inside
    [0, 1] is ``sum over pieces of ||R_aug[k:, d]||**2``, the tail of the
    last column below row k: a sum of squares with no subtraction, and
    its contrast adds the statuses outside [0, 1] and divides by n. That
    holds while the model's blocks keep full rank. The rank rule is that
    of ``np.linalg.lstsq`` on the block-diagonal Gram matrix with rcond
    1e-10, applied to R: singular values at or below ``sqrt(1e-10)``
    times the largest of any of the model's blocks count as zero, so
    ``gram_rank`` is the rank the dense normal equations give, and
    ``gram_cond`` is ``(s_max / s_min_kept)**2``, the kept condition number
    of the Gram matrix. Each subdivision takes one batched singular-value
    check of its occupied pieces' top-degree blocks; by interlacing, a
    subdivision that passes keeps every direction of every prefix model.
    A subdivision that fails (a piece with fewer points or distinct times
    than functions) solves each of its models by an SVD of its ``R``
    stack, and adds to the tail the part of ``y`` outside the kept left
    singular vectors. In a stack of samples the check covers every
    sample's blocks at once, and a failing check solves every sample: the
    SVD cuts each sample by its own largest singular value, so a sample
    that keeps every direction adds exactly 0 to its tail. Once every pick
    is known, the samples are grouped by their selected model and each
    group is solved the same way, in one stacked solve per distinct model,
    so each selected model's coefficients, ``gram_rank`` and
    ``gram_cond`` are those a per-candidate solve gives, and its contrast
    is the scan's.

    The score is contrast plus ``noise_scale * regression_penalty``,
    where ``noise_scale`` is the indicator noise variance estimated from
    the richest model's residual sum over the points inside [0, 1], read
    from the same tails: an indicator regression has noise variance well
    below 1, and an unscaled penalty of this size systematically blocks
    the bias-reducing model upgrades. The scores are one array,
    ``contrasts + noise_scale * (kappa0 * dim / n)`` with each penalty
    rounded as ``regression_penalty`` rounds it, and ``argmin`` takes
    the first model in collection order with the lowest score. When the
    statuses inside [0, 1] are all 0 or all 1, every model holds them
    exactly, since every family holds the constant: every contrast is
    then exactly the statuses outside [0, 1] over n, the noise scale is
    0, and the first model wins, where rounding residue of about 1e-31
    would otherwise pick a finer one.

    The coefficients carry ``fit_least_squares``'s error bound: within
    ``64 * cond * 2**-52 * max(1, max |b|)`` of the exact least-squares
    solution b for a kept condition number cond <= 1e8, with no bound
    above about 1e10, where the rank cut can drop a direction. The
    selected model's cond is ``metadata["gram_cond"]``.

    The estimate is the raw projection by default; values may leave
    [0, 1] near the boundary. Pass ``clamp=True`` to truncate at
    evaluation time: the evaluator then clips the fit's values to [0, 1],
    and ``metadata["clamped"]`` is True.
    """
    return _fit_cdf_regressions(_SortedStack([sample]), family, kappa0, clamp)[0]


def _fit_cdf_regressions(
    stack, family: BasisFamily | None = None, kappa0: float = 4.0, clamp: bool = False
) -> list[CdfEstimate]:
    """``fit_cdf_regression`` of each sample of a ``data._SortedStack``, from one scan.

    The samples must have one size. They share one collection and one
    ``_fit_collections`` pass,
    whose ``(samples, models)`` scores pick every sample's model by one
    ``argmin`` along the rows. The samples that pick one model are solved
    together, by one ``fit`` call per distinct pick; each one's estimate
    is bitwise the one it gets alone.
    """
    if family is None:
        family = dyadic_family()
    n = stack.samples[0].n
    models = build_collection(family, n, CAP_REGRESSION)
    dims = np.array([penalty_factors(model)[1] for model in models])
    units = _regression_penalty(dims, n, kappa0)
    contrasts, noise, fit = _fit_collections(stack, models)
    penalties = noise[:, None] * units
    picks, fits = (contrasts + penalties).argmin(axis=1), {}
    for best in set(picks.tolist()):
        rows = (picks == best).nonzero()[0]
        fits.update(zip(rows.tolist(), fit(models[best], rows)))
    estimates = []
    for i, best_fit in sorted(fits.items()):
        metadata = {
            "model": best_fit.model.describe(),
            "contrast": best_fit.contrast,
            "penalty": float(penalties[i, picks[i]]),
            "noise_scale": float(noise[i]),
            "gram_rank": best_fit.gram_rank,
            "gram_cond": best_fit.gram_cond,
        }
        if clamp:
            metadata["clamped"] = True
        evaluator = _Clipped(best_fit) if clamp else best_fit
        estimates.append(CdfEstimate("regression", evaluator, metadata))
    return estimates
