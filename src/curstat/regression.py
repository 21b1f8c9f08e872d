"""Mean-square regression estimator of the distribution function.

Conditionally on an examination time u, the status indicator is
Bernoulli with success probability F(u), so F is the regression
function of delta on u. Each model is fitted by least squares on the
design points, and the model is chosen by penalized empirical risk with
penalty ``noise_scale * kappa0 * dim / n``. The noise scale is the mean
squared residual of the richest model over the observations inside
[0, 1], and the dyadic families charge the degree-corrected dimension.
Rank-deficient designs (empty histogram bins, more columns than
observations) get the minimum-norm solution of the normal equations.

``fit_cdf_regression`` fits the whole collection from the per-piece
Gram blocks and moments of one ``bases.subdivisions`` pass, which
evaluates the basis at every subdivision; the moments
``sum delta * Q_a / n`` are the sub-density coefficients, up to the
last bits where the density scan of ``projection`` refines them from a
finer subdivision. At the
least-squares solution b'Gb = b'c, so most contrasts come in closed form
from those statistics; a pass over the residuals of the points is made
only for the noise pilot and where rounding could decide the pick.
``fit_least_squares`` runs that scan on one model; the dense normal
equations it is checked against are in ``tests/dense_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import (
    CAP_REGRESSION,
    BasisFamily,
    BasisModel,
    build_collection,
    corrected_dim,
    dyadic_family,
    subdivisions,
    _DYADIC_TAGS,
)
from .data import ObservationSample
from .estimates import CdfEstimate
from .projection import ProjectionEstimate

_RANK_TOL = 1e-10
# closed-form contrasts lose digits to cancellation above this kept
# condition number, or when the noise pilot is this small a share of the
# mean squared status; such contrasts come from a residual pass instead
_COND_CUT = 1e6
_PILOT_FLOOR = 1e-10


@dataclass(frozen=True)
class LeastSquaresFit(ProjectionEstimate):
    """Least-squares fit of the status indicators on one model."""

    contrast: float
    gram_rank: int
    gram_cond: float


def fit_least_squares(sample: ObservationSample, model: BasisModel) -> LeastSquaresFit:
    """Solve the normal equations for one model by ``fit_cdf_regression``'s scan.

    The Gram matrix ``G = X'X / n`` and moment vector ``c = X'delta / n``
    always admit a solution (c lies in the range of G); when G is
    singular the minimum-norm solution is taken, with relative rank
    tolerance 1e-10.

    Accuracy, measured against an exact rational solve of the same
    normal equations on gapped samples of up to 60 points
    (``tests/test_regression.py::TestExactLeastSquares``): for
    cond(G) <= 1e8 every coefficient lies within
    ``64 * cond(G) * 2**-52 * max(1, max |b|)`` of the exact solution b.
    Above about cond(G) = 1e10 the rank cut can drop a direction, and
    the coefficients can then be off by far more. The fit's
    ``gram_cond`` is the kept condition number to read.
    """
    return _fit_collection(sample, [model])[0][0]


def regression_penalty(model: BasisModel, n: int, kappa0: float = 4.0) -> float:
    """Penalty ``kappa0 * dim / n`` (degree-corrected for dyadic families)."""
    if not 0.0 < kappa0 < np.inf:
        raise ValueError("kappa0 must be positive and finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    if model.family.tag in _DYADIC_TAGS:
        return kappa0 * corrected_dim(model) / n
    return kappa0 * model.dim / n


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


def _solve_blocks(gram: np.ndarray, moment: np.ndarray):
    """Minimum-norm solutions of a stack of normal-equation blocks.

    ``gram`` has shape ``(k, d, d)`` and ``moment`` ``(k, d)``. Returns
    the ``(k, d)`` solutions, the total rank and the kept condition
    number. The rank rule is that of ``np.linalg.lstsq`` on the
    block-diagonal matrix the stack forms: singular values at or below
    ``_RANK_TOL`` times the largest singular value of any block count as
    zero. The kept condition number is the largest singular value over
    the smallest kept one (1 when none is kept).
    """
    u, s, vt = np.linalg.svd(gram)
    keep = s > _RANK_TOL * s.max()
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    rotated = inverse * np.einsum("kij,ki->kj", u, moment)
    rank = int(np.count_nonzero(keep))
    cond = float(s.max() / s[keep].min()) if rank else 1.0
    return np.einsum("kji,kj->ki", vt, rotated), rank, cond


def _fit_collection(sample: ObservationSample, models: list[BasisModel]):
    """Least-squares fit of every model from per-piece sufficient statistics.

    Returns the fits in the order of ``models`` and the mean squared
    residual of the last (richest) model over the observations inside
    [0, 1], the noise pilot that scales the penalty. A contrast is
    ``sum(delta**2) / n - sum b'c`` over the pieces, except where
    ``fit_cdf_regression`` says a residual pass decides it.
    """
    n = sample.n
    richest = models[-1]
    total = float(sample.delta @ sample.delta) / n
    # every basis vanishes outside [0, 1], so the statuses there are residuals
    outside = (sample.u < 0.0) | (sample.u > 1.0)
    outside_rss = float(np.sum(sample.delta[outside] ** 2))
    # the richest model's subdivision comes first, so the pilot is known
    # before any other contrast
    ordered = sorted(models, key=lambda model: model.pieces != richest.pieces)
    fits: dict[BasisModel, LeastSquaresFit] = {}
    for group, piece, columns, delta in subdivisions(ordered, sample.u, sample.delta):
        pieces = group[0].pieces
        counts = np.bincount(piece, minlength=pieces)
        occupied = counts > 0
        # the points are sorted, so each piece is one contiguous run of counts[j]
        starts = (np.cumsum(counts) - counts)[occupied]
        width = columns.shape[0]
        gram = np.zeros((pieces, width, width))
        moment = np.zeros((pieces, width))
        if starts.size:
            # one basis function at a time, so temporaries hold one value per point
            for a in range(width):
                moment[occupied, a] = np.add.reduceat(columns[a] * delta, starts) / n
                for b in range(a, width):
                    sums = np.add.reduceat(columns[a] * columns[b], starts) / n
                    gram[occupied, a, b] = gram[occupied, b, a] = sums
        for model in sorted(group, key=lambda model: model != richest):
            k = model.dim // pieces
            coeffs, rank, cond = _solve_blocks(gram[:, :k, :k], moment[:, :k])
            if model == richest or cond > _COND_CUT or noise <= _PILOT_FLOOR * total:
                fitted = np.zeros(delta.size)
                for a in range(k):
                    # spread each piece's coefficient over its run; empty pieces repeat 0 times
                    fitted += columns[a] * np.repeat(coeffs[:, a], counts)
                rss = float(np.sum((delta - fitted) ** 2))
                contrast = (rss + outside_rss) / n
                if model == richest:
                    noise = rss / max(delta.size, 1)
            else:
                contrast = total - float(np.sum(coeffs * moment[:, :k]))
            # piecewise coefficients are stored degree-major
            fits[model] = LeastSquaresFit(model, coeffs.T.ravel(), contrast, rank, cond)
    return [fits[model] for model in models], noise


def fit_cdf_regression(
    sample: ObservationSample,
    family: BasisFamily | None = None,
    kappa0: float = 4.0,
    clamp: bool = False,
) -> CdfEstimate:
    """Fit every model in the capped collection and keep the penalized best.

    All models are fitted in one scan: per subdivision (a dyadic level,
    a regular piece count, or the single trigonometric block), Gram
    blocks and moments are summed per piece over the sorted points with
    ``np.add.reduceat``, and each model solves the leading blocks of its
    subdivision, with singular values at or below 1e-10 times the
    largest over all its blocks treated as zero (the rule of
    ``np.linalg.lstsq`` on the block-diagonal Gram matrix, so
    ``gram_rank`` is that of the dense normal equations).

    A contrast is ``sum(delta**2) / n - sum b'c`` over the pieces, since
    b'Gb = b'c at the solution. It is the mean of per-point squared
    residuals instead, the fitted values spreading each piece's
    coefficients over its run of sorted points with ``np.repeat``, in
    three cases: (a) for the richest model, whose residuals over the
    points inside [0, 1] give the noise pilot; (b) for a model whose
    kept condition number (largest over smallest kept singular value)
    is above 1e6, where the closed form loses digits to cancellation;
    (c) for every model when the pilot is at most 1e-10 of
    ``sum(delta**2) / n``, as for constant statuses, where every penalty
    is near 0 and rounding residue would decide the pick. The selected
    model's kept condition number is reported as ``gram_cond``.

    The score is contrast plus ``noise_scale * regression_penalty``,
    where ``noise_scale`` is the indicator noise variance estimated from
    the richest model's residuals over the points inside [0, 1]: an
    indicator regression has noise variance well below 1, and an
    unscaled penalty of this size systematically blocks the
    bias-reducing model upgrades. The first model in collection order
    with the lowest score wins.

    The coefficients carry ``fit_least_squares``'s error bound: within
    ``64 * cond * 2**-52 * max(1, max |b|)`` of the exact least-squares
    solution b for a kept condition number cond <= 1e8, with no bound
    above about 1e10, where the rank cut can drop a direction. The
    selected model's cond is ``metadata["gram_cond"]``.

    The estimate is the raw projection by default; values may leave
    [0, 1] near the boundary. Pass ``clamp=True`` to truncate at
    evaluation time.
    """
    if family is None:
        family = dyadic_family()
    models = build_collection(family, sample.n, CAP_REGRESSION)
    fits, noise_scale = _fit_collection(sample, models)

    def penalty(fit: LeastSquaresFit) -> float:
        return noise_scale * regression_penalty(fit.model, sample.n, kappa0)

    best_fit = min(fits, key=lambda fit: fit.contrast + penalty(fit))
    estimate = CdfEstimate(
        "regression",
        best_fit,
        {
            "model": best_fit.model.describe(),
            "contrast": best_fit.contrast,
            "penalty": penalty(best_fit),
            "noise_scale": float(noise_scale),
            "gram_rank": best_fit.gram_rank,
            "gram_cond": best_fit.gram_cond,
        },
    )
    if clamp:
        estimate = estimate.clamped()
    return estimate
