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

``fit_cdf_regression`` fits the whole collection from per-piece Gram
blocks and moments over the points sorted once, in the time order of
the ``data`` module, which also fixes the order of every residual sum.
They come from ``bases.piece_sums``, the pass that the density scan of
``projection`` also reads, so for every family the moments
``sum delta * Q_a / n`` are the sub-density coefficients bit for bit.
For the dyadic families the basis is evaluated once, at the finest
subdivision and largest degree, and every coarser subdivision's sums
and Gram blocks follow by the two-scale matrices; the regular piecewise
and trigonometric families evaluate and sum each subdivision on its
own. At the least-squares solution b'Gb = b'c, so most contrasts come
in closed form from those statistics: on a subdivision whose blocks are
well conditioned, one Cholesky factor scores every degree at once, and
an SVD solves only the richest, the selected and the gated-out
candidates. A pass over the residuals of the points is made only for
the noise pilot and where rounding could decide the pick.
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
    basis_rows,
    build_collection,
    corrected_dim,
    dyadic_family,
    piece_sums,
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
    _, _, fit = _fit_collection(sample, [model])
    return fit(model)


def regression_penalty(model: BasisModel, n: int, kappa0: float = 4.0) -> float:
    """Penalty ``kappa0 * dim / n`` (degree-corrected for dyadic families)."""
    return _regression_penalty(_penalty_dim(model), n, kappa0)


def _penalty_dim(model: BasisModel) -> float:
    """The dimension the penalty charges: degree-corrected for dyadic families."""
    if model.family.tag in _DYADIC_TAGS:
        return corrected_dim(model)
    return float(model.dim)


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


def _solve_blocks(gram: np.ndarray, moment: np.ndarray):
    """Minimum-norm solutions of a stack of normal-equation blocks.

    ``gram`` has shape ``(k, d, d)`` and ``moment`` ``(k, d)``. Returns
    the ``(k, d)`` solutions, the total rank and the kept condition
    number. The rank rule is that of ``np.linalg.lstsq`` on the
    block-diagonal matrix the stack forms: singular values at or below
    ``_RANK_TOL`` times the largest singular value of any block count as
    zero. The kept condition number is the largest singular value over
    the smallest kept one (1 when none is kept). One batched SVD per
    call; ``_fit_collection`` calls it for the richest model, for the
    models of subdivisions that ``_prefix_products`` turns away, and for
    each model its ``fit`` is asked for, the selected one.
    """
    u, s, vt = np.linalg.svd(gram)
    keep = s > _RANK_TOL * s.max()
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    rotated = inverse * np.einsum("kij,ki->kj", u, moment)
    rank = int(np.count_nonzero(keep))
    cond = float(s.max() / s[keep].min()) if rank else 1.0
    return np.einsum("kji,kj->ki", vt, rotated), rank, cond


def _prefix_products(gram: np.ndarray, moment: np.ndarray):
    """``sum b'c`` over the pieces of every prefix model of one subdivision, or None.

    ``gram`` has shape ``(pieces, d, d)`` and ``moment`` ``(pieces, d)``,
    the blocks of the subdivision's richest model. With ``L`` the
    Cholesky factor of a block and ``y = L^-1 c``, the leading ``k x k``
    block of ``L`` is the factor of the leading ``k x k`` Gram block, so
    the model with the first ``k`` functions per piece has
    ``b'c = ||y[:k]||^2``; entry ``k - 1`` of the result sums that over
    the pieces. None unless every block is positive definite with
    ``eigvalsh`` condition number (largest over smallest eigenvalue of
    the stack) at most ``_COND_CUT``; by interlacing, every prefix's kept
    condition number then is too.
    """
    eig = np.linalg.eigvalsh(gram)
    if not 0.0 < eig[:, 0].min() or eig[:, -1].max() > _COND_CUT * eig[:, 0].min():
        return None
    y = np.linalg.solve(np.linalg.cholesky(gram), moment[..., None])[..., 0]
    return np.cumsum(np.sum(y**2, axis=0))


def _fit_collection(sample: ObservationSample, models: list[BasisModel]):
    """Contrast of every model from per-piece sufficient statistics.

    Returns ``(contrasts, noise, fit)``: the contrasts as an array in the
    order of ``models``, the mean squared residual of the last (richest)
    model over the observations inside [0, 1], the noise pilot that
    scales the penalty, and ``fit(model)``, the ``LeastSquaresFit`` of one
    of the models. A subdivision whose blocks pass ``_prefix_products``'s
    gate scores its models by one Cholesky factor, except the richest
    model, and leaves their solve to ``fit``, which gives the closed-form
    contrast ``sum(delta**2) / n - sum b'c`` over the pieces. Every other
    model is solved during the scan, with a residual pass where
    ``fit_cdf_regression`` says one decides its contrast. A subdivision
    is put to the gate only once the pilot is known to be above
    ``_PILOT_FLOOR``, and only for a model other than the richest.
    """
    n = sample.n
    richest = models[-1]
    total = float(sample.delta @ sample.delta) / n
    x, delta = sample.sorted_inside(sample.delta)
    # every basis vanishes outside [0, 1], so the statuses there are
    # residuals; both sums of 0/1 statuses are exact
    outside_rss = float(sample.delta.sum() - delta.sum())
    levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    products: dict[int, np.ndarray | None] = {}
    contrasts: dict[BasisModel, float] = {}
    fits: dict[BasisModel, LeastSquaresFit] = {}

    def solve(model: BasisModel):
        gram, moment = levels[model.pieces]
        k = model.dim // model.pieces
        coeffs, rank, cond = _solve_blocks(gram[:, :k, :k], moment[:, :k])
        return coeffs, rank, cond, total - float(np.sum(coeffs * moment[:, :k]))

    # the richest model's subdivision comes first, so the pilot is known
    # before any other contrast
    ordered = sorted(models, key=lambda model: model.pieces != richest.pieces)
    for group, counts, (moment,), gram, rows in piece_sums(ordered, x, [delta], gram=True):
        pieces = group[0].pieces
        top = max(model.dim for model in group) // pieces
        levels[pieces] = gram[:, :top, :top] / n, moment.T[:, :top] / n
        for model in sorted(group, key=lambda model: model != richest):
            k = model.dim // pieces
            if model != richest and noise > _PILOT_FLOOR * total:
                if pieces not in products:
                    # factored once per level, only when the pilot can use it
                    products[pieces] = _prefix_products(*levels[pieces])
                if products[pieces] is not None:
                    contrasts[model] = total - products[pieces][k - 1]
                    continue
            coeffs, rank, cond, contrast = solve(model)
            if model == richest or cond > _COND_CUT or noise <= _PILOT_FLOOR * total:
                if rows is None:
                    # once per subdivision, at its richest model
                    rows = basis_rows(max(group, key=lambda member: member.dim), x)[1]
                fitted = np.zeros(delta.size)
                for a in range(k):
                    # spread each piece's coefficient over its run; empty pieces repeat 0 times
                    fitted += rows[a] * np.repeat(coeffs[:, a], counts)
                rss = float(np.sum((delta - fitted) ** 2))
                contrast = (rss + outside_rss) / n
                if model == richest:
                    noise = rss / max(delta.size, 1)
            # piecewise coefficients are stored degree-major
            fits[model] = LeastSquaresFit(model, coeffs.T.ravel(), contrast, rank, cond)
            contrasts[model] = contrast

    def fit(model: BasisModel) -> LeastSquaresFit:
        if model not in fits:
            coeffs, rank, cond, contrast = solve(model)
            fits[model] = LeastSquaresFit(model, coeffs.T.ravel(), contrast, rank, cond)
        return fits[model]

    return np.array([contrasts[model] for model in models]), noise, fit


def fit_cdf_regression(
    sample: ObservationSample,
    family: BasisFamily | None = None,
    kappa0: float = 4.0,
    clamp: bool = False,
) -> CdfEstimate:
    """Fit every model in the capped collection and keep the penalized best.

    All models are fitted in one scan over the points in [0, 1], sorted
    once. Per subdivision (a dyadic level, a regular piece count, or the
    single trigonometric block) it holds per-piece Gram blocks and
    moments, and a model's solve reads the leading blocks of its
    subdivision, with singular values at or below 1e-10 times the
    largest over all its blocks treated as zero (the rule of
    ``np.linalg.lstsq`` on the block-diagonal Gram matrix, so
    ``gram_rank`` is that of the dense normal equations). The
    statistics come from ``bases.piece_sums``: the moments are summed
    with ``np.bincount`` and the Gram blocks with one matrix product per
    piece, and the degree-0 Gram diagonal of every subdivision is the
    piece's point count times m (1 for trig). The regular piecewise and
    trigonometric families evaluate and sum each subdivision. The dyadic
    families evaluate the basis once, at the finest level and largest
    degree, sum it there, and refine every coarser level by the
    two-scale matrices of ``bases.two_scale``:
    ``h0 @ c_left + h1 @ c_right`` and
    ``h0 @ G_left @ h0.T + h1 @ G_right @ h1.T``. Their degree-0 moments
    are rebuilt from integer point counts at every level, as the running
    sum of ``sqrt(m)`` over the status-1 points, as in the density scan.

    A contrast is ``sum(delta**2) / n - sum b'c`` over the pieces, since
    b'Gb = b'c at the solution. A subdivision whose top-degree Gram
    blocks are all positive definite with ``eigvalsh`` condition number
    (largest over smallest eigenvalue of the stack) at most 1e6 takes
    the Cholesky route, once the pilot is above 1e-10 of
    ``sum(delta**2) / n``: one batched ``np.linalg.cholesky`` of those
    blocks and one forward solve ``y = L^-1 c`` give every model of the
    subdivision, since the leading ``k x k`` block of ``L`` is the factor
    of the leading Gram block, so the degree-``k`` prefix has
    ``b'c = sum ||y[:k]||^2`` over the pieces. By interlacing, each
    prefix's kept condition number is then at most 1e6 too. Every other
    subdivision (an empty piece, a condition number above 1e6, a pilot
    near 0) solves each of its models by ``_solve_blocks``, one batched
    SVD per model. So SVDs run for the richest, the selected and the
    gated-out candidates only: the selected model is solved again once
    the pick is known, and its contrast is read in the closed form from
    its own coefficients, so its coefficients, contrast, ``gram_rank``
    and ``gram_cond`` are those a per-candidate solve gives.

    A contrast is the mean of per-point squared residuals instead, the
    fitted values spreading each piece's coefficients over its run of
    sorted points with ``np.repeat``, in three cases: (a) for the richest
    model, whose residuals over the points inside [0, 1] give the noise
    pilot; (b) for an SVD-route model whose kept condition number
    (largest over smallest kept singular value) is above 1e6, where the
    closed form loses digits to cancellation; (c) for every model when
    the pilot is at most 1e-10 of ``sum(delta**2) / n``, as for constant
    statuses, where every penalty is near 0 and rounding residue would
    decide the pick. These passes reuse the rows a regular piecewise or
    trigonometric subdivision was summed from; a dyadic level evaluates
    its basis only when one of its models needs it, once, at the degree
    of its richest model. The count-exact degree-0 entries matter in case
    (c): with refined ones instead, the all-ones samples of
    ``tests/test_regression.py`` picked level 2 or level 4 instead of
    level 0. The selected model's kept condition number is reported as
    ``gram_cond``.

    The score is contrast plus ``noise_scale * regression_penalty``,
    where ``noise_scale`` is the indicator noise variance estimated from
    the richest model's residuals over the points inside [0, 1]: an
    indicator regression has noise variance well below 1, and an
    unscaled penalty of this size systematically blocks the
    bias-reducing model upgrades. The scores are one array,
    ``contrasts + noise_scale * (kappa0 * dim / n)`` with each penalty
    rounded as ``regression_penalty`` rounds it, and ``argmin`` takes
    the first model in collection order with the lowest score.

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
    dims = np.array([_penalty_dim(model) for model in models])
    units = _regression_penalty(dims, sample.n, kappa0)
    contrasts, noise_scale, fit = _fit_collection(sample, models)
    penalties = noise_scale * units
    best = int((contrasts + penalties).argmin())
    best_fit = fit(models[best])
    estimate = CdfEstimate(
        "regression",
        best_fit,
        {
            "model": best_fit.model.describe(),
            "contrast": best_fit.contrast,
            "penalty": float(penalties[best]),
            "noise_scale": float(noise_scale),
            "gram_rank": best_fit.gram_rank,
            "gram_cond": best_fit.gram_cond,
        },
    )
    if clamp:
        estimate = estimate.clamped()
    return estimate
