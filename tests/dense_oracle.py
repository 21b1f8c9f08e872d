"""Dense reference implementations that the library's statistics pass is gated against.

The library computes empirical coefficients from per-piece sums over the
sorted points (``bases.piece_sums``) and least-squares fits from
per-piece triangular factors (``bases.piece_factors``). The functions
here build the full ``n x dim`` design of each model instead and use
BLAS products, ``np.linalg.lstsq`` and one QR per piece, so the
scan-versus-dense tests compare two independent computations of the
same quantities.
``exact_least_squares`` solves the normal equations of the float design
in exact rational arithmetic, to tell which of the two float paths is
nearer the truth. ``all_knots_step`` evaluates a ``StepCdf`` by a binary
search over every knot, where the library searches only the knots at
which the value changes, or reads a Birgé bin by its index.
``two_bincount_birge`` fits a Birgé histogram by one ``np.bincount``
counting each bin's points and one summing their statuses, on edges
found by bisection (``bisected_bin_edges``), where the library counts
bin and status keys in one integer ``np.bincount``.
``dense_values`` evaluates any estimate part by part, each from its own
dense design, where the library joins the points of every part of one
model into one design matrix and applies each evaluator's ``combine``.
"""

from fractions import Fraction

import numpy as np

from curstat import (
    LeastSquaresFit,
    ProjectionEstimate,
    StepCdf,
    build_collection,
    density_penalty,
    design_matrix,
    regression_penalty,
)
from curstat.estimates import _Clipped
from curstat.quotient import ClampedRatio
from curstat.regression import estimate_noise_variance

RANK_TOL = 1e-10


def _weights(sample, weights):
    return np.ones(sample.n) if weights is None else np.asarray(weights, dtype=float)


def dense_coefficients(sample, model, weights=None):
    """``(1/n) X'w`` for the model's design X; ``weights=None`` means all ones."""
    return design_matrix(model, sample.u).T @ _weights(sample, weights) / sample.n


def dense_contrast(sample, model, coeffs, weights=None):
    """Projection contrast ``||t||^2 - (2/n) sum_i w_i t(u_i)`` from the design."""
    fitted = design_matrix(model, sample.u) @ coeffs
    return float(coeffs @ coeffs - 2.0 * (_weights(sample, weights) @ fitted) / sample.n)


def dense_density_selection(sample, collection, kappa, weights, delta_mean):
    """One target's selection, one dense design per candidate, first strict minimum.

    Returns the winning ``(model, coefficients)``; the score is minus the
    coefficient sum of squares plus ``density_penalty``.
    """
    best, best_score = None, np.inf
    for model in collection:
        coeffs = dense_coefficients(sample, model, weights)
        score = -float(coeffs @ coeffs) + density_penalty(model, sample.n, kappa, delta_mean)
        if score < best_score:
            best, best_score = (model, coeffs), score
    return best


def dense_piece_statistics(sample, model, chunk=4096):
    """Each piece's Gram block and moment from the dense design, over n.

    Returns ``(gram, moment)`` of shapes ``(pieces, d, d)`` and
    ``(pieces, d)`` with ``d = dim // pieces``: block j holds the
    products of the degree-0..d-1 functions of piece j, the columns
    ``a * pieces + j`` of ``design_matrix``, and moment j their products
    with the statuses. The design is built ``chunk`` points at a time.
    """
    m, d = model.pieces, model.dim // model.pieces
    gram, moment = np.zeros((m, d, d)), np.zeros((m, d))
    for start in range(0, sample.n, chunk):
        rows = slice(start, start + chunk)
        # design columns a * m + j as (point, degree a, piece j)
        design = design_matrix(model, sample.u[rows]).reshape(-1, d, m)
        gram += np.einsum("iaj,ibj->jab", design, design)
        moment += np.einsum("iaj,i->ja", design, sample.delta[rows])
    return gram / sample.n, moment / sample.n


def dense_piece_factors(sample, model, chunk=1024):
    """Each piece's R of a QR of its dense block ``[X_j | delta_j]``, rows signed to a non-negative diagonal.

    X_j holds the columns ``a * pieces + j`` of ``design_matrix`` (the
    degree-0..d-1 functions of piece j, ``d = dim // pieces``) at the
    points of piece j, those whose degree-0 entry of piece j is nonzero,
    and delta_j their statuses. Returns the ``(pieces, d + 1, d + 1)``
    factors, each from one ``np.linalg.qr`` of its piece's rows, zero
    rows below where a piece has fewer points than columns. The design
    is built ``chunk`` points at a time.
    """
    m, d = model.pieces, model.dim // model.pieces
    pieces, rows = [], []
    for start in range(0, sample.n, chunk):
        points = slice(start, start + chunk)
        # design columns a * m + j as (point, degree a, piece j)
        design = design_matrix(model, sample.u[points]).reshape(-1, d, m)
        inside = design[:, 0, :].any(axis=1)
        piece = np.abs(design[:, 0, :]).argmax(axis=1)
        values = np.take_along_axis(design, piece[:, None, None], axis=2)[:, :, 0]
        pieces.append(piece[inside])
        rows.append(np.column_stack([values, sample.delta[points]])[inside])
    piece, rows = np.concatenate(pieces), np.concatenate(rows)
    factors = np.zeros((m, d + 1, d + 1))
    for j in range(m):
        block = rows[piece == j]
        if block.size:
            r = np.linalg.qr(block, mode="r")
            factors[j, : r.shape[0]] = r
    return signed_factors(factors)


def signed_factors(factors):
    """Triangular factors with each row's sign flipped where its diagonal entry is negative."""
    diagonal = np.diagonal(factors, axis1=-2, axis2=-1)
    return np.where(diagonal < 0.0, -1.0, 1.0)[..., None] * factors


def dense_least_squares(sample, model):
    """Normal equations ``X'X b = X'delta`` solved by ``lstsq`` with rcond 1e-10."""
    design = design_matrix(model, sample.u)
    gram = design.T @ design / sample.n
    moment = design.T @ sample.delta / sample.n
    coeffs, _, rank, singular = np.linalg.lstsq(gram, moment, rcond=RANK_TOL)
    contrast = float(np.mean((sample.delta - design @ coeffs) ** 2))
    cond = float(singular[0] / singular[rank - 1]) if rank else 1.0
    return LeastSquaresFit(model, coeffs, contrast, int(rank), cond)


def dense_selection(sample, family):
    """The penalized regression search with one dense least-squares fit per model.

    Returns every fit in collection order, the noise scale (the library's
    ``estimate_noise_variance`` on the dense fit of the richest model) and
    the first fit with the lowest score.
    """
    models = build_collection(family, sample.n, "regression")
    fits = [dense_least_squares(sample, model) for model in models]
    noise_scale = estimate_noise_variance(sample, fits[-1])
    scores = [
        fit.contrast + noise_scale * regression_penalty(fit.model, sample.n)
        for fit in fits
    ]
    return fits, noise_scale, fits[int(np.argmin(scores))]


def exact_least_squares(sample, model):
    """Exact solution of ``X'X b = X'delta`` in rationals, or None if ``X'X`` is singular.

    Every float is an integer times a power of two, so one common power
    turns the float design X into exact integers. The Gram matrix and
    moments are integer products of those, with no rounding, and
    Gauss-Jordan elimination in ``Fraction`` solves them exactly. The
    result is rounded to float once at the end.
    """
    ratios = [v.as_integer_ratio() for v in design_matrix(model, sample.u).ravel().tolist()]
    scale = max(q for _, q in ratios)
    design = np.array([p * (scale // q) for p, q in ratios], dtype=object)
    design = design.reshape(sample.n, model.dim)
    delta = np.array([int(d) for d in sample.delta.tolist()], dtype=object)
    gram, moment = design.T @ design, design.T @ delta
    k = model.dim
    rows = [[Fraction(v) for v in gram[a]] + [Fraction(moment[a])] for a in range(k)]
    for c in range(k):
        pivot = next((r for r in range(c, k) if rows[r][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    # the integer design is X * scale, so its solution is b / scale
    return np.array([float(row[k] * scale) for row in rows])


def all_knots_step(step, x):
    """``step(x)`` for a float array x, by a search over every knot.

    The number of knots at or left of x indexes the values behind a 0.
    """
    lookup = np.concatenate(([0.0], step.values))
    return lookup[np.searchsorted(step.knots, x, side="right")]


def bisected_bin_edges(n_bins):
    """Edge k of ``n_bins`` bins: the smallest float u with ``floor(u * n_bins) >= k``.

    Found by bisection over the bit patterns of the floats in [0, 1],
    which order them as their values do.
    """
    k = np.arange(n_bins)
    lo = np.zeros(n_bins, dtype=np.int64)
    hi = np.full(n_bins, np.float64(1.0).view(np.int64))  # floor(n_bins) >= k
    while (lo < hi).any():
        mid = (lo + hi) // 2
        above = np.floor(mid.view(np.float64) * n_bins) >= k
        hi, lo = np.where(above, mid, hi), np.where(above, lo, mid + 1)
    return hi.view(np.float64)


def two_bincount_birge(sample, n_bins):
    """``birge_histogram`` by a count and a status sum per bin, as two ``np.bincount`` calls."""
    inside = (sample.u >= 0.0) & (sample.u <= 1.0)
    u, d = sample.u[inside], sample.delta[inside]
    idx = np.minimum((u * n_bins).astype(int), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    sums = np.bincount(idx, weights=d, minlength=n_bins)
    values = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return StepCdf(bisected_bin_edges(n_bins), values)


def dense_values(evaluator, x):
    """An estimate's values at the 1-d float points x, each part from its own design.

    A ``CdfEstimate`` is read through its evaluator. A projection
    estimate is ``design_matrix(model, x) @ coeffs``. A quotient's ratio
    divides its numerator's values by its denominator's where those are
    nonzero, takes 1 where a zero denominator meets a positive numerator
    and 0 at the other zeros, then clips to [0, 1]; a clamped evaluator
    clips its inner one's values. A step function is read by
    ``all_knots_step``, and anything else is called.
    """
    evaluator = getattr(evaluator, "evaluator", evaluator)
    if isinstance(evaluator, ProjectionEstimate):
        return design_matrix(evaluator.model, x) @ evaluator.coeffs
    if isinstance(evaluator, ClampedRatio):
        num = dense_values(evaluator.numerator, x)
        den = dense_values(evaluator.denominator, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(den != 0.0, num / den, np.where(num > 0.0, 1.0, 0.0))
        return np.clip(ratio, 0.0, 1.0)
    if isinstance(evaluator, _Clipped):
        return np.clip(dense_values(evaluator.inner, x), 0.0, 1.0)
    if isinstance(evaluator, StepCdf):
        return all_knots_step(evaluator, x)
    return np.asarray(evaluator(x), dtype=float)
