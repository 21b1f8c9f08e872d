"""Dense reference implementations that the library's statistics pass is gated against.

The library computes empirical coefficients and least-squares fits from
per-piece sums over the sorted points (``bases.subdivisions``). The
functions here build the full ``n x dim`` design of each model instead
and use BLAS products and ``np.linalg.lstsq``, so the scan-versus-dense
tests compare two independent computations of the same quantities.
``exact_least_squares`` solves the normal equations of the float design
in exact rational arithmetic, to tell which of the two float paths is
nearer the truth.
"""

from fractions import Fraction

import numpy as np

from curstat import (
    LeastSquaresFit,
    build_collection,
    density_penalty,
    design_matrix,
    regression_penalty,
)
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


def dense_least_squares(sample, model):
    """Normal equations ``X'X b = X'delta`` solved by ``lstsq`` with rcond 1e-10."""
    design = design_matrix(model, sample.u)
    gram = design.T @ design / sample.n
    moment = design.T @ sample.delta / sample.n
    coeffs, _, rank, _ = np.linalg.lstsq(gram, moment, rcond=RANK_TOL)
    contrast = float(np.mean((sample.delta - design @ coeffs) ** 2))
    return LeastSquaresFit(model, coeffs, contrast, int(rank))


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
