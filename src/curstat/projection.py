"""Adaptive projection density estimation by penalized contrast.

The two targets are the density of the examination times and the
sub-density of examination times that carry status 1 (whose ratio is
the distribution function of interest). Both are estimated by the same
machinery: empirical basis coefficients, the L2 projection contrast
``||t||^2 - (2/n) sum_i w_i t(u_i)``, and a dimension penalty. The
model minimising contrast plus penalty over a capped collection wins.

For the sub-density target the penalty is rescaled by the observed
status frequency ``mean(delta)``, the data-driven stand-in for the
unknown integral of the sub-density.

``select_projection_model`` takes every candidate's coefficients from
per-piece sums over the points in sorted time order, and
``empirical_coefficients`` takes one model's from the same helper. For
the dyadic families the basis is evaluated once, at the finest
subdivision of the collection; each coarser subdivision's sums follow
from the next finer one's by the two-scale matrices of
``bases.two_scale``, and its degree-0 sums are rebuilt from integer
point counts so that they stay bitwise those of a per-subdivision
``np.bincount``. The regular piecewise and trigonometric families, whose
subdivisions do not nest, are summed per subdivision of
``bases.subdivisions``. The dense coefficients and general contrast are
in ``tests/dense_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import (
    BasisModel,
    corrected_dim,
    design_matrix,
    phi0,
    subdivisions,
    two_scale,
    _DYADIC_TAGS,
)
from .data import ObservationSample
from .estimates import _vectorised


@dataclass(frozen=True)
class ProjectionEstimate:
    """Linear combination of basis functions with empirical coefficients."""

    model: BasisModel
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if coeffs.size != self.model.dim:
            raise ValueError("coefficient count must match the model dimension")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def norm_sq(self) -> float:
        """Squared L2 norm; equals the coefficient sum of squares."""
        return float(self.coeffs @ self.coeffs)

    def _eval(self, x: np.ndarray) -> np.ndarray:
        return design_matrix(self.model, x) @ self.coeffs

    def __call__(self, x):
        return _vectorised(self._eval, x)


def empirical_coefficients(
    sample: ObservationSample, model: BasisModel, weights=None
) -> np.ndarray:
    """Coefficients ``(1/n) sum_i w_i phi_k(u_i)`` for each basis function.

    ``weights=None`` means all ones. Observations outside [0, 1]
    contribute zero (the basis vanishes there) but still count in the
    divisor n. The sums run per piece over the points in sorted time
    order, at the model's own subdivision. For statuses or ones as
    weights, the degree-0 coefficients are bitwise those that
    ``select_projection_model`` gives the model; the others may differ
    from them in the last bits when it derives them from a finer
    subdivision.
    """
    weights = np.ones(sample.n) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (sample.n,):
        raise ValueError("weights must have one entry per observation")
    ((_, sums, _),) = _piece_moments([model], sample.u, weights, sample.n)
    return sums.ravel()


def _piece_moments(models, u, weights, n: int):
    """Per-piece sums of basis rows times ``weights`` and times ones, over n.

    Yields ``(group, weighted, plain)`` per subdivision of ``models``,
    the groups of ``bases.subdivisions``: row ``a`` of each array holds
    the per-piece sums of the degree-``a`` functions (for trig, of the
    ``a``-th function, on one piece), and a model of the group reads its
    first ``dim // pieces`` rows. Sums run with ``np.bincount`` over the
    points in sorted time order.

    Dyadic families evaluate the basis once, at the finest subdivision
    and the largest degree, and get each coarser subdivision from the
    next finer one by ``bases.two_scale``. A degree-0 sum is ``sqrt(m)``
    added once per point of the piece, in order; so that coarser
    subdivisions keep it bit for bit, their degree-0 rows are read from
    a running sum of ``sqrt(m)`` at the integer point counts. This needs
    0/1 ``weights`` whenever the models span more than one subdivision.
    """
    if models[0].family.tag not in _DYADIC_TAGS:
        for group, piece, columns, w in subdivisions(models, u, weights):
            weighted, plain = _row_sums(piece, columns, w, group[0].pieces)
            yield group, weighted / n, plain / n
        return

    groups: dict[int, list[BasisModel]] = {}
    for model in models:
        groups.setdefault(model.pieces, []).append(model)
    pieces, coarsest = max(groups), min(groups)
    finest = BasisModel(models[0].family, pieces, max(model.degree for model in models))
    ((_, piece, columns, w),) = subdivisions([finest], u, weights)
    weighted, plain = _row_sums(piece, columns, w, pieces)
    if pieces > coarsest:
        h0, h1 = two_scale(finest.degree)
        weighted_count = np.bincount(piece[w == 1.0], minlength=pieces)
        plain_count = np.bincount(piece, minlength=pieces)
    level = weighted, plain
    while True:
        if pieces in groups:
            yield groups[pieces], level[0] / n, level[1] / n
        if pieces == coarsest:
            return
        pieces //= 2
        weighted = h0 @ weighted[:, 0::2] + h1 @ weighted[:, 1::2]
        plain = h0 @ plain[:, 0::2] + h1 @ plain[:, 1::2]
        weighted_count = weighted_count[0::2] + weighted_count[1::2]
        plain_count = plain_count[0::2] + plain_count[1::2]
        # the refined degree-0 rows carry on to the coarser subdivisions:
        # running sums of sqrt(m) drift from the exact count * sqrt(m) by
        # up to count * 2**-53 relative, and the higher rows would inherit it
        running = np.cumsum(np.full(plain_count.max(), np.sqrt(float(pieces))))
        running = np.concatenate(([0.0], running))
        level = (
            np.vstack((running[weighted_count], weighted[1:])),
            np.vstack((running[plain_count], plain[1:])),
        )


def _row_sums(piece, columns, w, pieces: int):
    """Per-piece sums of each basis row times ``w`` and times ones."""
    weighted = np.array([np.bincount(piece, row * w, pieces) for row in columns])
    plain = np.array([np.bincount(piece, row, pieces) for row in columns])
    return weighted, plain


def density_penalty(
    model: BasisModel, n: int, kappa: float = 4.0, delta_mean: float = 1.0
) -> float:
    """Dimension penalty for the density contrast.

    ``kappa`` multiplies the whole penalty. The dyadic families use the
    degree-corrected dimension (see ``bases.corrected_dim``), the others
    ``phi0^2 * dim``. ``delta_mean`` is 1 for the examination-time
    density and the observed status frequency for the sub-density
    target.
    """
    if not 0.0 < kappa < np.inf:
        raise ValueError("kappa must be positive and finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= delta_mean <= 1.0:
        raise ValueError("delta_mean must lie in [0, 1]")
    if model.family.tag in _DYADIC_TAGS:
        return kappa * delta_mean * corrected_dim(model) / n
    return kappa * phi0(model) ** 2 * delta_mean * model.dim / n


def select_projection_model(
    sample: ObservationSample, collection, kappa: float = 4.0
) -> tuple[ProjectionEstimate, ProjectionEstimate]:
    """Minimise penalized contrast over the collection for both targets.

    Returns the ``(subdensity, density)`` pair of estimates. The basis
    functions of the richest model of each subdivision are summed per
    piece over the points in sorted time order, weighted by ``delta`` and
    by ones, and divided by n; each candidate's coefficients are a
    degree-major prefix of those sums, and its contrast is minus their
    sum of squares. For the dyadic families only the finest subdivision
    is summed with ``np.bincount``, at the largest degree; each coarser
    one is ``h0 @ left + h1 @ right`` over its halves' sums
    (``bases.two_scale``), except its degree-0 sums: a degree-0 sum is
    ``sqrt(m)`` added once per point of the piece, in order, and it is
    read at the piece's integer point count from a running sum of
    ``sqrt(m)``, which gives the per-subdivision ``np.bincount`` bit for
    bit. So the estimates do not depend on the input order, and they may
    differ in the last bits from dense ``design.T @ weights`` products.

    The collection must be in selection order, as ``build_collection``
    returns it, and the first model with the lowest computed score wins:
    ties go to the smallest dimension only up to rounding. Degree-0
    scores can tie exactly: for the sub-density of the reference sample
    with seed 20080317, model 2, replication 10 and n = 200, dyadic
    levels 1 and 2 at degree 0 both score -0.264, and level 2 wins. The
    bitwise degree-0 sums keep that outcome.
    """
    if not collection:
        raise ValueError("empty model collection")
    n = sample.n
    coeffs = {}
    for group, sub, den in _piece_moments(collection, sample.u, sample.delta, n):
        pieces = group[0].pieces
        for model in group:
            k = model.dim // pieces
            coeffs[model] = sub[:k].ravel(), den[:k].ravel()

    def score(model: BasisModel, c: np.ndarray, weight_mean: float) -> float:
        return -float(c @ c) + density_penalty(model, n, kappa, weight_mean)

    delta_mean = float(sample.delta.mean())
    fits = [(model, *coeffs[model]) for model in collection]
    sub_model, sub, _ = min(fits, key=lambda fit: score(fit[0], fit[1], delta_mean))
    den_model, _, den = min(fits, key=lambda fit: score(fit[0], fit[2], 1.0))
    return ProjectionEstimate(sub_model, sub), ProjectionEstimate(den_model, den)
