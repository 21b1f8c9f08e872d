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
per-piece sums over one ``bases.subdivisions`` pass, the pass the
regression route also reads, and ``empirical_coefficients`` reads it for
one model. The dense coefficients and general contrast are in ``tests/dense_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import BasisModel, corrected_dim, design_matrix, phi0, subdivisions, _DYADIC_TAGS
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
    divisor n. The sums are those of ``select_projection_model``.
    """
    weights = np.ones(sample.n) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (sample.n,):
        raise ValueError("weights must have one entry per observation")
    ((_, piece, columns, weights),) = subdivisions([model], sample.u, weights)
    return _piece_moments(piece, columns, weights, model.pieces, sample.n).ravel()


def _piece_moments(piece, columns, weights, pieces: int, n: int) -> np.ndarray:
    """Per-piece sums of each basis row times ``weights`` (None: ones), over n."""
    rows = columns if weights is None else (row * weights for row in columns)
    return np.array([np.bincount(piece, row, pieces) for row in rows]) / n


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

    Returns the ``(subdensity, density)`` pair of estimates. Per
    subdivision of ``bases.subdivisions``, the richest model's basis
    functions are summed per piece with ``np.bincount`` over the points
    in sorted time order, weighted by ``delta`` and by ones, and divided
    by n; each candidate's coefficients are a degree-major prefix of
    those sums, and its contrast is minus their sum of squares. So the
    estimates do not depend on the input order, and they may differ in
    the last bits from dense ``design.T @ weights`` products.

    The collection must be in selection order, as ``build_collection``
    returns it, and the first model with the lowest computed score wins:
    ties go to the smallest dimension only up to rounding. Degree-0
    scores can tie exactly: for the sub-density of the reference sample
    with seed 20080317, model 2, replication 10 and n = 200, dyadic
    levels 1 and 2 at degree 0 both score -0.264, and level 2 wins.
    """
    if not collection:
        raise ValueError("empty model collection")
    n = sample.n
    coeffs = {}
    for group, piece, columns, delta in subdivisions(collection, sample.u, sample.delta):
        pieces = group[0].pieces
        sub = _piece_moments(piece, columns, delta, pieces, n)
        den = _piece_moments(piece, columns, None, pieces, n)
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
