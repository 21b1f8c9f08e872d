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
per-piece sums over the points in [0, 1] in the one time order that the
``data`` module states and ``ObservationSample.sorted_inside`` gives,
and ``empirical_coefficients`` takes one model's from the same helper.
The sums come from ``bases.piece_sums``. For the dyadic families the
basis is evaluated once, at the finest subdivision of the collection;
each coarser subdivision's sums follow from the next finer one's by the
two-scale matrices of ``bases.two_scale``, and its degree-0 sums are
rebuilt from integer point counts so that they stay bitwise those of a
per-subdivision ``np.bincount``. The regular piecewise and
trigonometric families, whose subdivisions do not nest, evaluate and
sum each subdivision on its own. The dense coefficients and general
contrast are in ``tests/dense_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import BasisModel, design_matrix, penalty_factors, piece_sums
from .data import ObservationSample
from .estimates import _vectorised


@dataclass(frozen=True)
class ProjectionEstimate:
    """Linear combination of basis functions with empirical coefficients.

    ``parts`` and ``combine`` state how the estimate is evaluated, as
    ``combine`` of each part's ``design_matrix(part.model, x) @
    part.coeffs``: here the one part is the estimate itself. A subclass
    that evaluates otherwise must override them too, since
    ``_evaluate_each`` reads only them.
    """

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

    def parts(self) -> tuple:
        return (self,)

    @staticmethod
    def combine(values) -> np.ndarray:
        return values[0]


def _evaluate_each(estimates, points) -> list[np.ndarray]:
    """Each estimate at its own 1-d float points, bitwise as ``estimate(x)``.

    An estimate whose evaluator (``estimate.evaluator``, else the
    estimate itself) has ``parts`` and ``combine``, a ``ProjectionEstimate``
    or the quotient's ``ClampedRatio``, takes ``combine`` of its parts'
    values. The parts of one model share one ``design_matrix`` over their
    points joined in order, each set of points once, and each part
    multiplies its own contiguous row slice by its coefficients. The
    basis values are elementwise and the slice has the shape of the
    part's own design matrix, so every value is the one its own call
    computes. Any other estimate, such as a step function or a clamped
    regression, is called on its points.
    """
    evaluators = [getattr(estimate, "evaluator", estimate) for estimate in estimates]
    parts = [ev.parts() if hasattr(ev, "parts") else () for ev in evaluators]
    groups: dict = {}
    for j, row in enumerate(parts):
        for k, part in enumerate(row):
            groups.setdefault(part.model, {}).setdefault(j, []).append(k)
    values = [[None] * len(row) for row in parts]
    for model, members in groups.items():
        xs = [points[j] for j in members]
        design = design_matrix(model, xs[0] if len(xs) == 1 else np.concatenate(xs))
        stop = 0
        for (j, ks), x in zip(members.items(), xs):
            start, stop = stop, stop + x.size
            for k in ks:
                values[j][k] = design[start:stop] @ parts[j][k].coeffs
        del design  # freed before the next model's matrix is built
    return [
        ev.combine(v) if v else np.asarray(estimate(x), dtype=float)
        for estimate, ev, v, x in zip(estimates, evaluators, values, points)
    ]


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
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (sample.n,):
            raise ValueError("weights must have one entry per observation")
    ((_, (sums,)),) = _stacked_moments([model], [sample], [[weights]])
    return sums.ravel()


def _stacked_inside(samples, weights):
    """``sorted_inside`` of each sample with its weight rows, joined sample after sample.

    ``weights`` holds one list of rows per sample (None for ones).
    Returns ``(sizes, x, rows)``: each sample's count of points in
    [0, 1], and the joined points and rows, as ``bases.piece_sums`` and
    ``bases.piece_factors`` take them.
    """
    parts = [sample.sorted_inside(*rows) for sample, rows in zip(samples, weights)]
    sizes = [part[0].size for part in parts]
    joined = [
        None if column[0] is None else column[0] if len(parts) == 1 else np.concatenate(column)
        for column in zip(*parts)
    ]
    return sizes, joined[0], joined[1:]


def _stacked_moments(models, samples, weights):
    """Per-piece sums of basis rows times weight rows, each over its sample's n.

    ``weights`` holds one list of rows per sample, a row of None standing
    for ones, which are neither gathered nor multiplied. Yields ``(group,
    sums)`` per subdivision of ``models``, with one ``(samples, d,
    pieces)`` array in ``sums`` per weight row: row ``a`` of a sample
    holds the per-piece sums of its degree-``a`` functions (for trig, of
    the ``a``-th function, on one piece), and a model of the group reads
    the first ``dim // pieces`` rows. Sums run with ``np.bincount`` over
    the points in [0, 1] in each sample's time order, in one
    ``bases.piece_sums`` pass, and each sample's are bitwise those of its
    own pass. For the dyadic families it sums the finest subdivision only
    and refines the others from it; that needs 0/1 weights whenever the
    models span more than one subdivision.
    """
    sizes, x, rows = _stacked_inside(samples, weights)
    n = np.array([sample.n for sample in samples])[:, None, None]
    for group, sums in piece_sums(models, x, rows, sizes):
        yield group, [s / n for s in sums]


def density_penalty(
    model: BasisModel, n: int, kappa: float = 4.0, delta_mean: float = 1.0
) -> float:
    """Dimension penalty for the density contrast.

    ``kappa`` multiplies the whole penalty ``kappa * norm * delta_mean *
    dim / n``, with ``(norm, dim)`` from ``bases.penalty_factors``: the
    degree-corrected dimension for the dyadic families, ``phi0^2 * dim``
    for the others. ``delta_mean`` is 1 for the examination-time density
    and the observed status frequency for the sub-density target.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= delta_mean <= 1.0:
        raise ValueError("delta_mean must lie in [0, 1]")
    return _density_penalty(*penalty_factors(model), n, kappa, delta_mean)


def _density_penalty(norm, dim, n, kappa: float, delta_mean):
    """``kappa * norm * delta_mean * dim / n``, for scalars or arrays that broadcast."""
    if not 0.0 < kappa < np.inf:
        raise ValueError("kappa must be positive and finite")
    return kappa * norm * delta_mean * dim / n


def select_projection_model(
    sample: ObservationSample, collection, kappa: float = 4.0
) -> tuple[ProjectionEstimate, ProjectionEstimate]:
    """Minimise penalized contrast over the collection for both targets.

    Returns the ``(subdensity, density)`` pair of estimates. The basis
    functions of the richest model of each subdivision are summed per
    piece over the points in sorted time order, weighted by ``delta`` and
    unweighted, and divided by n; each candidate's coefficients are a
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

    The scores of both targets are one array: minus each candidate's sum
    of squares plus its ``density_penalty``, from one array of penalty
    factors and rounded as that function rounds it. The collection must
    be in selection order, as ``build_collection`` returns it, and
    ``argmin`` takes the first model with the lowest computed score:
    ties go to the smallest dimension only up to rounding. Degree-0
    scores can tie exactly: for the sub-density of the reference sample
    with seed 20080317, model 2, replication 10 and n = 200, dyadic
    levels 1 and 2 at degree 0 both score -0.264, and level 2 wins. The
    bitwise degree-0 sums keep that outcome.

    This is ``_select_models`` on one sample.
    """
    return _select_models([sample], collection, kappa)[0]


def _select_models(samples, collection, kappa: float = 4.0) -> list:
    """``select_projection_model`` of several samples from one pass of sums.

    The per-piece sums of every sample come from one ``piece_sums``
    pass. Both targets of all samples are scored as one ``(2 * samples,
    models)`` array, the sub-density rows first, and every row is picked
    by one ``argmin``. Each sum of squares is one entry of a stacked
    ``c[:, None, :] @ c[:, :, None]`` over a candidate's coefficient rows,
    which runs on each row the BLAS dot product of that row's own
    ``c @ c`` (``einsum`` and ``(c * c).sum()`` sum in other orders), and
    each penalty goes through ``_density_penalty``'s operations in its
    order, so every score, and so every pick, is the one the sample gets
    alone.
    """
    if not collection:
        raise ValueError("empty model collection")
    count = len(samples)
    weights = [[sample.delta, None] for sample in samples]
    # the sums of the statuses give the sub-density rows, those of ones the
    # density rows, and a model's degree-major coefficients are the first
    # dim entries of its level's row
    flat = {
        group[0].pieces: np.concatenate(sums).reshape(2 * count, -1)
        for group, sums in _stacked_moments(collection, samples, weights)
    }
    targets = [flat[model.pieces][:, : model.dim] for model in collection]
    squares = np.array([(c[:, None, :] @ c[:, :, None]).ravel() for c in targets]).T
    norms, dims = np.array([penalty_factors(model) for model in collection]).T
    n = np.array([[sample.n] for sample in samples] * 2)
    means = np.array([[sample.delta.mean()] for sample in samples] + [[1.0]] * count)
    # penalty - c'c rounds as -c'c + penalty does
    best = (_density_penalty(norms, dims, n, kappa, means) - squares).argmin(axis=1).tolist()
    estimates = [ProjectionEstimate(collection[b], targets[b][i]) for i, b in enumerate(best)]
    return list(zip(estimates[:count], estimates[count:]))
