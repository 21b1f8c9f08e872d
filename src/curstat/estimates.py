"""Evaluable distribution-function estimates.

``CdfEstimate`` is the common wrapper returned by all estimation
routes: a method tag, an evaluator on [0, 1] (vectorised, scalar in ->
scalar out), and a metadata dict recording selected models, contrast
and penalty values. ``StepCdf`` is the piecewise-constant variant used
by the max-min and fixed-bin estimators. It evaluates by a binary search
over the knots where its value changes (its value runs), built once at
the first evaluation. On ``_BUCKET_MIN_POINTS`` points or more it first
reads each point's run count from a bucket index built once at the first
such call, keeps a count only where a check proves it is the search's,
and searches the other points. The fixed-bin estimator reads its bins by
index instead (``isotonic.birge_histogram``).

Every other evaluator is built from projection estimates: it has
``parts``, each with a ``model`` and ``coeffs``, and a ``combine`` rule
for their values. ``_evaluate_each`` is the one rule that evaluates
them, for a direct call (``_evaluated``) as for a Monte Carlo chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bases import design_matrix
from .data import _same_bits

# a step function finds the runs of this many points or more by its bucket index
_BUCKET_MIN_POINTS = 4096
_BUCKETS_PER_RUN = 64
_BUCKETS_MAX = 2**16


def _vectorised(fn, x):
    arr = np.ravel(np.asarray(x, dtype=float))
    values = fn(arr)
    if np.ndim(x) == 0:
        return float(values[0])
    return np.reshape(values, np.shape(x))


@dataclass(frozen=True)
class StepCdf:
    """Right-continuous step function, 0 to the left of the first knot.

    ``values[i]`` is carried on ``[knots[i], knots[i+1])``; the last
    value extends to the right. Knots must be sorted and not nan; tied
    knots resolve to the last value at the tie.

    Evaluation searches only the run starts, the knots whose value bits
    differ from the previous knot's (so 0.0 and -0.0, or two nans of
    other payloads, start separate runs): the last run start at or left
    of x carries the bits of the last knot at or left of x. The run
    starts are cached at the first evaluation, so ``knots`` and
    ``values`` must not be changed in place after it. Two step functions
    of one class are equal when their knots and values match bit for bit.

    An input of ``_BUCKET_MIN_POINTS`` points or more, where a table beats
    the search, first reads each point's run count ``r`` from a bucket
    index (``_buckets``), built at the first such call and cached beside
    the run starts. ``r`` is kept only when
    ``bounds[r] <= x < bounds[r + 1]``, with ``bounds`` the run starts
    between -inf and +inf: on sorted run starts only the search's count
    meets that. Every other point (a nan, an infinity, one in a bucket
    that holds a run start or moved across an edge by rounding) is
    searched, so no bit differs from the search.
    """

    knots: np.ndarray
    values: np.ndarray

    __eq__ = _same_bits

    def __post_init__(self):
        knots = np.atleast_1d(np.asarray(self.knots, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if knots.size != values.size or knots.size == 0:
            raise ValueError("knots and values must be equal-length and nonempty")
        # a nan knot fails an order comparison unless it is the only knot
        if not (knots[:-1] <= knots[1:]).all() or math.isnan(knots[0]):
            raise ValueError("knots must be sorted and not nan")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @cached_property
    def _runs(self):
        """Run-start knots, and their values behind a 0 for points left of them all."""
        bits = self.values.view(np.int64)
        starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
        return self.knots[starts], np.concatenate(([0.0], self.values[starts]))

    @cached_property
    def _buckets(self):
        """``(origin, scale, guess, bounds)`` of the bucket index, or None.

        ``[first, last]`` run start is split into ``_BUCKETS_PER_RUN``
        equal buckets per run start, at most ``_BUCKETS_MAX``. Bucket
        ``j`` holds the x whose ``fl(fl(x - origin) * scale)``, clipped to
        ``[0, guess.size - 1]``, truncates to ``j``. That map is monotone
        in x, so ``guess[j]``, the number of run starts in the buckets
        left of ``j``, is the search's count for every x of the bucket
        left of its first run start. None when the run starts span no
        finite, positive width that a float scale maps (one run, or an
        infinite knot): then every point is searched.
        """
        knots, _ = self._runs
        origin, span = float(knots[0]), float(knots[-1]) - float(knots[0])
        buckets = min(_BUCKETS_PER_RUN * knots.size, _BUCKETS_MAX)
        if not 0.0 < span < math.inf or not math.isfinite(scale := buckets / span):
            return None
        # the run starts lie in [0, span], so the product stays below buckets + 1
        owners = ((knots - origin) * scale).astype(np.intp)
        guess = np.searchsorted(owners, np.arange(buckets + 2))
        return origin, scale, guess, np.concatenate(([-np.inf], knots, [np.inf]))

    def _eval(self, x: np.ndarray) -> np.ndarray:
        # the number of run starts at or left of x indexes the lookup
        knots, lookup = self._runs
        table = self._buckets if x.size >= _BUCKET_MIN_POINTS else None
        if table is None:
            return lookup[np.searchsorted(knots, x, side="right")]
        origin, scale, guess, bounds = table
        with np.errstate(over="ignore"):  # a far x may round to inf
            at = np.multiply(np.subtract(x, origin), scale)
        np.fmax(at, 0.0, out=at)  # fmax takes 0 over a nan, which the check sends on
        np.fmin(at, guess.size - 1.0, out=at)
        count = guess[at.astype(np.intp)]
        # the one count with bounds[count] <= x < bounds[count + 1] is the search's
        missed = np.flatnonzero(~((bounds[count] <= x) & (x < bounds[1:][count])))
        count[missed] = np.searchsorted(knots, x[missed], side="right")
        return lookup[count]

    def __call__(self, x):
        return _vectorised(self._eval, x)


@dataclass(frozen=True)
class CdfEstimate:
    """A distribution-function estimate plus how it was obtained."""

    method: str
    evaluator: object  # callable on float arrays
    metadata: dict = field(default_factory=dict)

    def __call__(self, x):
        return _vectorised(self.evaluator, x)


def _evaluate_each(estimates, points) -> list[np.ndarray]:
    """Each estimate at its own 1-d float points.

    An estimate whose evaluator (``estimate.evaluator``, else the
    estimate itself) has ``parts`` and ``combine``, such as a
    ``projection.ProjectionEstimate``, the quotient's ``ClampedRatio`` or
    a clamped regression's ``_Clipped``, takes ``combine`` of its parts'
    values, ``design_matrix(part.model, x) @ part.coeffs``. The parts of
    one model share one ``design_matrix`` over their points joined in
    order, each set of points once (one estimate's points too, as a
    copy), and each part multiplies its own contiguous row slice by its
    coefficients. The basis values are elementwise and the slice has the
    shape of the part's own design matrix, so every value is the one the
    estimate gets evaluated alone. Any other estimate, a step function, a
    Birgé histogram or a plain callable, is called on its points.
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
        design = design_matrix(model, np.concatenate(xs))
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


def _evaluated(evaluator, x):
    """The ``__call__`` of every evaluator with ``parts``: ``_evaluate_each`` of it alone."""
    return _vectorised(lambda points: _evaluate_each([evaluator], [points])[0], x)


@dataclass(frozen=True, eq=False)
class _Clipped:
    """Evaluator of another one's values truncated to [0, 1]; it has the other's parts."""

    inner: object

    def parts(self) -> tuple:
        return self.inner.parts()

    def combine(self, values) -> np.ndarray:
        return np.clip(self.inner.combine(values), 0.0, 1.0)

    __call__ = _evaluated
