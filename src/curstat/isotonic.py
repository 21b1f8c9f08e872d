"""Step-function benchmarks: max-min NPMLE and fixed-bin histogram.

The nonparametric maximum-likelihood estimator of the distribution
function from current-status data is piecewise constant with jumps at
the sorted examination times; its value at the i-th sorted point is
``max over j <= i of min over k >= i of mean(delta[j..k])``. The same
function is the isotonic least-squares regression of the sorted status
indicators (Groeneboom & Wellner, 1992), computed here independently by
pool-adjacent-violators.

Both routes read the sample in ``ObservationSample.time_order``, which
puts status 1 ahead of status 0 within a tied time (see ``data``). Each
tie group is then non-increasing, and an isotonic fit is constant across
a non-increasing stretch, so each tie group gets one value: the NPMLE
over the distinct times, whatever the input order.

The pooling runs in numpy rounds rather than one point at a time (the
parallel view of PAVA in Best & Chakravarti, 1990). Blocks start as the
runs of equal status and carry exact integer (sum, count) pairs. Each
round compares every pair of neighbours by integer cross-products and
merges every maximal chain of neighbours whose means do not increase,
ties included, with one ``np.add.reduceat``. Rounds stop when the block
means increase strictly. A long increasing staircase of means ahead of
a low run needs one round per step, so after ``MAX_POOLING_ROUNDS``
rounds the classic stack loop finishes the job over the remaining
blocks.

A Monte Carlo chunk pools all of its samples in one set of rounds over
their sorted statuses joined sample after sample. The boundary rule
keeps every block inside its sample: sample i's integer statuses are
offset by ``2 * i``, so a run of equal values never crosses a sample,
and every block mean of sample i lies in [2i, 2i + 1], below every mean
of sample i + 1. Within a sample the offset adds ``2 * i * c1 * c2`` to
both sides of each cross-product, so every pooling decision is the one
the sample makes alone, and the stack loop may finish over all of the
chunk's blocks. Each pooled sum is its sample's own modulo twice its
count. ``npmle_pava`` runs the same pooling (``_pool_blocks``) on one
sample's statuses, which need no offset. The chunk's samples come
sorted, once for every method, in a ``data._SortedStack``.

Both routes produce bitwise-identical values: the isotonic solution is
unique, and every output value is a single IEEE division of the exact
integer block sum by the block count.

The fixed-bin histogram estimator averages the status indicators over a
regular partition of [0, 1] (zero on empty bins). It is not monotone in
general and needs the bin count chosen by the caller. It evaluates by
bin index, ``floor(x * n_bins)``, with no search over its knots. A
Monte Carlo chunk bins all of its samples by one pair of
``np.bincount`` calls over the stack's joined points in [0, 1]
(``_birge_histograms``); counts and sums of 0/1 statuses are exact in
any order, so each sample's values are those it gets alone.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .data import ObservationSample, _integral
from .estimates import StepCdf


def npmle_maxmin(sample: ObservationSample) -> StepCdf:
    """NPMLE by direct evaluation of the max-min formula.

    Quadratic in time and memory; fine up to a few thousand
    observations. ``npmle_pava`` computes the same function in linear
    time after the same sort (``ObservationSample.time_order``).
    """
    order = sample.time_order()
    knots, d = sample.u[order], sample.delta[order]
    n = sample.n
    csum = np.concatenate([[0.0], np.cumsum(d)])  # exact small integers
    start = np.arange(n)
    # means[j, k] = mean of d[j..k]; entries with k < j are never consulted
    num = csum[None, 1:] - csum[:-1, None]
    length = np.arange(n)[None, :] - start[:, None] + 1.0
    means = np.where(length > 0, num / np.where(length > 0, length, 1.0), np.inf)
    # inner minimum over k >= i, then outer maximum over j <= i
    suffix_min = np.minimum.accumulate(means[:, ::-1], axis=1)[:, ::-1]
    prefix_max = np.maximum.accumulate(suffix_min, axis=0)
    values = np.diagonal(prefix_max).copy()
    return StepCdf(knots, values)


# Rounds of chain pooling before the stack loop takes over; samples of
# models 1-5 need at most 14 rounds up to n = 1e5.
MAX_POOLING_ROUNDS = 64


def npmle_pava(sample: ObservationSample) -> StepCdf:
    """NPMLE by pool-adjacent-violators on the sorted status indicators.

    Tied times are ordered by ``ObservationSample.time_order`` (status 1
    first), so each tie group gets one value. Blocks carry integer
    (sum, count) pairs, starting from the runs of equal status. Each
    round merges every maximal chain of neighbouring blocks whose means
    do not increase (``_pool_rounds``); after ``MAX_POOLING_ROUNDS``
    rounds the stack loop ``_pool_stack`` pools the remaining blocks.
    Comparisons use integer cross-products, so pooling decisions are
    exact.
    """
    order = sample.time_order()
    sums, counts = _pool_blocks(sample.delta[order])
    return StepCdf(sample.u[order], np.repeat(sums / counts, counts))


def _npmle_pavas(stack) -> list[StepCdf]:
    """``npmle_pava`` of each sample of a ``data._SortedStack`` from one set of pooling rounds.

    The samples' statuses in their ``time_order`` are joined one after
    another, each sample's offset by twice its index (the boundary rule
    of the module docstring), and pooled by ``_pool_blocks`` as
    ``npmle_pava`` pools one sample's, so no block pools across a sample
    and each sample's values are bitwise those it gets alone. The int64
    cross-products are at most ``2 * samples * points**2`` for the joined
    point count: at most 2**43 for the stacks of at most 2**14 points
    that ``simulate`` builds, and ``2 * n**2`` for one sample of n
    points, exact for n below 2**31.
    """
    samples, orders = stack.samples, stack.orders
    status = np.concatenate([s.delta[o] + 2.0 * i for i, (s, o) in enumerate(zip(samples, orders))])
    sums, counts = _pool_blocks(status)
    sums %= 2 * counts  # each block's own statuses sum to at most its count
    values = np.repeat(sums / counts, counts)
    stops = itertools.accumulate(o.size for o in orders)
    return [StepCdf(u, values[e - u.size : e]) for u, e in zip(stack.times, stops)]


def _pool_blocks(status: np.ndarray):
    """Pooled integer (sums, counts) of sorted statuses: rounds, then the stack finish."""
    sums, counts = _status_runs(status)
    sums, counts, rounds = _pool_rounds(sums, counts, MAX_POOLING_ROUNDS)
    if rounds == MAX_POOLING_ROUNDS:
        sums, counts = _pool_stack(sums, counts)
    return sums, counts


def _status_runs(delta: np.ndarray):
    """Integer (sums, counts) of the runs of equal status in ``delta``."""
    d = delta.astype(np.int64)
    changes = np.flatnonzero(d[1:] != d[:-1]) + 1
    starts = np.concatenate(([0], changes))
    counts = np.concatenate((changes, [d.size])) - starts
    return d[starts] * counts, counts


def _pool_rounds(sums: np.ndarray, counts: np.ndarray, limit: int):
    """Pool every chain of adjacent violators per round, for at most ``limit`` rounds.

    A block pools into its predecessor when the predecessor's mean is not
    smaller. Returns the pooled ``(sums, counts)`` and the number of
    rounds that merged something; when that number is ``limit`` the
    blocks may still violate. The int64 cross-products are at most n**2,
    so they are exact for n below 3e9.
    """
    for rounds in range(limit):
        pool = sums[:-1] * counts[1:] >= sums[1:] * counts[:-1]
        if not pool.any():
            return sums, counts, rounds
        starts = np.flatnonzero(np.concatenate(([True], ~pool)))
        sums = np.add.reduceat(sums, starts)
        counts = np.add.reduceat(counts, starts)
    return sums, counts, limit


def _pool_stack(sums: np.ndarray, counts: np.ndarray):
    """Classic stack PAVA over blocks: pool into the predecessor while it violates."""
    pooled_sums: list[int] = []
    pooled_counts: list[int] = []
    for s, c in zip(sums.tolist(), counts.tolist()):
        pooled_sums.append(s)
        pooled_counts.append(c)
        while (
            len(pooled_sums) > 1
            and pooled_sums[-2] * pooled_counts[-1] >= pooled_sums[-1] * pooled_counts[-2]
        ):
            s, c = pooled_sums.pop(), pooled_counts.pop()
            pooled_sums[-1] += s
            pooled_counts[-1] += c
    return np.array(pooled_sums, dtype=np.int64), np.array(pooled_counts, dtype=np.int64)


def birge_histogram(sample: ObservationSample, n_bins: int) -> StepCdf:
    """Status means over a regular partition of [0, 1], zero on empty bins.

    Observations outside [0, 1] are ignored. The last bin is closed at 1.
    A point ``u`` falls in bin ``floor(u * n_bins)``, and the estimate
    reads the same bin at ``u``: its knots are ``_bin_edges(n_bins)``.
    It is a ``StepCdf`` on those knots that evaluates by that bin index
    (``_BinnedCdf``), bitwise as the search over the knots would.
    """
    if not _integral(n_bins):
        raise ValueError("n_bins must be an integer")
    if n_bins < 1:
        raise ValueError("need at least one bin")
    inside = (sample.u >= 0.0) & (sample.u <= 1.0)
    u = sample.u[inside]
    d = sample.delta[inside]
    idx = np.minimum((u * n_bins).astype(int), n_bins - 1)
    return _BinnedCdf(_bin_edges(int(n_bins)), _bin_means(idx, d, n_bins))


def _birge_histograms(stack, n_bins: int) -> list[StepCdf]:
    """``birge_histogram`` of each sample of a ``data._SortedStack``, from one pair of bincounts.

    The stack's joined points in [0, 1] fall in ``n_bins`` bins per
    sample, each sample's after the last one's, and one ``np.bincount``
    counts them while another sums their statuses. Counts and sums of 0/1
    statuses are exact integers in any order of their points, so each
    sample's values are bitwise those it gets alone.
    """
    count = len(stack.sizes)
    idx = stack.offset(np.minimum((stack.x * n_bins).astype(int), n_bins - 1), n_bins)
    values = _bin_means(idx, stack.delta, count * n_bins).reshape(count, n_bins)
    edges = _bin_edges(int(n_bins))
    return [_BinnedCdf(edges, row) for row in values]


def _bin_means(idx: np.ndarray, statuses: np.ndarray, bins: int) -> np.ndarray:
    """Mean status of each of ``bins`` bins from the points' bin indices, 0 in an empty bin."""
    counts = np.bincount(idx, minlength=bins)
    sums = np.bincount(idx, weights=statuses, minlength=bins)
    return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)


class _BinnedCdf(StepCdf):
    """``StepCdf`` on ``_bin_edges(values.size)``, evaluated by bin index.

    ``floor(fl(x * bins))`` is monotone in x, and edge k is the smallest
    float it takes to k or beyond, so clipped to [-1, bins - 1] it is one
    less than the number of edges at or left of x. A nan reads the last
    bin, where the search puts it.
    """

    def _eval(self, x: np.ndarray) -> np.ndarray:
        bins = self.values.size
        with np.errstate(over="ignore"):  # x * bins may round to inf
            index = np.multiply(x, bins)
        np.floor(index, out=index)
        np.fmin(index, bins - 1.0, out=index)  # fmin takes bins - 1 over a nan
        np.fmax(index, -1.0, out=index)
        # bin -1, left of every edge, reads the 0 appended behind the values
        return np.concatenate((self.values, [0.0]))[index.astype(np.intp)]


@functools.lru_cache(maxsize=128)
def _bin_edges(n_bins: int) -> np.ndarray:
    """Left edges of ``birge_histogram``'s bins, as a read-only array.

    Edge k is the smallest float ``u`` with ``floor(u * n_bins) >= k``.
    The rounded product can put a point within an ulp below ``k / n_bins``
    in bin k, or one at ``k / n_bins`` in bin k - 1, so each edge starts
    at ``k / n_bins`` and moves by single ulps until it is the smallest
    float of its bin.
    """
    k = np.arange(n_bins)
    edges = k / n_bins
    while True:
        lower = np.nextafter(edges, -np.inf)
        down = np.floor(lower * n_bins) >= k
        up = np.floor(edges * n_bins) < k
        if not (down.any() or up.any()):
            break
        edges = np.where(down, lower, np.where(up, np.nextafter(edges, np.inf), edges))
    edges.flags.writeable = False
    return edges
