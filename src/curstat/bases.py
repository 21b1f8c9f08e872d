"""Orthonormal function systems on the unit interval.

Four families back the projection and regression estimators: the
trigonometric system, regular piecewise Legendre polynomials, their
dyadic variant (number of pieces a power of two, per-piece degree chosen
together with the resolution level), and the Haar/histogram system
(dyadic pieces, degree zero). All families are orthonormal in
L2([0, 1]), and each carries an explicit constant ``phi0`` such that
``sum_k phi_k(x)^2 <= phi0(model)**2 * model.dim`` pointwise, which is
what the penalty calibration relies on.

Basis functions vanish identically outside [0, 1]: observations outside
the estimation interval contribute zero rows to design matrices while
still counting toward the sample size. The quadrature that certifies the
bases (Gram matrices, projections) is test code, in ``tests/quadrature.py``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legvander

from .data import _integral

TRIG = "trig"
POLY = "poly"
DYADIC = "dyadic"
HAAR = "haar"

_FAMILY_TAGS = (TRIG, POLY, DYADIC, HAAR)
_DYADIC_TAGS = (DYADIC, HAAR)

DEFAULT_MAX_DEGREE = 9

# Dimension cap rules understood by build_collection: the projection
# densities use the first, the regression the second.
CAP_DENSITY = "density"        # dim <= n / ln(n)^2
CAP_REGRESSION = "regression"  # trig: dim <= sqrt(n)/ln(n); otherwise n / ln(n)^2


class EmptyCollectionError(ValueError):
    """No model of the family satisfies the dimension cap."""


@dataclass(frozen=True)
class BasisFamily:
    """Family tag plus its polynomial degree parameter.

    ``max_degree`` is the fixed per-piece degree for ``POLY`` models and
    the largest admissible degree when enumerating ``DYADIC``
    collections; it is ignored by ``TRIG`` and must be 0 for ``HAAR``.
    """

    tag: str
    max_degree: int = 0

    def __post_init__(self):
        if self.tag not in _FAMILY_TAGS:
            raise ValueError(f"unknown basis family tag {self.tag!r}")
        if not _integral(self.max_degree):
            raise ValueError("max_degree must be an integer")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if self.tag == HAAR and self.max_degree != 0:
            raise ValueError("the Haar family has degree 0")


def trig_family() -> BasisFamily:
    return BasisFamily(TRIG)


def poly_family(degree: int) -> BasisFamily:
    return BasisFamily(POLY, degree)


def dyadic_family(max_degree: int = DEFAULT_MAX_DEGREE) -> BasisFamily:
    return BasisFamily(DYADIC, max_degree)


def haar_family() -> BasisFamily:
    return BasisFamily(HAAR)


@dataclass(frozen=True)
class BasisModel:
    """One concrete finite-dimensional approximation space.

    Trigonometric models are indexed by the number of sine/cosine pairs
    (``harmonics``, dimension ``2*harmonics + 1``); piecewise models by
    the number of equal subintervals (``pieces``) and the per-piece
    polynomial ``degree`` (dimension ``pieces * (degree + 1)``).

    Piecewise basis functions are ordered degree-major: all degree-0
    functions piece by piece, then all degree-1 functions, and so on.
    On a fixed subdivision a lower-degree model is therefore a column
    prefix of any higher-degree model, mirroring the prefix structure of
    the trigonometric system.
    """

    family: BasisFamily
    pieces: int = 1
    degree: int = 0
    harmonics: int = 0

    def __post_init__(self):
        for name in ("pieces", "degree", "harmonics"):
            if not _integral(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        tag = self.family.tag
        if tag == TRIG:
            if self.harmonics < 0:
                raise ValueError("harmonics must be >= 0")
            if self.pieces != 1 or self.degree != 0:
                raise ValueError("trigonometric models carry no piece/degree index")
            return
        if self.harmonics != 0:
            raise ValueError("piecewise models carry no harmonic index")
        if self.pieces < 1:
            raise ValueError("pieces must be >= 1")
        if not 0 <= self.degree <= self.family.max_degree:
            raise ValueError(
                f"degree {self.degree} outside [0, {self.family.max_degree}]"
            )
        if tag == POLY and self.degree != self.family.max_degree:
            raise ValueError("regular piecewise models use the family degree")
        if tag in _DYADIC_TAGS and self.pieces & (self.pieces - 1):
            raise ValueError("dyadic models need a power-of-two piece count")

    @property
    def dim(self) -> int:
        if self.family.tag == TRIG:
            return 2 * self.harmonics + 1
        return self.pieces * (self.degree + 1)

    @property
    def level(self) -> int:
        """Resolution level p with pieces = 2**p (dyadic families only)."""
        if self.family.tag not in _DYADIC_TAGS:
            raise ValueError("level is defined for dyadic families only")
        return int(self.pieces).bit_length() - 1

    def describe(self) -> str:
        tag = self.family.tag
        if tag == TRIG:
            return f"trig(m={self.harmonics}, dim={self.dim})"
        if tag == POLY:
            return f"poly(pieces={self.pieces}, degree={self.degree}, dim={self.dim})"
        if tag == HAAR:
            return f"haar(level={self.level}, dim={self.dim})"
        return f"dyadic(level={self.level}, degree={self.degree}, dim={self.dim})"


def trig_model(harmonics: int) -> BasisModel:
    return BasisModel(trig_family(), harmonics=harmonics)


def poly_model(pieces: int, degree: int) -> BasisModel:
    return BasisModel(poly_family(degree), pieces=pieces, degree=degree)


def dyadic_model(level: int, degree: int) -> BasisModel:
    fam = dyadic_family(max(degree, DEFAULT_MAX_DEGREE))
    return BasisModel(fam, pieces=2**level, degree=degree)


def haar_model(level: int) -> BasisModel:
    return BasisModel(haar_family(), pieces=2**level)


def model_sort_key(model: BasisModel):
    """Selection order: dimension first, then coarser subdivisions first.

    For dyadic pairs of equal dimension this sorts by (pieces, degree),
    i.e. lexicographically in (level, degree).
    """
    return (model.dim, model.pieces, model.degree, model.harmonics)


def phi0(model: BasisModel) -> float:
    """Norm-connection constant of the model's family.

    sqrt(2) for the trigonometric system and sqrt(2r + 1) for piecewise
    polynomials of degree r (hence 1 for Haar).
    """
    if model.family.tag == TRIG:
        return math.sqrt(2.0)
    return math.sqrt(2.0 * model.degree + 1.0)


def corrected_dim(model: BasisModel) -> float:
    """Penalty dimension with the degree correction for dyadic families.

    Replaces the raw dimension ``pieces * (degree + 1)`` by
    ``pieces * (degree + 1 + ln(degree + 1)**2.5)``, which removes the
    incentive to buy smoothness through high degrees at coarse
    resolutions. Identical to the raw dimension at degree 0.
    """
    d = model.degree + 1
    return model.pieces * (d + math.log(d) ** 2.5)


def penalty_factors(model: BasisModel) -> tuple[float, float]:
    """``(norm, dim)`` that the model selection penalties charge.

    ``(1, corrected_dim)`` for the dyadic families, ``(phi0**2, dim)``
    for the others. The density penalty charges ``norm * dim``, the
    regression penalty ``dim``.
    """
    if model.family.tag in _DYADIC_TAGS:
        return 1.0, corrected_dim(model)
    return phi0(model) ** 2, float(model.dim)


# ---------------------------------------------------------------------------
# Evaluation


def design_matrix(model: BasisModel, x) -> np.ndarray:
    """Evaluate all basis functions of ``model`` at the points ``x``.

    Returns an array of shape ``(len(x), model.dim)``. Rows for points
    outside [0, 1] are identically zero.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((x.size, model.dim))
    inside = (x >= 0.0) & (x <= 1.0)
    piece, rows = basis_rows(model, x[inside])
    # column a * pieces + j of a row is entry (a, j) of its (dim // pieces, pieces) view
    out.reshape(x.size, len(rows), model.pieces)[inside, :, piece] = rows.T
    return out


def piecewise_legendre(pieces: int, degree: int, x: np.ndarray):
    """Piece index and orthonormal Legendre values of points ``x`` in [0, 1].

    Returns ``(piece, values)``: ``piece[i]`` is the subinterval of
    ``[0, 1]`` cut into ``pieces`` equal parts that holds ``x[i]`` (the
    right endpoint belongs to the last piece), and ``values[i, a]`` is
    the degree-``a`` basis function of that piece at ``x[i]``, for
    ``a = 0..degree``. These are the entries of row i of
    ``design_matrix`` that can be nonzero, at columns
    ``a * pieces + piece[i]``.
    """
    m = pieces
    piece = np.minimum((x * m).astype(int), m - 1)
    # map each piece [j/m, (j+1)/m] onto [-1, 1]
    u = 2.0 * m * x - 2.0 * piece - 1.0
    # columns are Legendre values Q_0..Q_r at u; each is contiguous in memory
    values = legvander(u, degree)
    values *= np.sqrt(m * (2.0 * np.arange(degree + 1) + 1.0))
    return piece, values


@functools.lru_cache(maxsize=None)
def two_scale(degree: int):
    """Two-scale matrices ``(h0, h1)`` of the orthonormal piecewise Legendre basis.

    On the left half of a dyadic piece, the piece's degree-``a`` basis
    function equals ``sum_b h0[a, b]`` times the half's degree-``b``
    function, and on the right half the same with ``h1`` (Alpert, 1993).
    So the per-piece sums of a subdivision are ``h0 @ left + h1 @ right``
    over the sums of its two halves. Both matrices are lower-triangular,
    ``(degree + 1) x (degree + 1)`` and read-only, and ``h1[a, b]`` is
    ``(-1)**(a + b) * h0[a, b]``.
    """
    r = degree
    b = np.arange(r + 1.0)
    # Legendre coefficients of s * c(s): s P_b = ((b + 1) P_{b+1} + b P_{b-1}) / (2b + 1)
    times_s = np.diag((b[:-1] + 1.0) / (2.0 * b[:-1] + 1.0), -1)
    times_s += np.diag(b[1:] / (2.0 * b[1:] + 1.0), 1)
    # row a: coefficients of P_a((s - 1) / 2) over P_0(s)..P_r(s), by Bonnet's
    # recurrence (row -1 is still zero when a = 0 reads it)
    coef = np.zeros((r + 1, r + 1))
    coef[0, 0] = 1.0
    for a in range(r):
        t_coef = (times_s @ coef[a] - coef[a]) / 2.0
        coef[a + 1] = t_coef * (2 * a + 1) / (a + 1) - coef[a - 1] * a / (a + 1)
    h0 = np.tril(coef * np.sqrt((2.0 * b[:, None] + 1.0) / (2.0 * b[None, :] + 1.0) / 2.0))
    h1 = h0 * (-1.0) ** np.add.outer(b, b)
    h0.flags.writeable = h1.flags.writeable = False
    return h0, h1


def trig_rows(harmonics: int, x: np.ndarray) -> np.ndarray:
    """Trigonometric basis at points ``x`` in [0, 1], one row per function.

    Returns a ``(2 * harmonics + 1, len(x))`` array, built one harmonic
    at a time so no temporary holds more than one value per point; its
    transpose is the trig block of ``design_matrix``.
    """
    rows = np.empty((2 * harmonics + 1, x.size))
    rows[0] = 1.0
    for k in range(1, harmonics + 1):
        arg = x * (2.0 * np.pi * k)
        rows[2 * k - 1] = math.sqrt(2.0) * np.cos(arg)
        rows[2 * k] = math.sqrt(2.0) * np.sin(arg)
    return rows


def _by_pieces(models) -> dict[int, list[BasisModel]]:
    groups: dict[int, list[BasisModel]] = {}
    for model in models:
        groups.setdefault(model.pieces, []).append(model)
    return groups


def basis_rows(model: BasisModel, x: np.ndarray):
    """Piece index and basis rows of ``model`` at points ``x`` in [0, 1].

    Returns ``(piece, rows)``: the piece of each point and one row per
    basis function of a piece, ``dim // pieces`` rows (for trig, every
    function, on its one piece). Row ``a`` at point i is the entry of
    ``design_matrix`` at column ``a * pieces + piece[i]``.
    """
    if model.family.tag == TRIG:
        return np.zeros(x.size, dtype=int), trig_rows(model.harmonics, x)
    piece, values = piecewise_legendre(model.pieces, model.degree, x)
    return piece, values.T


def piece_sums(models, points, weights):
    """Per-piece sums of a collection at each of its subdivisions.

    ``points`` is a ``data._SortedStack``: its ``x`` holds the points in
    [0, 1] of one or more samples, joined one after another in the one
    time order of the ``data`` module, and its ``sizes`` each sample's
    count of them. ``weights`` holds rows of weights at those points
    (None for a row of ones). Yields ``(group, sums)`` per subdivision of
    ``models`` (the models of one piece count), in the order the
    subdivisions first appear in ``models``: per weight row, a
    ``(samples, d, pieces)`` array whose entry ``[s, a]`` holds sample
    s's per-piece sums of the ``a``-th function of a piece (the
    degree-``a`` one for piecewise families) times the weights. A model
    of the group reads the leading ``dim // pieces`` rows of a sample.

    The regular piecewise and trigonometric families, whose subdivisions
    do not nest, evaluate each subdivision's richest model once and sum it
    with one ``np.bincount`` per basis row, one subdivision at a time. The
    dyadic families evaluate and sum the basis once, at the finest
    subdivision and the largest degree, an evaluation the stack keeps for
    ``piece_factors`` (``_legendre``). Each coarser subdivision follows
    from the next finer one by the two-scale matrices,
    ``h0 @ left + h1 @ right``, except its degree-0 sums, which are
    rebuilt from integer point counts: a degree-0 sum is ``sqrt(m)`` added
    once per point of weight 1 in the piece, in order, and each coarser
    subdivision reads it from a running sum of ``sqrt(m)`` at the counts,
    which is bitwise a per-subdivision ``np.bincount`` of the constant.
    The finest subdivision keeps its own sums, so a single subdivision
    takes any weights; several dyadic ones need 0/1 weights. The
    refinement carries the refined degree-0 sums, not the running ones:
    those drift from ``count * sqrt(m)`` by up to ``count * 2**-53``
    relative, which the higher degrees would inherit. The dyadic
    subdivisions are all summed before the first is yielded.

    Joined samples share each evaluation and each ``np.bincount``, whose
    piece indices count on past the pieces of the samples before, and
    every sample's sums are bitwise those it has alone: a bin sums its
    own points in order, and the refinement multiplies each sample's own
    ``(d, pieces)`` block.
    """
    groups = _by_pieces(models)
    if models[0].family.tag not in _DYADIC_TAGS:
        # one subdivision at a time: summing every subdivision first freed
        # each subdivision's temporaries with nothing above them, so glibc
        # trimmed the heap and faulted it back in, which slowed the poly(2)
        # quotient at n = 5e4
        for group in groups.values():
            richest = max(group, key=lambda model: model.dim)
            pieces = richest.pieces
            piece, rows = basis_rows(richest, points.x)
            piece = points.offset(piece, pieces)
            (sums,) = _refined(pieces, pieces, piece, rows, weights, len(points.sizes))
            yield group, sums
        return
    pieces = max(groups)
    piece, values = _legendre(points, pieces, max(model.degree for model in models), keep=True)
    refined = _refined(pieces, min(groups), piece, values.T, weights, len(points.sizes))
    levels = {sums[0].shape[-1]: sums for sums in refined}
    for pieces, group in groups.items():
        yield group, levels[pieces]


def _legendre(points, pieces: int, degree: int, keep: bool = False):
    """``piecewise_legendre`` at a stack's points, with piece indices ``offset`` per sample.

    With ``keep`` the evaluation is the one the stack keeps
    (``_SortedStack.kept``): the density scan and the regression scan of a
    dyadic collection, whose finest subdivision and largest degree are
    one, share it.
    """

    def evaluate():
        piece, values = piecewise_legendre(pieces, degree, points.x)
        return points.offset(piece, pieces), values

    return points.kept((pieces, degree), evaluate) if keep else evaluate()


def _refined(pieces: int, coarsest: int, piece, rows, weights, samples: int):
    """``piece_sums``' sums of a subdivision and of each coarser one down to ``coarsest``.

    ``piece`` holds the points' piece indices, ``offset`` over
    ``samples`` samples, and ``rows`` the subdivision's basis rows at
    them. Yields one list of sums per subdivision, halving the piece
    count at each step, so only a dyadic subdivision has more than one.
    """
    bins = samples * pieces
    # one np.bincount per basis row and weight row; a weight row of None
    # stands for ones and takes no product
    sums = level_sums = [
        np.ascontiguousarray(
            np.array([np.bincount(piece, row if w is None else row * w, bins) for row in rows])
            .reshape(len(rows), samples, pieces)
            .swapaxes(0, 1)
        )
        for w in weights
    ]
    if pieces > coarsest:
        h0, h1 = two_scale(len(rows) - 1)
        # the points are sorted, so each piece is one run of their piece indices
        counts = np.diff(np.searchsorted(piece, np.arange(bins + 1))).reshape(samples, pieces)
        # sums of 0/1 weights are exact integers; those of ones are the counts
        weight_counts = [
            counts if w is None else np.bincount(piece, w, bins).astype(int).reshape(samples, pieces)
            for w in weights
        ]
    while True:
        yield level_sums
        if pieces == coarsest:
            return
        pieces //= 2
        sums = [h0 @ s[..., 0::2] + h1 @ s[..., 1::2] for s in sums]
        counts = counts[:, 0::2] + counts[:, 1::2]
        weight_counts = [c[:, 0::2] + c[:, 1::2] for c in weight_counts]
        running = np.append(0.0, np.full(counts.max(), np.sqrt(float(pieces))).cumsum())
        level_sums = [s.copy() for s in sums]
        for level, c in zip(level_sums, weight_counts):
            level[:, 0] = running[c]


# the factors are taken over at most about this many padded rows at a time,
# which keeps each factorization's copies in cache (at n = 5e4 the finest
# dyadic level took half the time of chunks of 2**16)
_QR_ROWS = 2**13


def piece_factors(models, points):
    """Triangular factors of every piece's basis rows and statuses, per subdivision.

    ``points`` is a ``data._SortedStack``, as ``piece_sums`` takes it: its
    ``x`` and ``delta`` hold the points in [0, 1] and their statuses,
    joined sample after sample in time order, and its ``sizes`` each
    sample's count of them. Yields ``(group, r)`` per subdivision
    of ``models`` (the models of one piece count). ``r`` has shape
    ``(samples * pieces, d + 1, d + 1)``, sample by sample: ``r[j]`` is
    the upper-triangular factor R of a QR factorization of piece j's
    block ``[X_j | delta_j]``, where column ``a`` of X_j holds the
    ``a``-th basis function of the piece (the degree-``a`` one for
    piecewise families) at the piece's points. So ``r[j].T @ r[j]`` is
    the block's Gram matrix, a model of the group reads the leading
    ``dim // pieces`` columns, and the last column holds ``Q' delta_j``,
    whose entries from row k on have as sum of squares the residual sum
    of squares of the statuses on the first k functions while those have
    full rank. An empty piece has a zero factor. Signs are those LAPACK
    returns.

    The trigonometric family has one piece, factored by one tall QR taken
    ``_QR_ROWS`` points at a time, each chunk stacked under the factor so
    far, sample by sample. The regular piecewise family evaluates and
    factors each subdivision on its own. The dyadic families evaluate the
    basis once, at the finest subdivision and the largest degree (the
    evaluation the stack keeps, ``_legendre``), and every coarser
    subdivision keeps that degree: a coarse piece's block is
    ``[X_left h0.T | delta_left]`` over ``[X_right h1.T | delta_right]``
    (``two_scale``), so its factor is, in exact arithmetic, that of the
    stacked ``[R_left @ g0; R_right @ g1]``, ``g = diag(h.T, 1)`` (the
    stacked-R reduction of Demmel, Grigori, Hoemmen and Langou, 2012).
    They are yielded finest first. Every factorization and product takes
    each sample's matrices in the shapes they have alone, so every
    sample's factors are bitwise those of its own call.
    """
    groups = _by_pieces(models)
    if models[0].family.tag == TRIG:
        harmonics = max(model.harmonics for model in models)
        x, delta, factors = points.x, points.delta, []
        for end, size in zip(np.cumsum(points.sizes).tolist(), points.sizes):
            spans = (slice(at, min(at + _QR_ROWS, end)) for at in range(end - size, end, _QR_ROWS))
            chunks = (np.vstack([trig_rows(harmonics, x[c]), delta[c]]) for c in spans)
            factors.append(_tall_factor(2 * harmonics + 2, chunks))
        yield models, np.array(factors)
        return
    if models[0].family.tag == POLY:
        # a regular piecewise subdivision holds one model, of the family degree
        for pieces, group in groups.items():
            yield group, _padded_factors(pieces, group[0].degree, points)
        return
    degree = max(model.degree for model in models)
    pieces = max(groups)
    r = _padded_factors(pieces, degree, points, keep=True)
    g0, g1 = np.eye(degree + 2), np.eye(degree + 2)
    g0[:-1, :-1], g1[:-1, :-1] = (h.T for h in two_scale(degree))
    while True:
        if pieces in groups:
            yield groups[pieces], r
        if pieces == min(groups):
            return
        pieces //= 2
        r = _r_factor(np.concatenate([r[0::2] @ g0, r[1::2] @ g1], axis=1))


def _padded_factors(pieces: int, degree: int, points, keep: bool = False) -> np.ndarray:
    """``piece_factors`` of one piecewise Legendre subdivision, from a stack's points.

    Only occupied pieces are factored; an empty piece's factor is zero.
    They are taken in runs of consecutive pieces of one sample, each
    piece's rows ``[values | delta]`` of ``piecewise_legendre`` zero-padded
    to the largest count of its run, at least ``degree + 2``. A run grows
    while its padded rows stay within ``_QR_ROWS`` and within twice its
    points plus ``degree + 2`` per piece, so the rows factored stay within
    that bound however the times are tied. Zero rows leave R unchanged up
    to rounding, so the runs, which set the padding, are each sample's
    own. Each run is one factorization, of its pieces' padded rows
    scattered into one block. A piece of more than ``_QR_ROWS`` points
    forms a run of its own and is factored by ``_tall_factor``,
    ``_QR_ROWS`` of its rows at a time. ``keep`` reads the basis values
    the stack keeps (``_legendre``).
    """
    piece, values = _legendre(points, pieces, degree, keep)
    owners = len(points.sizes) * pieces
    columns = [*values.T, points.delta]
    d = len(columns)
    # the points are sorted, so each piece is one run of their piece indices
    starts = np.searchsorted(piece, np.arange(owners + 1))
    counts = np.diff(starts)
    occupied = np.flatnonzero(counts)
    r = np.zeros((owners, d, d))
    cuts, rows = _runs(counts[occupied].tolist(), (occupied // pieces).tolist(), d)
    index, place = np.arange(piece.size), np.empty(owners, dtype=int)
    for j, height in enumerate(rows):
        # point i's entry of column a sits at (k, a, i - start of its piece)
        # of a (members, d, height) block, its piece the k-th member, so one
        # 1-D scatter fills each column and each transposed block is
        # column-major, as LAPACK reads it
        members = occupied[cuts[j] : cuts[j + 1]]
        place[members] = np.arange(members.size) * (d * height) - starts[members]
        span = slice(starts[members[0]], starts[members[-1] + 1])
        at = place[piece[span]] + index[span]
        block = np.zeros(members.size * d * height)
        for a, column in enumerate(columns):
            block[at + a * height] = column[span]
        block = block.reshape(members.size, d, height)
        if height > _QR_ROWS:
            chunks = (block[0, :, top : top + _QR_ROWS] for top in range(0, height, _QR_ROWS))
            r[members] = _tall_factor(d, chunks)
        else:
            r[members] = _r_factor(block.transpose(0, 2, 1))
    return r


def _runs(counts: list, owners: list, d: int) -> tuple[list, list]:
    """The runs of ``_padded_factors``: ``(cuts, rows)``.

    ``counts`` and ``owners`` give each occupied piece's point count and
    sample. Run j holds the occupied pieces ``cuts[j]..cuts[j + 1] - 1``
    and pads them to ``rows[j]`` rows. A run never spans two samples, so
    each sample's runs are those it has alone.
    """
    if not counts:
        return [0], []
    cuts, rows = [0], []
    for i, count in enumerate(counts):
        if i == cuts[-1] or owners[i] != owners[i - 1]:
            if i != cuts[-1]:
                cuts.append(i)
                rows.append(max(high, d))
            total = high = 0
        before = high
        total, high, size = total + count, max(high, count), i + 1 - cuts[-1]
        if size > 1 and size * max(high, d) > min(2 * total + size * d, _QR_ROWS):
            cuts.append(i)
            rows.append(max(before, d))
            total = high = count
    return [*cuts, len(counts)], [*rows, max(high, d)]


def _tall_factor(columns: int, chunks) -> np.ndarray:
    """The R of a QR of the rows of ``chunks``, ``(columns, rows)`` arrays.

    Each chunk is factored stacked under the factor of those before it.
    """
    r = np.zeros((columns, columns))
    for rows in chunks:
        r = _r_factor(np.concatenate([r, rows.T]))
    return r


def _r_factor(blocks: np.ndarray) -> np.ndarray:
    """The R of a Householder QR of each ``(rows, columns)`` block, ``rows >= columns``."""
    return np.linalg.qr(blocks, mode="r")


# ---------------------------------------------------------------------------
# Collections


def _cap_dimension(family: BasisFamily, n: int, cap) -> int:
    if cap == CAP_REGRESSION and family.tag == TRIG:
        bound = math.sqrt(n) / math.log(n)
    elif cap in (CAP_DENSITY, CAP_REGRESSION):
        bound = n / math.log(n) ** 2
    else:
        raise ValueError(f"unknown cap rule {cap!r}")
    return min(math.floor(bound), n)


def build_collection(family: BasisFamily, n: int, cap=CAP_DENSITY) -> list[BasisModel]:
    """All models of ``family`` whose dimension fits the cap, for sample size n.

    ``cap`` is ``CAP_DENSITY`` or ``CAP_REGRESSION``. The capped
    dimension is at most n, which keeps poly models within
    ``n // (degree+1)`` pieces; both rules also keep trig models within
    ``n//2 - 1`` harmonics. Models are returned in selection order
    (dimension ascending, ties by coarser subdivision first).

    Raises ValueError unless n is an integer of at least 2 (a bool is not
    one), and EmptyCollectionError when nothing fits. The models of each
    ``(family, n, cap)`` are built once and kept; every call returns a
    new list of them.
    """
    return list(_collection(family, n, cap))


# typed, so that a float n never reads the models kept for its integer
@functools.lru_cache(maxsize=256, typed=True)
def _collection(family: BasisFamily, n: int, cap) -> tuple[BasisModel, ...]:
    if not _integral(n) or n < 2:
        raise ValueError("need a sample size of at least 2")
    dim_cap = _cap_dimension(family, n, cap)

    if family.tag == TRIG:  # dim 2m + 1
        models = [BasisModel(family, harmonics=m) for m in range(1, (dim_cap + 1) // 2)]
    elif family.tag == POLY:  # dim m (r + 1)
        r = family.max_degree
        pieces = range(1, dim_cap // (r + 1) + 1)
        models = [BasisModel(family, pieces=m, degree=r) for m in pieces]
    else:  # DYADIC and HAAR: every (level p, degree r) pair with 2**p (r + 1) <= cap
        models = [
            BasisModel(family, pieces=2**p, degree=r)
            for p in range(dim_cap.bit_length())
            for r in range(min(family.max_degree + 1, dim_cap >> p))
        ]

    if not models:
        raise EmptyCollectionError(
            f"collection empty for n={n} (family={family.tag}, cap={cap!r})"
        )
    models.sort(key=model_sort_key)
    return tuple(models)
