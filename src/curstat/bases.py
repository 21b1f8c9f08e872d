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
        if not isinstance(self.max_degree, (int, np.integer)):
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
        return self.pieces.bit_length() - 1

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
    if not inside.any():
        return out
    piece, rows = basis_rows(model, x[inside])
    # column a * pieces + j of a row is entry (a, j) of its (dim // pieces, pieces) view
    out.reshape(x.size, -1, model.pieces)[inside, :, piece] = rows.T
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


def row_sums(piece, columns, weights, pieces: int) -> list[np.ndarray]:
    """Per-piece sums of each basis row times each weight row, by ``np.bincount``.

    Returns one ``(len(columns), pieces)`` array per row of ``weights``.
    A weight row of None stands for ones and takes no product.
    """
    return [
        np.array([np.bincount(piece, row if w is None else row * w, pieces) for row in columns])
        for w in weights
    ]


def _piece_gram(columns, counts) -> np.ndarray:
    """Per-piece sums of products of two rows of ``columns``, over sorted points.

    Piece j is the run of ``counts[j]`` points after the runs before it.
    Returns the ``(pieces, rows, rows)`` blocks ``run @ run.T``, one
    matrix product per occupied piece; empty pieces get zero blocks.
    """
    gram = np.zeros((counts.size, columns.shape[0], columns.shape[0]))
    stops = np.cumsum(counts)
    for j in np.flatnonzero(counts):
        run = columns[:, stops[j] - counts[j] : stops[j]]
        gram[j] = run @ run.T
    return gram


def piece_sums(models, x: np.ndarray, weights, gram: bool = False):
    """Per-piece sums of a collection at each of its subdivisions.

    ``x`` holds the points in [0, 1] and ``weights`` rows of weights (None
    for a row of ones), in the one time order of the ``data`` module, as
    ``ObservationSample.sorted_inside`` returns them. Yields
    ``(group, counts, sums, products, rows)`` per subdivision of
    ``models`` (the models of one piece count), in the order the
    subdivisions first appear in ``models``: the number of points per
    piece; per weight row, a ``(d, pieces)`` array whose row ``a`` holds
    the per-piece sums of the ``a``-th function of a piece (the
    degree-``a`` one for piecewise families) times the weights; with
    ``gram``, the ``(pieces, d, d)`` per-piece sums of products of two
    basis functions (else None); and the ``d`` rows of ``basis_rows`` at
    ``x`` where the subdivision was evaluated (else None). A model of the
    group reads the leading ``dim // pieces`` rows. The degree-0 product
    of every subdivision is the piece's point count times m, exactly.

    The regular piecewise and trigonometric families, whose subdivisions
    do not nest, evaluate each subdivision's richest model once, sum it
    with ``row_sums`` and ``_piece_gram`` and hand its rows back, one
    subdivision at a time. The dyadic families evaluate the basis once,
    at the finest subdivision and the largest degree, where ``row_sums``
    and ``_piece_gram`` sum it. Each coarser subdivision follows from the
    next finer one by the two-scale matrices: ``h0 @ left + h1 @ right``
    for the sums and ``h0 @ left @ h0.T + h1 @ right @ h1.T`` for the
    products. Degree-0 entries are rebuilt from integer point counts
    instead. A degree-0 sum is ``sqrt(m)`` added once per point of
    weight 1 in the piece, in order; each coarser subdivision reads it
    from a running sum of ``sqrt(m)`` at the counts, which is bitwise a
    per-subdivision ``np.bincount`` of the constant. The finest
    subdivision keeps its own sums, so a single subdivision takes any
    weights; several dyadic ones need 0/1 weights. The refinement
    carries the refined degree-0 sums, not the running ones: those drift
    from ``count * sqrt(m)`` by up to ``count * 2**-53`` relative, which
    the higher degrees would inherit. The dyadic subdivisions are all
    summed before the first is yielded, and yield no rows.
    """
    groups = _by_pieces(models)
    if models[0].family.tag not in _DYADIC_TAGS:
        # one subdivision at a time, rows handed back: the regression's
        # residual pass reuses them (pinned by test_regression.py's
        # test_one_basis_evaluation_per_subdivision); summing every
        # subdivision first, without rows, evaluated trig twice per fit and
        # freed each subdivision's temporaries with nothing above them, so
        # glibc trimmed the heap and faulted it back in, which slowed the
        # poly(2) quotient at n = 5e4
        for group in groups.values():
            richest = max(group, key=lambda model: model.dim)
            ((counts, sums, products, rows),) = _refined(richest, richest.pieces, x, weights, gram)
            yield group, counts, sums, products, rows
        return
    finest = BasisModel(models[0].family, max(groups), max(model.degree for model in models))
    levels = {
        counts.size: (counts, sums, products)
        for counts, sums, products, _ in _refined(finest, min(groups), x, weights, gram)
    }
    for pieces, group in groups.items():
        yield group, *levels[pieces], None


def _refined(model: BasisModel, coarsest: int, x: np.ndarray, weights, gram: bool):
    """``piece_sums`` of ``model``'s subdivision and of each coarser one down to ``coarsest``.

    Yields ``(counts, sums, products, rows)``, halving the piece count at
    each step, so only a dyadic model has more than one subdivision. The
    rows of ``basis_rows`` come with the first subdivision only.
    """
    pieces = model.pieces
    piece, rows = basis_rows(model, x)
    # the points are sorted, so each piece is one run of their piece indices
    counts = np.diff(np.searchsorted(piece, np.arange(pieces + 1)))
    sums = level_sums = row_sums(piece, rows, weights, pieces)
    products = _piece_gram(rows, counts) if gram else None
    if pieces > coarsest:
        h0, h1 = two_scale(model.degree)
        # sums of 0/1 weights are exact integers; those of ones are the counts
        weight_counts = [
            counts if w is None else np.bincount(piece, w, pieces).astype(int) for w in weights
        ]
    while True:
        if gram:
            products[:, 0, 0] = counts * float(pieces)
        yield counts, level_sums, products, rows
        if pieces == coarsest:
            return
        rows = None
        pieces //= 2
        sums = [h0 @ s[:, 0::2] + h1 @ s[:, 1::2] for s in sums]
        if gram:
            products = h0 @ products[0::2] @ h0.T + h1 @ products[1::2] @ h1.T
        counts = counts[0::2] + counts[1::2]
        weight_counts = [c[0::2] + c[1::2] for c in weight_counts]
        terms = np.full(counts.max() + 1, np.sqrt(float(pieces)))
        terms[0] = 0.0
        running = terms.cumsum()
        level_sums = [s.copy() for s in sums]
        for level, c in zip(level_sums, weight_counts):
            level[0] = running[c]


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

    Raises EmptyCollectionError when nothing fits.
    """
    if n < 2:
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
    return models
