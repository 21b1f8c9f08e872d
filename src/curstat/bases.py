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
still counting toward the sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

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
    xi = x[inside]

    if model.family.tag == TRIG:
        args = xi[:, None] * (2.0 * np.pi * np.arange(1, model.harmonics + 1))[None, :]
        out[inside, 0] = 1.0
        out[inside, 1::2] = math.sqrt(2.0) * np.cos(args)
        out[inside, 2::2] = math.sqrt(2.0) * np.sin(args)
        return out

    piece, values = piecewise_legendre(model.pieces, model.degree, xi)
    cols = np.arange(model.degree + 1)[None, :] * model.pieces + piece[:, None]
    out[np.nonzero(inside)[0][:, None], cols] = values
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


def trig_rows(harmonics: int, x: np.ndarray) -> np.ndarray:
    """Trigonometric basis at points ``x`` in [0, 1], one row per function.

    Returns the ``(2 * harmonics + 1, len(x))`` transpose of
    ``design_matrix`` for points inside [0, 1], built one harmonic at a
    time so no temporary holds more than one value per point.
    """
    rows = np.empty((2 * harmonics + 1, x.size))
    rows[0] = 1.0
    for k in range(1, harmonics + 1):
        arg = x * (2.0 * np.pi * k)
        rows[2 * k - 1] = math.sqrt(2.0) * np.cos(arg)
        rows[2 * k] = math.sqrt(2.0) * np.sin(arg)
    return rows


def subdivisions(models, u: np.ndarray, delta: np.ndarray):
    """Group ``models`` by piece count and evaluate each group's richest model.

    Sorts the points ``u`` in [0, 1] and their ``delta`` once (stable), so
    each occupied piece is one contiguous run, and yields ``(group, piece,
    columns, delta)``: the piece of each sorted point, one row per basis
    function of the richest model, and the sorted statuses. A model of the
    group uses the first ``dim // pieces`` rows.
    """
    inside = (u >= 0.0) & (u <= 1.0)
    order = np.argsort(u[inside], kind="stable")
    x = u[inside][order]
    delta = delta[inside][order]
    groups: dict[int, list[BasisModel]] = {}
    for model in models:
        groups.setdefault(model.pieces, []).append(model)
    for pieces, group in groups.items():
        richest = max(group, key=lambda model: model.dim)
        if richest.family.tag == TRIG:
            yield group, np.zeros(x.size, dtype=int), trig_rows(richest.harmonics, x), delta
        else:
            piece, values = piecewise_legendre(pieces, richest.degree, x)
            yield group, piece, values.T, delta


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


# ---------------------------------------------------------------------------
# Quadrature helpers (used for certification tests and population
# projections; piecewise-polynomial integrals are exact because panels
# align with the breakpoints).


@lru_cache(maxsize=None)
def _gauss_nodes(order: int):
    return leggauss(order)


def quadrature_rule(breakpoints, min_nodes: int = 2048):
    """Composite Gauss-Legendre rule with panels between ``breakpoints``."""
    edges = np.asarray(breakpoints, dtype=float)
    panels = edges.size - 1
    order = max(2, -(-min_nodes // panels))
    base_x, base_w = _gauss_nodes(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


def model_breakpoints(model: BasisModel) -> np.ndarray:
    if model.family.tag == TRIG:
        return np.array([0.0, 1.0])
    return np.linspace(0.0, 1.0, model.pieces + 1)


def gram_matrix(model: BasisModel, min_nodes: int = 2048) -> np.ndarray:
    """Gram matrix of the basis under the Lebesgue inner product on [0, 1]."""
    nodes, weights = quadrature_rule(model_breakpoints(model), min_nodes)
    design = design_matrix(model, nodes)
    return design.T @ (weights[:, None] * design)


def project_function(model: BasisModel, fn, min_nodes: int = 2048) -> np.ndarray:
    """Coefficients of the L2 projection of ``fn`` onto the model."""
    nodes, weights = quadrature_rule(model_breakpoints(model), min_nodes)
    design = design_matrix(model, nodes)
    values = np.asarray(fn(nodes), dtype=float)
    return design.T @ (weights * values)
