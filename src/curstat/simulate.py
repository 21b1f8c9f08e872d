"""Monte Carlo benchmark harness for the estimators.

Five built-in data models generate current-status samples: the
examination time U is drawn, then the status indicator is Bernoulli
with success probability F(U), the true distribution function of the
lifetime:

    1. lifetime uniform on [0, 1], U uniform on [0, 1]
    2. lifetime chi-square(1), U uniform on [0, 1]
    3. lifetime with F(u) = u^2 on [0, 1], U uniform on [0, 1]
    4. lifetime exponential with mean 0.5, U standard exponential
    5. lifetime Beta(4, 8), U Beta(4, 6)

Per replication the error metric is the truncated mean squared error
``((b - a) / K) * sum over sample points in [a, b] of (F - Fhat)^2``,
with ``a = 0`` and ``b = 1`` except for model 5 where ``b = 0.5`` (the
right tail of the examination range gets too sparse to evaluate).

Replication RNG streams are derived from ``(seed, model id, n,
replication index)``, so reports are bitwise reproducible regardless of
how replications are scheduled across workers.

``monte_carlo`` fits a ``(model, n)`` cell in chunks of replications,
one chunk per cell when serial and at least one per worker in a pool,
each of at most ``_CHUNK_POINTS`` points. A chunk draws its samples, then
fits each method once over all of them: the quotient's density scan
and the regression's scan run once over the chunk's points joined
sample after sample (one basis evaluation, one ``np.bincount`` per row
with each sample's pieces after the last one's, and every product,
factorization and rank check stacked in the shapes one sample has
alone), while the contrasts, pilots, penalties, picks and truncated MSE
are each sample's own. So every replication's estimate is byte for
byte the one ``estimate_sample`` gives its sample alone, and the report
is the same for every chunking and every ``n_jobs``. When a chunk's
stacked fit raises, each of its samples is refitted alone, so a failure
stays a row of its own replication.

``scipy.special`` is imported only by ``true_cdf`` for models 2 (``erf``)
and 5 (``betainc``); no estimator needs it. ``monte_carlo`` evaluates
``true_cdf`` once per model before it starts a process pool, so the
workers inherit the loaded module instead of each importing it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bases import BasisFamily, dyadic_family
from .data import ObservationSample, _integral
from .estimates import CdfEstimate
from .isotonic import birge_histogram, npmle_pava
from .quotient import _fit_quotient_cdfs, fit_quotient_cdf
from .regression import _fit_cdf_regressions, fit_cdf_regression

MODEL_IDS = (1, 2, 3, 4, 5)
METHODS = ("quotient", "regression", "npmle", "birge")


@dataclass(frozen=True)
class SimModel:
    """One of the five benchmark data models.

    Model 4's exponential lifetime has rate 2.0: the documented 0.5 is
    its mean, which matches the quantile P(X <= 1) ~= 0.86 used for MSE
    truncation.
    """

    id: int
    a = 0.0  # the MSE window [a, b] starts at 0 for every model

    def __post_init__(self):
        if not _integral(self.id) or self.id not in MODEL_IDS:
            raise ValueError(f"unknown model id {self.id}")

    @property
    def b(self) -> float:
        return 0.5 if self.id == 5 else 1.0


def true_cdf(model: SimModel, u):
    """True lifetime distribution function of the model, elementwise."""
    x = np.asarray(u, dtype=float)
    if model.id in (2, 5):
        from scipy import special
    if model.id == 1:
        out = np.clip(x, 0.0, 1.0)
    elif model.id == 2:
        out = special.erf(np.sqrt(np.clip(x, 0.0, None) / 2.0))
    elif model.id == 3:
        out = np.clip(x, 0.0, 1.0) ** 2
    elif model.id == 4:
        out = 1.0 - np.exp(-2.0 * np.clip(x, 0.0, None))
    else:
        out = special.betainc(4.0, 8.0, np.clip(x, 0.0, 1.0))
    return float(out) if np.ndim(u) == 0 else out


def generate(model: SimModel, n: int, rng) -> ObservationSample:
    """Draw a current-status sample of size n; deterministic given the rng."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(rng)
    if model.id in (1, 2, 3):
        u = rng.random(n)
    elif model.id == 4:
        u = rng.standard_exponential(n)
    else:
        u = rng.beta(4.0, 6.0, n)
    delta = (rng.random(n) < true_cdf(model, u)).astype(float)
    return ObservationSample(u, delta)


def replication_rng(seed: int, model_id: int, n: int, rep: int) -> np.random.Generator:
    """Independent, reproducible stream for one replication."""
    return np.random.default_rng(np.random.SeedSequence((seed, model_id, n, rep)))


def truncated_mse(estimate, model: SimModel, sample: ObservationSample) -> float:
    """Truncated MSE over the sample points falling in [a, b]."""
    points = sample.u[(sample.u >= model.a) & (sample.u <= model.b)]
    if points.size == 0:
        raise ValueError(f"no evaluation points in [{model.a}, {model.b}]")
    errors = true_cdf(model, points) - np.asarray(estimate(points), dtype=float)
    return float((model.b - model.a) / points.size * np.sum(errors**2))


def default_birge_bins(n: int) -> int:
    """Benchmark bin counts: 5 cells up to n = 200, 10 cells beyond."""
    return 5 if n <= 200 else 10


def default_reps(n: int) -> int:
    """Benchmark replication counts: 500 up to n = 200, 200 beyond."""
    return 500 if n <= 200 else 200


@dataclass(frozen=True)
class BenchConfig:
    """Estimator settings shared by every cell of a benchmark run."""

    kappa: float = 4.0
    kappa0: float = 4.0
    clamp_regression: bool = False
    birge_bins: int | None = None  # None -> default_birge_bins(n)
    family: BasisFamily = dyadic_family()

    def __post_init__(self):
        for name in ("kappa", "kappa0"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.birge_bins is not None:
            if not _integral(self.birge_bins):
                raise ValueError("birge_bins must be an integer")
            if self.birge_bins < 1:
                raise ValueError("need at least one bin")
        if not isinstance(self.family, BasisFamily):
            raise ValueError("family must be a BasisFamily")


def estimate_sample(
    method: str, sample: ObservationSample, config: BenchConfig | None = None
) -> CdfEstimate:
    """Run one named estimation method on a sample."""
    if config is None:
        config = BenchConfig()
    if method == "quotient":
        return fit_quotient_cdf(sample, config.family, config.kappa)
    if method == "regression":
        return fit_cdf_regression(sample, config.family, config.kappa0, config.clamp_regression)
    if method == "npmle":
        return CdfEstimate("npmle", npmle_pava(sample), {"knots": sample.n})
    if method == "birge":
        bins = config.birge_bins or default_birge_bins(sample.n)
        return CdfEstimate("birge", birge_histogram(sample, bins), {"bins": bins})
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class MseCell:
    """Per (model, n, method) summary over the replications."""

    model_id: int
    n: int
    method: str
    values: tuple  # one truncated MSE per replication, nan where failed
    failures: tuple = ()

    @property
    def reps(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        ok = [v for v in self.values if np.isfinite(v)]
        return float(np.mean(ok)) if ok else float("nan")

    @property
    def std(self) -> float:
        ok = [v for v in self.values if np.isfinite(v)]
        return float(np.std(ok, ddof=1)) if len(ok) > 1 else float("nan")


@dataclass(frozen=True)
class MseReport:
    """Ordered benchmark results plus the seed that produced them."""

    cells: tuple
    seed: int

    def cell(self, model_id: int, n: int, method: str) -> MseCell:
        for c in self.cells:
            if (c.model_id, c.n, c.method) == (model_id, n, method):
                return c
        raise KeyError((model_id, n, method))

    def to_delimited(self) -> str:
        lines = ["model,n,method,J,mean_mse,std_mse,seed"]
        for c in self.cells:
            lines.append(
                f"{c.model_id},{c.n},{c.method},{c.reps},"
                f"{c.mean:.17g},{c.std:.17g},{self.seed}"
            )
        for c in self.cells:
            for msg in c.failures:
                lines.append(
                    f"# failure model={c.model_id} n={c.n} method={c.method} {msg}"
                )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        """Human-readable grid: MSE x 1e-2, one block per method."""
        means = {(c.method, c.model_id, c.n): f"{c.mean * 100.0:10.2f}" for c in self.cells}
        n_values = sorted({c.n for c in self.cells})
        model_ids = sorted({c.model_id for c in self.cells})
        header = "model".ljust(8) + "".join(f"n={n}".rjust(10) for n in n_values)
        lines = [f"mean truncated MSE (x 1e-2), seed {self.seed}"]
        for method in dict.fromkeys(c.method for c in self.cells):
            lines += ["", f"[{method}]", header]
            for mid in model_ids:
                row = (means.get((method, mid, n), " " * 10) for n in n_values)
                lines.append(str(mid).ljust(8) + "".join(row))
        return "\n".join(lines) + "\n"


# a task stacks at most about this many points, which bounds a worker's
# memory however many replications a cell has
_CHUNK_POINTS = 2**13


def _estimate_cell(method: str, samples, config: BenchConfig) -> list:
    """Estimates of one method for samples of one size, in sample order.

    The quotient and the regression fit every sample in one stacked scan
    (``quotient._fit_quotient_cdfs``, ``regression._fit_cdf_regressions``);
    the step estimators fit each sample by ``estimate_sample``. Every
    estimate is bitwise the one ``estimate_sample`` gives its sample.
    """
    if method == "quotient":
        return _fit_quotient_cdfs(samples, config.family, config.kappa)
    if method == "regression":
        return _fit_cdf_regressions(
            samples, config.family, config.kappa0, config.clamp_regression
        )
    return [estimate_sample(method, sample, config) for sample in samples]


def _scored(method, model, rep, sample, estimate, config):
    """The ``(mse, error)`` pair of one replication; None refits its sample alone."""
    try:
        if estimate is None:
            (estimate,) = _estimate_cell(method, [sample], config)
        return truncated_mse(estimate, model, sample), None
    except Exception as exc:  # recorded, never silently dropped
        return float("nan"), f"rep {rep}: {exc}"


def _chunk_task(methods, seed, config, task):
    """One row per replication of a chunk: an ``(mse, error)`` pair per method.

    ``task`` is ``(model, n, reps)``, ``reps`` a range of one cell's
    replications. Each method fits the chunk's samples by one
    ``_estimate_cell`` call; when that raises, each sample is refitted
    alone, so every replication keeps its own pair and message.
    """
    model, n, reps = task
    samples = [generate(model, n, replication_rng(seed, model.id, n, rep)) for rep in reps]
    columns = []
    for method in methods:
        try:
            estimates = _estimate_cell(method, samples, config)
        except Exception:  # refitted one sample at a time below
            estimates = [None] * len(samples)
        columns.append(
            [_scored(method, model, *rep, config) for rep in zip(reps, samples, estimates)]
        )
    return list(zip(*columns))


def _chunks(reps: int, n: int, n_jobs: int) -> list:
    """Split one cell's replications into ranges of nearly equal length.

    A range stacks at most ``_CHUNK_POINTS // n`` samples (at least one).
    In a pool every cell is split in at least ``n_jobs`` ranges, so the
    workers share each cell.
    """
    most = max(1, _CHUNK_POINTS // n)
    if n_jobs > 1:
        most = min(most, -(-reps // n_jobs))
    count = -(-reps // most)
    edges = [reps * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def monte_carlo(
    models,
    methods=METHODS,
    n_list=(60, 200, 500, 1000),
    reps=None,
    seed: int = 0,
    n_jobs: int = 1,
    config: BenchConfig | None = None,
) -> MseReport:
    """Run the full benchmark grid and summarise it as an MseReport.

    ``reps`` is a fixed replication count, or None for the benchmark
    schedule (``default_reps``). Each replication draws one sample that
    all methods share. ``models`` and ``methods`` must be nonempty, with
    every method in ``METHODS``, and no model, method or n may repeat.
    Every model id, n, ``reps``, ``n_jobs`` and ``seed`` must be an
    integer (a bool is not one), every model id one of ``MODEL_IDS``,
    every n and ``n_jobs`` at least 1 and ``seed`` at least 0; these are
    checked before any sample is drawn. Output is a pure function of the
    arguments; ``n_jobs > 1`` distributes the work over processes without
    changing the result. A pool starts all of its workers at once, so an
    ``n_jobs`` above ``os.cpu_count()`` is lowered to it, for the chunking
    and the pool alike.

    Each ``(model, n)`` cell is fitted in chunks of replications
    (``_chunks``): one chunk per cell when serial, unless the cell stacks
    more than ``_CHUNK_POINTS`` points, and at least ``n_jobs`` chunks in
    a pool. A chunk fits each method once over all of its samples
    (``_chunk_task``). The pool and the serial ``map`` both return rows in
    task order, so each cell is the next reps rows.
    """
    models = [m if isinstance(m, SimModel) else SimModel(m) for m in models]
    methods = tuple(methods)
    if not models:
        raise ValueError("need at least one model")
    if not methods:
        raise ValueError("need at least one method")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    n_list = tuple(n_list)
    if not all(_integral(n) and n >= 1 for n in n_list):
        raise ValueError("every n must be an integer of at least 1")
    if reps is not None and not _integral(reps):
        raise ValueError("reps must be an integer")
    if not _integral(n_jobs) or n_jobs < 1:
        raise ValueError("n_jobs must be an integer of at least 1")
    # a pool starts all its workers at once, so never more than the CPUs
    n_jobs = min(n_jobs, os.cpu_count() or 1)
    if not _integral(seed) or seed < 0:
        raise ValueError("seed must be an integer of at least 0")
    n_list = tuple(int(n) for n in n_list)
    for name, items in (("model", tuple(m.id for m in models)), ("method", methods), ("n", n_list)):
        if len(set(items)) < len(items):
            raise ValueError(f"repeated {name} in {items}")
    cell_reps = {n: int(reps) if reps is not None else default_reps(n) for n in n_list}
    if any(count < 1 for count in cell_reps.values()):
        raise ValueError("need at least one replication")
    if config is None:
        config = BenchConfig()

    tasks = [
        (model, n, chunk)
        for model in models
        for n in n_list
        for chunk in _chunks(cell_reps[n], n, n_jobs)
    ]
    run = partial(_chunk_task, methods, seed, config)
    if n_jobs > 1:
        for model in models:  # import what true_cdf needs before the workers fork
            true_cdf(model, 0.5)
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            rows = [row for chunk in pool.map(run, tasks) for row in chunk]
    else:
        rows = (row for chunk in map(run, tasks) for row in chunk)

    rows = iter(rows)
    cells = []
    for model in models:
        for n in n_list:
            block = [next(rows) for _ in range(cell_reps[n])]
            for method, pairs in zip(methods, zip(*block)):
                values, errors = zip(*pairs)
                failures = tuple(err for err in errors if err is not None)
                cells.append(MseCell(model.id, n, method, values, failures))
    return MseReport(tuple(cells), seed)
