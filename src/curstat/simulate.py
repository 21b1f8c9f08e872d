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
each of at most ``_CHUNK_POINTS`` (2**14) points. A chunk pays each
cost that its methods share once. It draws each sample together with
``true_cdf`` at its times, which drew the statuses and gives the truth
on the sample's MSE window [a, b]. It sorts each sample once, into one
``data._SortedStack`` of the points in [0, 1] joined sample after
sample, which every method reads. Then it fits and scores each method
once over all of the samples. The quotient's density scan and the
regression's scan run once over the stack (one ``np.bincount`` per row
with each sample's pieces after the last one's, and every product,
factorization and rank check stacked in the shapes one sample has
alone), and for the dyadic families they share the stack's one
evaluation of the finest basis, while the contrasts, pilots, penalties
and picks are each sample's own. The NPMLE pools the chunk's joined
statuses in one set of rounds that never cross a sample
(``isotonic._npmle_pavas``), and the Birgé histogram bins every sample
by one pair of ``np.bincount`` calls (``isotonic._birge_histograms``).
The scoring evaluates every projection-based estimate, the regression's
fits, raw or clamped, and both halves of each quotient, by the one rule
that also evaluates a direct call, ``estimates._evaluate_each``: one
design matrix per distinct selected model over the joined windows, each
sample multiplying its own row slice by its own coefficients. It sums
each sample's squared errors by its own ``np.sum``. So every
replication's estimate and MSE are byte for byte those that
``estimate_sample`` and ``truncated_mse`` give its sample alone, and
the report is the same for every chunking and every ``n_jobs``. When a
chunk's stacked fit or scoring raises, the chunk is run again as chunks
of one, each sample fitted and scored alone by the same path, so a
failure stays a row of its own replication.

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
from .data import ObservationSample, _integral, _SortedStack
from .estimates import CdfEstimate, _evaluate_each
from .isotonic import _birge_histograms, _npmle_pavas, birge_histogram, npmle_pava
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
    return _draw(model, n, rng)[0]


def _draw(model: SimModel, n: int, rng):
    """``generate``'s sample and ``true_cdf`` at each of its times, which drew its statuses."""
    if not _integral(n) or n < 1:
        raise ValueError("n must be an integer of at least 1")
    rng = np.random.default_rng(rng)
    if model.id in (1, 2, 3):
        u = rng.random(n)
    elif model.id == 4:
        u = rng.standard_exponential(n)
    else:
        u = rng.beta(4.0, 6.0, n)
    truth = true_cdf(model, u)
    return ObservationSample(u, (rng.random(n) < truth).astype(float)), truth


def replication_rng(seed: int, model_id: int, n: int, rep: int) -> np.random.Generator:
    """Independent, reproducible stream for one replication."""
    return np.random.default_rng(np.random.SeedSequence((seed, model_id, n, rep)))


def truncated_mse(estimate, model: SimModel, sample: ObservationSample) -> float:
    """Truncated MSE over the sample points falling in [a, b].

    ``estimate`` is any callable on float arrays: a ``CdfEstimate``, a
    ``StepCdf``, a ``ProjectionEstimate`` or a plain function. This is
    ``_truncated_mses`` on one sample, so an estimate with parts is
    evaluated by the rule that its own call runs.
    """
    return _truncated_mses([estimate], model, [_window(model, sample)])[0]


def _window(model: SimModel, sample: ObservationSample, truth=None):
    """The sample's points in [a, b], in input order, and ``true_cdf`` at them.

    ``truth``, when given, is ``true_cdf`` at every time of the sample
    (``_draw``), and the window reads it at its points: ``true_cdf`` is
    elementwise, so these are the values it computes on the points alone.
    """
    inside = (sample.u >= model.a) & (sample.u <= model.b)
    points = sample.u[inside]
    return points, true_cdf(model, points) if truth is None else truth[inside]


def _truncated_mses(estimates, model: SimModel, windows) -> list[float]:
    """``truncated_mse`` of each estimate over its own sample's ``_window``.

    Raises when any window is empty. Each MSE squares its own errors in
    place and sums them by ``np.add.reduce``, the reduction ``np.sum``
    runs, and each estimate's values come from
    ``estimates._evaluate_each``, the rule that ``estimate(points)`` runs
    on the one estimate, so every MSE is the one its sample gets alone.
    """
    points = [x for x, _ in windows]
    if not all(x.size for x in points):
        raise ValueError(f"no evaluation points in [{model.a}, {model.b}]")
    width = model.b - model.a
    mses = []
    for (x, truth), values in zip(windows, _evaluate_each(estimates, points)):
        errors = truth - values
        np.square(errors, out=errors)
        mses.append(float(width / x.size * np.add.reduce(errors)))
    return mses


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
_CHUNK_POINTS = 2**14


def _estimate_cell(method: str, stack, config: BenchConfig) -> list:
    """Estimates of one method for the samples of a ``data._SortedStack``, in sample order.

    The samples must have one size. The quotient and the regression fit
    every sample in one stacked scan (``quotient._fit_quotient_cdfs``,
    ``regression._fit_cdf_regressions``), the NPMLE pools every sample in
    one set of rounds (``isotonic._npmle_pavas``) and the Birgé histogram
    bins every sample by one pair of ``np.bincount`` calls
    (``isotonic._birge_histograms``). All of them read the stack's one
    sort, and the two scans its one evaluation of the finest dyadic basis.
    Every estimate is bitwise the one ``estimate_sample`` gives its sample.
    """
    n = stack.samples[0].n
    if any(sample.n != n for sample in stack.samples):
        raise ValueError("the samples of one scan must have one size")
    if method == "quotient":
        return _fit_quotient_cdfs(stack, config.family, config.kappa)
    if method == "regression":
        return _fit_cdf_regressions(stack, config.family, config.kappa0, config.clamp_regression)
    if method == "npmle":
        return [CdfEstimate("npmle", f, {"knots": n}) for f in _npmle_pavas(stack)]
    if method == "birge":
        bins = config.birge_bins or default_birge_bins(n)
        return [CdfEstimate("birge", f, {"bins": bins}) for f in _birge_histograms(stack, bins)]
    raise ValueError(f"unknown method {method!r}")


def _scored_column(method, model, reps, stack, windows, config) -> list:
    """The ``(mse, error)`` pairs of one method over a chunk, in sample order.

    The chunk is fitted by one ``_estimate_cell`` call over its stack and
    scored by one ``_truncated_mses`` call over its windows. When either
    raises, each sample is run again through this function as a chunk of
    one, its own stack and window, and a chunk of one that raises records
    ``rep {rep}: {exc}``. So every replication keeps its own pair and
    message.
    """
    try:
        estimates = _estimate_cell(method, stack, config)
        return [(mse, None) for mse in _truncated_mses(estimates, model, windows)]
    except Exception as exc:  # run again sample by sample, or recorded for one sample
        if len(reps) == 1:
            return [(float("nan"), f"rep {reps[0]}: {exc}")]
    return [
        pair
        for rep, sample, window in zip(reps, stack.samples, windows)
        for pair in _scored_column(method, model, [rep], _SortedStack([sample]), [window], config)
    ]


def _chunk_task(methods, seed, config, task):
    """One row per replication of a chunk: an ``(mse, error)`` pair per method.

    ``task`` is ``(model, n, reps)``, ``reps`` a range of one cell's
    replications. Each shared cost is paid once for every method: each
    sample is drawn with ``true_cdf`` at its times (``_draw``), from which
    its MSE window [a, b] reads the truth, and the samples are sorted
    once into one ``data._SortedStack``, whose finest dyadic basis
    evaluation the quotient's and the regression's scans share. Each
    method then fits and scores the chunk's samples together
    (``_scored_column``).
    """
    model, n, reps = task
    drawn = [_draw(model, n, replication_rng(seed, model.id, n, rep)) for rep in reps]
    windows = [_window(model, sample, truth) for sample, truth in drawn]
    stack = _SortedStack(sample for sample, _ in drawn)
    columns = [_scored_column(method, model, reps, stack, windows, config) for method in methods]
    return list(zip(*columns))


def _chunks(reps: int, n: int, n_jobs: int) -> list:
    """Split one cell's replications into ranges of nearly equal length.

    A range stacks at most ``_CHUNK_POINTS // n`` samples (at least one),
    16 at n = 1000. In a pool every cell is split in at least ``n_jobs``
    ranges, so the workers share each cell: 20 replications of n = 1000
    on two workers make two ranges of 10. Fewer, larger ranges pay each
    chunk's fixed costs (the collections, the scans' per-subdivision
    steps, the pooling rounds) fewer times.
    """
    most = max(1, _CHUNK_POINTS // n)
    if n_jobs > 1:
        most = min(most, -(-reps // n_jobs))
    count = -(-reps // most)
    edges = [reps * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one.

    ``os.cpu_count()`` counts the machine's CPUs, which a cpuset or an
    affinity mask can narrow; without ``os.sched_getaffinity`` it is
    that count, or 1 when unknown.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    ``n_jobs`` above the CPUs this process may run on (``_usable_cpus``)
    is lowered to them, for the chunking and the pool alike.

    Each ``(model, n)`` cell is fitted in chunks of replications
    (``_chunks``): one chunk per cell when serial, unless the cell stacks
    more than ``_CHUNK_POINTS`` points, and at least ``n_jobs`` chunks in
    a pool. A chunk draws each sample with its true distribution function
    and sorts it once, then fits and scores each method once over all of
    its samples (``_chunk_task``).
    The pool and the serial ``map`` both return rows in task order, so
    each cell is the next reps rows.
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
    n_jobs = min(n_jobs, _usable_cpus())
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
