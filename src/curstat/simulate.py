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

``scipy.special`` is imported only by ``true_cdf`` for models 2 (``erf``)
and 5 (``betainc``); no estimator needs it. ``monte_carlo`` evaluates
``true_cdf`` once per model before it starts a process pool, so the
workers inherit the loaded module instead of each importing it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bases import BasisFamily, dyadic_family
from .data import ObservationSample
from .estimates import CdfEstimate
from .isotonic import birge_histogram, npmle_pava
from .quotient import fit_quotient_cdf
from .regression import fit_cdf_regression

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

    def __post_init__(self):
        if self.id not in MODEL_IDS:
            raise ValueError(f"unknown model id {self.id}")

    @property
    def a(self) -> float:
        return 0.0

    @property
    def b(self) -> float:
        return 0.5 if self.id == 5 else 1.0


def as_sim_model(model) -> SimModel:
    return model if isinstance(model, SimModel) else SimModel(int(model))


def true_cdf(model: SimModel, u):
    """True lifetime distribution function of the model, elementwise."""
    x = np.asarray(u, dtype=float)
    if model.id == 1:
        out = np.clip(x, 0.0, 1.0)
    elif model.id == 2:
        from scipy import special

        out = special.erf(np.sqrt(np.clip(x, 0.0, None) / 2.0))
    elif model.id == 3:
        out = np.clip(x, 0.0, 1.0) ** 2
    elif model.id == 4:
        out = 1.0 - np.exp(-2.0 * np.clip(x, 0.0, None))
    else:
        from scipy import special

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


def estimate_sample(
    method: str, sample: ObservationSample, config: BenchConfig | None = None
) -> CdfEstimate:
    """Run one named estimation method on a sample."""
    if config is None:
        config = BenchConfig()
    if method == "quotient":
        return fit_quotient_cdf(sample, config.family, config.kappa)
    if method == "regression":
        return fit_cdf_regression(
            sample, config.family, config.kappa0, config.clamp_regression
        )
    if method == "npmle":
        return CdfEstimate("npmle", npmle_pava(sample), {"knots": sample.n})
    if method == "birge":
        bins = config.birge_bins
        bins = default_birge_bins(sample.n) if bins is None else bins
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
        n_values = sorted({c.n for c in self.cells})
        model_ids = sorted({c.model_id for c in self.cells})
        methods = dict.fromkeys(c.method for c in self.cells)
        lines = [f"mean truncated MSE (x 1e-2), seed {self.seed}"]
        for method in methods:
            lines.append("")
            lines.append(f"[{method}]")
            header = "model".ljust(8) + "".join(f"n={n}".rjust(10) for n in n_values)
            lines.append(header)
            for mid in model_ids:
                row = str(mid).ljust(8)
                for n in n_values:
                    try:
                        value = self.cell(mid, n, method).mean * 100.0
                        row += f"{value:10.2f}"
                    except KeyError:
                        row += " " * 10
                lines.append(row)
        return "\n".join(lines) + "\n"


def _replication_task(args):
    model, n, rep, methods, seed, config = args
    sample = generate(model, n, replication_rng(seed, model.id, n, rep))
    out = {}
    for method in methods:
        try:
            estimate = estimate_sample(method, sample, config)
            out[method] = (truncated_mse(estimate, model, sample), None)
        except Exception as exc:  # recorded, never silently dropped
            out[method] = (float("nan"), f"rep {rep}: {exc}")
    return model.id, n, rep, out


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
    all methods share. Output is a pure function of the arguments;
    ``n_jobs > 1`` distributes replications over processes without
    changing the result.
    """
    if config is None:
        config = BenchConfig()
    models = [as_sim_model(m) for m in models]
    methods = tuple(methods)
    n_list = tuple(int(n) for n in n_list)
    cell_reps = {n: int(reps) if reps is not None else default_reps(n) for n in n_list}
    if any(count < 1 for count in cell_reps.values()):
        raise ValueError("need at least one replication")

    tasks = []
    for model in models:
        for n in n_list:
            for rep in range(cell_reps[n]):
                tasks.append((model, n, rep, methods, seed, config))

    if n_jobs > 1:
        for model in models:  # import what true_cdf needs before the workers fork
            true_cdf(model, 0.5)
        chunk = max(1, len(tasks) // (8 * n_jobs))
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_replication_task, tasks, chunksize=chunk))
    else:
        results = [_replication_task(t) for t in tasks]

    by_key = {(mid, n, rep): out for mid, n, rep, out in results}
    cells = []
    for model in models:
        for n in n_list:
            for method in methods:
                values = []
                failures = []
                for rep in range(cell_reps[n]):
                    value, err = by_key[(model.id, n, rep)][method]
                    values.append(value)
                    if err is not None:
                        failures.append(err)
                cells.append(
                    MseCell(model.id, n, method, tuple(values), tuple(failures))
                )
    return MseReport(tuple(cells), seed)
