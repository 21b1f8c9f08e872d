"""Print sha256 digests of the estimators' outputs, one per line.

Each line is a label and the sha256 of one group of outputs:

- ``bench-serial`` and ``bench-jobs2``: the CSV of
  ``curstat bench --reps 20 --seed 11``, serially and at ``--jobs 2``;
- ``estimates``: quotient and regression fits by ``estimate_sample`` of
  five families on models 1-5 at n = 60, 200, 1000 and 5000, with plain
  and 0.01-rounded times, and an n = 5e4 model-5 fit: metadata,
  coefficients and values on a grid over [-0.1, 1.1];
- ``least-squares``: ``fit_least_squares`` of every model of each
  family's regression collection on one n = 1000 sample;
- ``monte-carlo``: ``monte_carlo`` reports of all four methods, 6
  replications per cell, whose chunks fit and score their samples
  together: the CSV and every replication's MSE bytes and failure
  messages;
- ``monte-carlo-n60``: the same of the ``monte_carlo`` report of all
  four methods, 40 replications per model at n = 60 on the dyadic
  family, whose chunks stack many samples that share a pick;
- ``monte-carlo-pool``: the same of the grid of the ``mc-pool``
  benchmark, models 1-5 at n = 500 and 1000, 20 replications, seed 1,
  on two worker processes, whose chunk boundaries follow the chunk size;
- ``monte-carlo-failures``: the same of the ``monte_carlo`` reports of
  all four methods on models 1 and 5 at n = 1, 2, 3 and 5, 6
  replications, seed 3, serially and on two worker processes: the
  chunks whose fits fail (at n = 1) or whose windows are empty (model 5
  at n = 1 and 2) are run again sample by sample;
- ``monte-carlo-clamped``: the same of the ``monte_carlo`` reports of the
  regression with ``clamp_regression=True`` on the five families, at
  n = 200 and 1000, 6 replications, seed 3, followed by the clamped
  regression fits by ``estimate_sample`` of the ``estimates`` samples
  on each family;
- ``read-sample``: the times' and statuses' bytes that ``read_sample``
  returns for the ``write_sample`` files of the ``estimates`` samples
  and of its n = 5e4 sample, and for copies of each file with comment
  lines, with whitespace-delimited rows, with CRLF line ends and with a
  byte order mark, followed by the messages raised by malformed files;
- ``step-functions``: the values of the ``npmle_pava`` and
  ``birge_histogram`` fits of the ``estimates`` samples and of three
  n = 5e4 samples (model 3, model 4 with times outside [0, 1], and
  model 3 with 0.01-rounded times), each on its sample's points in the
  MSE window and on 10 000 points drawn from its knots, their
  neighbours, points outside [0, 1], nan and both infinities, followed
  by its ``truncated_mse`` bytes. The fits of the n = 5e4 samples are
  evaluated on 4 096 points or more, as fit-large scores them. Then one
  sample whose tied times sit on the bin edges k / 5 and k / 10 and on
  their float neighbours, 0.0 and 1.0 among them, with a few times
  outside [0, 1]: the knots and values of its ``birge_histogram`` fits
  with 5 and 10 bins, their values on those times and their
  ``truncated_mse`` bytes, and the knots and values of every row of the
  same fits stacked with a model-4 sample (``isotonic._birge_histograms``
  on a ``data._SortedStack``, as a Monte Carlo chunk fits them).

A refactor that must not move an output bit prints the same lines
before and after. It reads public names, and the two private ones
above, so it runs on any version of the package that stacks Birgé
fits. Run from anywhere as
``python tools/output_digest.py``; it takes a few seconds.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import curstat as cs  # noqa: E402
from curstat.cli import main  # noqa: E402
from curstat.data import _SortedStack  # noqa: E402
from curstat.isotonic import _birge_histograms  # noqa: E402

FAMILIES = (
    cs.dyadic_family(),
    cs.dyadic_family(3),
    cs.haar_family(),
    cs.poly_family(2),
    cs.trig_family(),
)
GRID = np.linspace(-0.1, 1.1, 241)


def fingerprint(fit, digest) -> None:
    """Feed one fit's metadata, coefficients and grid values to ``digest``.

    ``fit`` is a ``CdfEstimate`` or a ``LeastSquaresFit``; the evaluator
    of a quotient or a clamped regression has no coefficients, and its
    metadata names its models.
    """
    expansion = getattr(fit, "evaluator", fit)
    digest.update(repr(sorted(getattr(fit, "metadata", {}).items())).encode())
    if hasattr(expansion, "model"):
        digest.update(expansion.model.describe().encode())
    digest.update(np.asarray(getattr(expansion, "coeffs", ()), dtype=float).tobytes())
    digest.update(np.asarray(fit(GRID), dtype=float).tobytes())


def bench(*flags) -> str:
    with tempfile.TemporaryDirectory() as folder, contextlib.redirect_stdout(io.StringIO()):
        out = Path(folder) / "bench"
        if main(["bench", "--reps", "20", "--seed", "11", "--out", str(out), *flags]) != 0:
            raise RuntimeError(f"curstat bench {' '.join(flags)} failed")
        return hashlib.sha256((out.parent / "bench.csv").read_bytes()).hexdigest()


def model_samples():
    for model_id in cs.MODEL_IDS:
        model = cs.SimModel(model_id)
        for n in (60, 200, 1000, 5000):
            sample = cs.generate(model, n, cs.replication_rng(7, model_id, n, 0))
            yield model, sample
            yield model, cs.ObservationSample(np.round(sample.u, 2), sample.delta)


def samples():
    return (sample for _, sample in model_samples())


def estimates() -> str:
    digest = hashlib.sha256()
    large = cs.generate(cs.SimModel(5), 50_000, cs.replication_rng(7, 5, 50_000, 0))
    for family in FAMILIES:
        config = cs.BenchConfig(family=family)
        for sample in samples():
            for method in ("quotient", "regression"):
                try:
                    fingerprint(cs.estimate_sample(method, sample, config), digest)
                except cs.EmptyCollectionError as exc:
                    digest.update(str(exc).encode())
    for method in ("quotient", "regression"):
        fingerprint(cs.estimate_sample(method, large), digest)
    return digest.hexdigest()


def least_squares() -> str:
    digest = hashlib.sha256()
    sample = cs.generate(cs.SimModel(3), 1000, cs.replication_rng(7, 3, 1000, 0))
    for family in FAMILIES:
        for model in cs.build_collection(family, sample.n, cs.CAP_REGRESSION):
            fit = cs.fit_least_squares(sample, model)
            fingerprint(fit, digest)
            digest.update(repr((fit.contrast, fit.gram_rank, fit.gram_cond)).encode())
    return digest.hexdigest()


def report_digest(report, digest) -> None:
    """Feed a report's CSV and each replication's MSE bytes and failures to ``digest``."""
    digest.update(report.to_delimited().encode())
    for cell in report.cells:
        digest.update(np.asarray(cell.values, dtype=float).tobytes())
        digest.update(repr(cell.failures).encode())


def monte_carlo() -> str:
    digest = hashlib.sha256()
    for family in FAMILIES:
        config = cs.BenchConfig(family=family)
        report = cs.monte_carlo(
            cs.MODEL_IDS, cs.METHODS, (200, 1000), reps=6, seed=3, config=config
        )
        report_digest(report, digest)
    return digest.hexdigest()


def many_samples() -> str:
    digest = hashlib.sha256()
    report_digest(cs.monte_carlo(cs.MODEL_IDS, cs.METHODS, (60,), reps=40, seed=3), digest)
    return digest.hexdigest()


def pool_grid() -> str:
    digest = hashlib.sha256()
    report_digest(cs.monte_carlo(cs.MODEL_IDS, cs.METHODS, (500, 1000), 20, 1, n_jobs=2), digest)
    return digest.hexdigest()


def failure_grid() -> str:
    digest = hashlib.sha256()
    for n_jobs in (1, 2):
        grid = cs.monte_carlo([1, 5], cs.METHODS, (1, 2, 3, 5), reps=6, seed=3, n_jobs=n_jobs)
        report_digest(grid, digest)
    return digest.hexdigest()


def clamped_grid() -> str:
    digest = hashlib.sha256()
    for family in FAMILIES:
        config = cs.BenchConfig(family=family, clamp_regression=True)
        report = cs.monte_carlo(
            cs.MODEL_IDS, ("regression",), (200, 1000), reps=6, seed=3, config=config
        )
        report_digest(report, digest)
        for sample in samples():
            try:
                fingerprint(cs.estimate_sample("regression", sample, config), digest)
            except cs.EmptyCollectionError as exc:
                digest.update(str(exc).encode())
    return digest.hexdigest()


BAD_FILES = (
    "u,delta\n0.5,1 # x\n",
    "u,delta\n0.5,,1\n",
    "u,delta\n0.5 1,0\n",
    "u,delta\n0.5,1\n0.25,2\n",
    "u,delta\n\n# only comments\n",
    "0.5,,1\n0.25,1\n0.75,0\n",
    "0.5;1\n0.25,1\n0.75,0\n",
    "u,delta\n0.5,1\x0c0.25,0\n",
)


def read_samples() -> str:
    digest = hashlib.sha256()
    large = cs.generate(cs.SimModel(5), 50_000, cs.replication_rng(7, 5, 50_000, 0))
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "sample.csv"
        for sample in [*samples(), large]:
            cs.write_sample(sample, path)
            text = path.read_bytes()
            copies = (
                text,
                b"# a comment\n" + text.replace(b"\n", b"\n# a comment\n", 3),
                text.replace(b",", b" "),
                text.replace(b"\n", b"\r\n"),
                b"\xef\xbb\xbf" + text,
            )
            for copy in copies:
                path.write_bytes(copy)
                back = cs.read_sample(path)
                digest.update(back.u.tobytes() + back.delta.tobytes())
        for text in BAD_FILES:
            path.write_text(text)
            try:
                cs.read_sample(path)
            except cs.SampleFormatError as exc:
                digest.update(str(exc).encode())
    return digest.hexdigest()


SPECIAL_POINTS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, -0.5, 1.5, -1e300, 1e300])


def step_functions() -> str:
    digest = hashlib.sha256()
    large = [
        (cs.SimModel(m), cs.generate(cs.SimModel(m), 50_000, cs.replication_rng(7, m, 50_000, 0)))
        for m in (3, 4)
    ]
    model, sample = large[0]
    large.append((model, cs.ObservationSample(np.round(sample.u, 2), sample.delta)))
    rng = np.random.default_rng(7)
    for model, sample in [*model_samples(), *large]:
        window = sample.u[(sample.u >= model.a) & (sample.u <= model.b)]
        fits = (
            cs.npmle_pava(sample),
            cs.birge_histogram(sample, cs.default_birge_bins(sample.n)),
        )
        for fit in fits:
            knots = fit.knots
            drawn = np.concatenate(
                [knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf), SPECIAL_POINTS]
            )
            x = np.concatenate([SPECIAL_POINTS, rng.choice(drawn, 10_000 - SPECIAL_POINTS.size)])
            for points in (window, x):
                digest.update(np.asarray(fit(points), dtype=float).tobytes())
            digest.update(np.float64(cs.truncated_mse(fit, model, sample)).tobytes())
    edges = np.concatenate([np.arange(6) / 5, np.arange(11) / 10])
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    times = np.concatenate([np.repeat(near, 2), [-0.25, -1e-300, 1.5, 3.0]])
    statuses = np.random.default_rng(11).random(times.size) < 0.5
    edge_sample = cs.ObservationSample(times, statuses.astype(float))
    other = cs.generate(cs.SimModel(4), 200, cs.replication_rng(7, 4, 200, 0))
    for bins in (5, 10):
        fit = cs.birge_histogram(edge_sample, bins)
        digest.update(fit.knots.tobytes() + fit.values.tobytes() + fit(times).tobytes())
        digest.update(np.float64(cs.truncated_mse(fit, cs.SimModel(1), edge_sample)).tobytes())
        for row in _birge_histograms(_SortedStack([edge_sample, other, edge_sample]), bins):
            digest.update(row.knots.tobytes() + row.values.tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    print("bench-serial", bench())
    print("bench-jobs2", bench("--jobs", "2"))
    print("estimates", estimates())
    print("least-squares", least_squares())
    print("monte-carlo", monte_carlo())
    print("monte-carlo-n60", many_samples())
    print("monte-carlo-pool", pool_grid())
    print("monte-carlo-failures", failure_grid())
    print("monte-carlo-clamped", clamped_grid())
    print("read-sample", read_samples())
    print("step-functions", step_functions())
