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
  family, whose chunks stack many samples that share a pick.

A refactor that must not move an output bit prints the same lines
before and after. It reads only public names, so it runs on any
version of the package. Run from anywhere as
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

    ``fit`` is a ``CdfEstimate`` or a ``LeastSquaresFit``; a quotient's
    evaluator has no coefficients, and its metadata names its models.
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


def samples():
    for model_id in cs.MODEL_IDS:
        for n in (60, 200, 1000, 5000):
            sample = cs.generate(cs.SimModel(model_id), n, cs.replication_rng(7, model_id, n, 0))
            yield sample
            yield cs.ObservationSample(np.round(sample.u, 2), sample.delta)


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


if __name__ == "__main__":
    print("bench-serial", bench())
    print("bench-jobs2", bench("--jobs", "2"))
    print("estimates", estimates())
    print("least-squares", least_squares())
    print("monte-carlo", monte_carlo())
    print("monte-carlo-n60", many_samples())
