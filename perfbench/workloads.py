"""The benchmark's workloads: inputs made from a seed, a timed unit of work
(one batch), and the checks on what the batches produced.

Every workload uses the default ``BenchConfig`` (dyadic family, maximum
degree 9, noise-scaled regression). A batch does a fixed amount of work
on fixed inputs, so batch wall times from one run are comparable; the
runner repeats batches until its time is up.

Checks run after the timed batches. Each fit counts as attempted; it
fails when it raised, when a later batch disagrees bitwise with the
first, or when an oracle disagrees. Each workload also refits inputs
drawn from ``REFERENCE_SEED``, as many as a batch fits, and compares them
with ``reference.json``, recorded from the same code by ``make_reference.py``.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import curstat as cs
from calibration import LARGE, LARGE_PAIR, SMALL

METHODS = cs.METHODS
REFERENCE_SEED = 20080317
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
OUT_DIR = Path(__file__).resolve().parent / "out"
# A changed selected model moves an MSE or a grid value by far more than this.
RTOL = 1e-9
ATOL = 1e-12
GRID = np.linspace(0.0, 1.0, 512)  # the grid `curstat estimate` writes


@dataclass
class Output:
    """What one fit produced: truncated MSE, selected models, grid values."""

    mse: float
    models: dict
    grid: np.ndarray | None = None
    error: str | None = None

    def same_as(self, other: "Output") -> bool:
        return (
            self.error is None
            and other.error is None
            and np.float64(self.mse).tobytes() == np.float64(other.mse).tobytes()
            and self.models == other.models
            and (self.grid is None or self.grid.tobytes() == other.grid.tobytes())
        )

    def record(self) -> dict:
        out = {"mse": self.mse, "models": self.models}
        if self.grid is not None:
            out["grid"] = self.grid.tolist()
        return out


def selected_models(estimate) -> dict:
    """The string and integer metadata of an estimate: models, ranks, bins."""
    return {k: v for k, v in sorted(estimate.metadata.items()) if isinstance(v, (str, int))}


def fit(method, sample, model, config, fit_ms=None, grid=False) -> Output:
    """Fit one method, then score it; the fit alone is timed into ``fit_ms``."""
    try:
        start = perf_counter()
        estimate = cs.estimate_sample(method, sample, config)
        if fit_ms is not None:
            fit_ms[method].append((perf_counter() - start) * 1e3)
        mse = cs.truncated_mse(estimate, model, sample)
        values = np.asarray(estimate(GRID), dtype=float) if grid else None
        return Output(mse, selected_models(estimate), values)
    except Exception as exc:  # a failed fit is counted, never dropped
        return Output(math.nan, {}, None, f"{method}: {type(exc).__name__}: {exc}")


class Tally:
    """Fits attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(message)

    def reference(self, records: dict, recorded: dict, where: str) -> None:
        for key, rec in records.items():
            exp = recorded.get(key)
            ok = exp is not None and _close(rec["mse"], exp["mse"])
            ok = ok and all(rec["models"].get(k) == v for k, v in exp["models"].items())
            if ok and "grid" in exp:
                ok = np.allclose(rec["grid"], exp["grid"], rtol=RTOL, atol=ATOL)
            self.add(ok, f"{where} {key}: differs from reference.json")


def _close(value, expected) -> bool:
    return math.isfinite(value) and abs(value - expected) <= ATOL + RTOL * abs(expected)


def load_reference(workload: str, size: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload][size]


class McSmall:
    """Models 1-5 at n = 200, all four methods, serial.

    Each replication calls ``generate``, then ``estimate_sample`` once
    per method (each call timed), then ``truncated_mse``.
    """

    name = "mc-small"
    N = 200

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.size = "tiny" if tiny else "full"
        self.reps = 2 if tiny else 40
        self.models = [cs.SimModel(m) for m in cs.MODEL_IDS]
        self.config = cs.BenchConfig()
        self.fit_ms = {m: [] for m in METHODS}
        self.batches: list[list[Output]] = []

    def _sample(self, seed, model, rep):
        return cs.generate(model, self.N, cs.replication_rng(seed, model.id, self.N, rep))

    def batch_steps(self) -> list:
        """One batch: a step per model, each running its replications."""
        outputs: list[Output] = []
        self.batches.append(outputs)
        return [(SMALL, functools.partial(self._replicate, model, outputs)) for model in self.models]

    def _replicate(self, model, outputs) -> None:
        for rep in range(self.reps):
            sample = self._sample(self.seed, model, rep)
            for method in METHODS:
                outputs.append(fit(method, sample, model, self.config, self.fit_ms))

    traced_steps = batch_steps
    fit_steps = None

    def finish(self) -> None:
        pass

    def fits_per_batch(self) -> int:
        return len(self.models) * self.reps * len(METHODS)

    def check(self, tally: Tally) -> None:
        first = self.batches[0]
        oracle_ok = []
        for model in self.models:
            for rep in range(self.reps):
                sample = self._sample(self.seed, model, rep)
                pava, maxmin = cs.npmle_pava(sample), cs.npmle_maxmin(sample)
                same = (
                    pava.values.tobytes() == maxmin.values.tobytes()
                    and pava.knots.tobytes() == maxmin.knots.tobytes()
                )
                oracle_ok += [same or m != "npmle" for m in METHODS]
        for b, batch in enumerate(self.batches):
            for i, (out, ok) in enumerate(zip(batch, oracle_ok)):
                good = ok and out.same_as(first[i]) and math.isfinite(out.mse)
                tally.add(good, f"batch {b} fit {i}: {out.error or 'output check failed'}")
        tally.reference(self.reference_records(), load_reference(self.name, self.size), self.name)

    def reference_records(self) -> dict:
        records = {}
        for model in self.models:
            for rep in range(self.reps):
                sample = self._sample(REFERENCE_SEED, model, rep)
                for method in METHODS:
                    out = fit(method, sample, model, self.config)
                    records[f"{model.id}/{rep}/{method}"] = out.record()
        return records

    def close(self) -> None:
        pass


class FitLarge:
    """One model-3 sample of n = 50 000 read from CSV and fitted by every method."""

    name = "fit-large"
    MODEL = 3
    REPEATS = {"npmle": 10, "birge": 100}

    def __init__(self, seed: int, tiny: bool):
        self.size = "tiny" if tiny else "full"
        self.n = 2000 if tiny else 50000
        self.model = cs.SimModel(self.MODEL)
        self.config = cs.BenchConfig()
        self.fit_ms = {m: [] for m in METHODS}
        self.batches: list[list[Output]] = []
        self.samples_read: list = []
        self.sample = self._sample(seed)
        OUT_DIR.mkdir(exist_ok=True)
        self.path = OUT_DIR / f"fit-large-{os.getpid()}.csv"
        cs.write_sample(self.sample, self.path)

    def _sample(self, seed):
        return cs.generate(self.model, self.n, cs.replication_rng(seed, self.MODEL, self.n, 0))

    def batch_steps(self) -> list:
        """One batch: read the CSV, then fit each method. npmle and birge take
        milliseconds, so they run ``REPEATS`` times for a steadier median.
        Parsing and the PAVA loop of npmle are interpreter work; the other
        fits stream through large arrays."""
        outputs: list[Output] = []
        self.batches.append(outputs)

        def fit_step(method):
            sample = self.samples_read[-1]
            for _ in range(self.REPEATS.get(method, 1)):
                out = fit(method, sample, self.model, self.config, self.fit_ms, grid=True)
                outputs.append(out)

        return [
            (SMALL, self._read),
            (LARGE, functools.partial(fit_step, "quotient")),
            (LARGE, functools.partial(fit_step, "regression")),
            (SMALL, functools.partial(fit_step, "npmle")),
            (LARGE, functools.partial(fit_step, "birge")),
        ]

    def _read(self) -> None:
        self.samples_read.append(cs.read_sample(self.path))

    traced_steps = batch_steps
    fit_steps = None

    def finish(self) -> None:
        pass

    def fits_per_batch(self) -> int:
        return sum(self.REPEATS.get(m, 1) for m in METHODS)

    def check(self, tally: Tally) -> None:
        first = self.batches[0]
        for b, (batch, sample) in enumerate(zip(self.batches, self.samples_read)):
            read_ok = (
                sample.u.tobytes() == self.sample.u.tobytes()
                and sample.delta.tobytes() == self.sample.delta.tobytes()
            )
            for out, ref in zip(batch, first):
                good = read_ok and out.same_as(ref) and bool(np.isfinite(out.grid).all())
                tally.add(good, f"round {b}: {out.error or 'output check failed'}")
        tally.reference(self.reference_records(), load_reference(self.name, self.size), self.name)

    def reference_records(self) -> dict:
        sample = self._sample(REFERENCE_SEED)
        return {
            m: fit(m, sample, self.model, self.config, grid=True).record() for m in METHODS
        }

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


class McPool:
    """``monte_carlo`` over models 1-5 at n = 500 and 1000 on two worker processes.

    The timed batch is the pool run. Fits inside the workers cannot be
    timed from here, so the last third of the run refits the grid's
    first ten n = 1000 samples per model serially, timing each fit. A
    serial replay of the whole grid is the reference every pool report
    must equal byte for byte, and the refits must reproduce its MSE
    values bitwise.
    """

    name = "mc-pool"
    JOBS = 2
    fit_share = 1 / 3
    N_LIST = (500, 1000)

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.size = "tiny" if tiny else "full"
        self.reps = 1 if tiny else 20
        self.fit_reps = 1 if tiny else 10
        self.models = [cs.SimModel(m) for m in cs.MODEL_IDS]
        self.config = cs.BenchConfig()
        self.fit_ms = {m: [] for m in METHODS}
        self.fit_outputs: list = []
        self.reports: list = []
        self.replay_report = None
        self.replay_s = 0.0

    def _grid(self, seed, reps, n_jobs):
        return cs.monte_carlo(cs.MODEL_IDS, METHODS, self.N_LIST, reps, seed, n_jobs, self.config)

    def batch_steps(self) -> list:
        return [(LARGE_PAIR, self._pool_run)]

    def _pool_run(self) -> None:
        self.reports.append(self._grid(self.seed, self.reps, self.JOBS))

    def fit_steps(self) -> list:
        """Serial refits of the grid's n = 1000 samples, a step per model."""
        return [(SMALL, functools.partial(self._refit, model)) for model in self.models]

    def _refit(self, model) -> None:
        n = max(self.N_LIST)
        for rep in range(self.fit_reps):
            sample = cs.generate(model, n, cs.replication_rng(self.seed, model.id, n, rep))
            for method in METHODS:
                out = fit(method, sample, model, self.config, self.fit_ms)
                self.fit_outputs.append((model.id, rep, method, out))

    def finish(self) -> None:
        """Serial replay of the batch grid."""
        start = perf_counter()
        self.replay_report = self._grid(self.seed, self.reps, 1)
        self.replay_s = perf_counter() - start

    def traced_steps(self) -> list:
        return [(SMALL, functools.partial(self._grid, self.seed, self.reps, 1))]

    def fits_per_batch(self) -> int:
        return len(self.models) * len(self.N_LIST) * self.reps * len(METHODS)

    def check(self, tally: Tally) -> None:
        expected = self.replay_report.to_delimited()
        for b, report in enumerate(self.reports + [self.replay_report]):
            same = report.to_delimited() == expected
            for cell in report.cells:
                for rep, value in enumerate(cell.values):
                    ok = same and math.isfinite(value) and not cell.failures
                    tally.add(
                        ok,
                        f"report {b} model {cell.model_id} n {cell.n} {cell.method} rep {rep}: "
                        + ("; ".join(cell.failures) or "differs from the serial replay"),
                    )
        n = max(self.N_LIST)
        for model_id, rep, method, out in self.fit_outputs:
            value = self.replay_report.cell(model_id, n, method).values[rep]
            same = np.float64(out.mse).tobytes() == np.float64(value).tobytes()
            tally.add(
                out.error is None and same,
                f"refit model {model_id} rep {rep} {method}: {out.error or 'MSE differs from the grid'}",
            )
        tally.reference(self.reference_records(), load_reference(self.name, self.size), self.name)

    def reference_records(self) -> dict:
        report = self._grid(REFERENCE_SEED, self.reps, 1)
        return {
            f"{c.model_id}/{c.n}/{c.method}/{rep}": {"mse": v, "models": {}}
            for c in report.cells
            for rep, v in enumerate(c.values)
        }

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (McSmall, FitLarge, McPool)}
