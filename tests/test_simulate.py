import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curstat
from curstat import (
    METHODS,
    MODEL_IDS,
    BenchConfig,
    CdfEstimate,
    EmptyCollectionError,
    MseCell,
    MseReport,
    ObservationSample,
    SimModel,
    default_birge_bins,
    default_reps,
    estimate_sample,
    build_collection,
    dyadic_family,
    generate,
    haar_family,
    monte_carlo,
    poly_family,
    replication_rng,
    select_projection_model,
    true_cdf,
    trig_family,
    truncated_mse,
)
from curstat.data import _SortedStack

from dense_oracle import dense_values


class TestTrueCdf:
    def test_quadratic_model(self):
        assert true_cdf(SimModel(3), 0.5) == pytest.approx(0.25)

    def test_chi_square_model_at_one(self):
        assert true_cdf(SimModel(2), 1.0) == pytest.approx(0.6826894921370859, abs=1e-12)

    def test_beta_model_at_half(self):
        assert true_cdf(SimModel(5), 0.5) == pytest.approx(1816 / 2048, abs=1e-12)

    def test_exponential_model_parameterisations(self):
        # 0.5 is the mean (rate 2), which matches the truncation mass ~0.86 at u=1
        assert true_cdf(SimModel(4), 1.0) == pytest.approx(1 - math.exp(-2.0))

    @pytest.mark.parametrize("mid", [1, 2, 3, 4, 5])
    def test_nondecreasing_and_in_range(self, mid):
        grid = np.linspace(0.0, 3.0, 2000)
        values = true_cdf(SimModel(mid), grid)
        assert np.all(np.diff(values) >= -1e-15)
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_truncation_bounds(self):
        assert SimModel(1).b == 1.0
        assert SimModel(4).b == 1.0
        assert SimModel(5).b == 0.5
        assert SimModel(3).a == 0.0


class TestGenerate:
    def test_deterministic_given_seed(self):
        s1 = generate(SimModel(2), 50, 123)
        s2 = generate(SimModel(2), 50, 123)
        np.testing.assert_array_equal(s1.u, s2.u)
        np.testing.assert_array_equal(s1.delta, s2.delta)

    def test_uniform_model_status_mean(self):
        n = 100_000
        sample = generate(SimModel(1), n, 31)
        se = 0.5 / math.sqrt(n)
        assert abs(sample.delta.mean() - 0.5) < 3 * se

    def test_exponential_model_tail_fraction(self):
        n = 100_000
        sample = generate(SimModel(4), n, 32)
        p = math.exp(-1.0)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(sample.u > 1.0) - p) < 3 * se

    def test_beta_model_support(self):
        sample = generate(SimModel(5), 5000, 33)
        assert sample.u.min() >= 0.0 and sample.u.max() <= 1.0

    @pytest.mark.parametrize("n", [True, 5.0, 60.5, 0, "5"])
    def test_sample_size_must_be_an_integer_of_at_least_1(self, n):
        with pytest.raises(ValueError, match="n must be an integer of at least 1"):
            generate(SimModel(1), n, 1)
        assert generate(SimModel(1), np.int64(5), 1) == generate(SimModel(1), 5, 1)

    def test_replication_streams_differ(self):
        a = generate(SimModel(1), 20, replication_rng(0, 1, 20, 0))
        b = generate(SimModel(1), 20, replication_rng(0, 1, 20, 1))
        assert not np.array_equal(a.u, b.u)

    @pytest.mark.parametrize("model_id", MODEL_IDS)
    def test_the_draw_keeps_the_truth_of_every_time(self, model_id):
        # a Monte Carlo chunk reads each window's truth from the draw, and a
        # window of the truth is bitwise true_cdf on the window's points
        import curstat.simulate as sim

        model = SimModel(model_id)
        for n in (60, 1000, 5000):
            rng = replication_rng(20080317, model_id, n, 0)
            sample, truth = sim._draw(model, n, rng)
            assert sample == generate(model, n, replication_rng(20080317, model_id, n, 0))
            assert truth.tobytes() == true_cdf(model, sample.u).tobytes()
            for got, own in zip(sim._window(model, sample, truth), sim._window(model, sample)):
                assert got.tobytes() == own.tobytes()


class TestTruncatedMse:
    def test_perfect_estimate_scores_zero(self):
        model = SimModel(3)
        sample = generate(model, 100, 5)
        oracle = CdfEstimate("oracle", lambda x: true_cdf(model, x))
        assert truncated_mse(oracle, model, sample) == 0.0

    def test_constant_offset(self):
        model = SimModel(1)
        sample = generate(model, 500, 6)
        c = 0.05
        shifted = CdfEstimate("shifted", lambda x: true_cdf(model, x) + c)
        expected = (model.b - model.a) * c**2
        assert truncated_mse(shifted, model, sample) == pytest.approx(expected)

    def test_model5_points_beyond_half_excluded(self):
        model = SimModel(5)
        sample = ObservationSample([0.2, 0.4, 0.6, 0.9], [0.0, 0.0, 1.0, 1.0])
        biased = CdfEstimate(
            "piecewise",
            lambda x: true_cdf(model, x) + np.where(x > 0.5, 10.0, 0.1),
        )
        # the two points above b = 0.5 contribute neither to the sum nor to K
        assert truncated_mse(biased, model, sample) == pytest.approx(
            0.5 * (0.1**2 * 2) / 2
        )

    def test_no_points_in_window_raises(self):
        model = SimModel(1)
        sample = ObservationSample([1.4, 2.0], [1.0, 1.0])
        oracle = CdfEstimate("oracle", lambda x: true_cdf(model, x))
        with pytest.raises(ValueError, match="no evaluation points"):
            truncated_mse(oracle, model, sample)

    @pytest.mark.parametrize("model_id", [1, 5])
    def test_any_callable_scores_by_the_direct_formula(self, model_id):
        model = SimModel(model_id)
        sample = generate(model, 300, 12)
        collection = build_collection(dyadic_family(), sample.n, "density")
        sub, den = select_projection_model(sample, collection)
        bare = [
            curstat.npmle_pava(sample),
            curstat.birge_histogram(sample, 7),
            lambda x: true_cdf(model, x) * 0.9,
            sub,
            den,
            curstat.fit_quotient_cdf(sample).evaluator,
            curstat.fit_cdf_regression(sample).evaluator,
        ]
        for estimate in bare:
            mse = np.float64(truncated_mse(estimate, model, sample)).tobytes()
            assert mse == _direct_mse(estimate, model, sample)


class TestDefaults:
    def test_benchmark_schedules(self):
        assert [default_birge_bins(n) for n in (60, 200, 500, 1000)] == [5, 5, 10, 10]
        assert [default_reps(n) for n in (60, 200, 500, 1000)] == [500, 500, 200, 200]


    def test_zero_birge_bins_rejected(self):
        # zero bins is an error, not a request for the default bin count
        sample = generate(SimModel(1), 60, 0)
        with pytest.raises(ValueError, match="need at least one bin"):
            estimate_sample("birge", sample, BenchConfig(birge_bins=0))
        default = estimate_sample("birge", sample, BenchConfig(birge_bins=None))
        assert default.metadata["bins"] == default_birge_bins(60)
        fixed = estimate_sample("birge", sample, BenchConfig(birge_bins=np.int64(3)))
        assert fixed.metadata["bins"] == 3

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("kappa", -1.0, "kappa must be positive and finite"),
            ("kappa", math.inf, "kappa must be positive and finite"),
            ("kappa0", 0.0, "kappa0 must be positive and finite"),
            ("kappa0", math.nan, "kappa0 must be positive and finite"),
            ("birge_bins", 0, "need at least one bin"),
            ("birge_bins", 2.5, "birge_bins must be an integer"),
            ("birge_bins", 3.0, "birge_bins must be an integer"),
            # a bool passed the integer check, and every birge fit then failed
            ("birge_bins", True, "birge_bins must be an integer"),
            ("birge_bins", False, "birge_bins must be an integer"),
            ("family", "dyadic", "family must be a BasisFamily"),
        ],
    )
    def test_config_rejected_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            BenchConfig(**{field: value})


class TestMonteCarlo:
    def test_single_rep_runs_all_methods(self):
        report = monte_carlo([1], n_list=(60,), reps=1, seed=3)
        assert len(report.cells) == 4
        for cell in report.cells:
            assert cell.reps == 1
            assert np.isfinite(cell.mean)
            assert not cell.failures

    @pytest.mark.parametrize("reps", [0, -1])
    def test_replication_count_must_be_positive(self, reps):
        with pytest.raises(ValueError, match="at least one replication"):
            monte_carlo([1], n_list=(60, 200), reps=reps, seed=3)

    def test_determinism_across_parallelism(self):
        import curstat.simulate as sim

        kwargs = dict(models=[1, 2, 3, 4, 5], n_list=(60, 500), reps=5, seed=17)
        # serially a cell is one chunk; the pool splits each across workers
        assert sim._chunks(5, 500, 1) == [range(0, 5)]
        assert sim._chunks(5, 500, 3) == [range(0, 1), range(1, 3), range(3, 5)]
        serial = monte_carlo(**kwargs, n_jobs=1)
        parallel = monte_carlo(**kwargs, n_jobs=3)
        assert [c.method for c in serial.cells[:4]] == list(curstat.METHODS)
        assert serial.to_delimited() == parallel.to_delimited()

    @pytest.mark.parametrize(
        "reps, n, n_jobs, sizes",
        [
            (500, 60, 1, [250] * 2),
            (200, 1000, 1, [15] * 8 + [16] * 5),
            (200, 1000, 2, [15] * 8 + [16] * 5),
            # the mc-pool benchmark's cells on two workers, then serially
            (20, 1000, 2, [10, 10]),
            (20, 500, 2, [10, 10]),
            (1, 60, 4, [1]),
            (3, 2**15, 1, [1, 1, 1]),
            (20, 1000, 1, [10, 10]),
            (20, 500, 1, [20]),
        ],
    )
    def test_chunks_cover_the_cell_in_order(self, reps, n, n_jobs, sizes):
        import curstat.simulate as sim

        chunks = sim._chunks(reps, n, n_jobs)
        assert sorted(len(chunk) for chunk in chunks) == sizes
        assert [rep for chunk in chunks for rep in chunk] == list(range(reps))
        assert max(sizes) * n <= max(sim._CHUNK_POINTS, n)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_list=(60.9,)), "every n must be an integer of at least 1"),
            (dict(n_list=(60, "200")), "every n must be an integer of at least 1"),
            (dict(n_list=(0,)), "every n must be an integer of at least 1"),
            (dict(reps=2.7), "reps must be an integer"),
            (dict(reps=2.0), "reps must be an integer"),
            (dict(n_jobs=0), "n_jobs must be an integer of at least 1"),
            (dict(n_jobs=-3), "n_jobs must be an integer of at least 1"),
            (dict(n_jobs=2.0), "n_jobs must be an integer of at least 1"),
            (dict(n_list=(True,)), "every n must be an integer of at least 1"),
            (dict(reps=True), "reps must be an integer"),
            (dict(reps=False), "reps must be an integer"),
            (dict(n_jobs=True), "n_jobs must be an integer of at least 1"),
            (dict(seed=False), "seed must be an integer of at least 0"),
            (dict(seed=True), "seed must be an integer of at least 0"),
        ],
    )
    def test_arguments_are_not_truncated(self, kwargs, message):
        # these once ran silently: n = 60.9 as 60, reps = 2.7 as 2, and
        # n_jobs below 1 as a serial run
        arguments = dict(models=[1], methods=("birge",), n_list=(60,), reps=2, seed=1)
        with pytest.raises(ValueError, match=message):
            monte_carlo(**{**arguments, **kwargs})

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize(
        "models, methods, message, n_list, seed",
        [
            ([1], ["quotient", "nmple"], "unknown method 'nmple'", (60,), 1),
            ([1], [], "need at least one method", (60,), 1),
            ([], ["birge"], "need at least one model", (60,), 1),
            ([1, SimModel(1)], ["birge"], "repeated model in", (60,), 1),
            ([1], ["birge", "birge"], "repeated method in", (60,), 1),
            ([1], ["birge"], "repeated n in", (60, np.int64(60)), 1),
            ([1], ["birge"], "seed must be an integer of at least 0", (60,), -1),
            ([1], ["birge"], "seed must be an integer of at least 0", (60,), 1.5),
            ([1], ["birge"], "seed must be an integer of at least 0", (60,), True),
            ([1.5], ["birge"], "unknown model id 1.5", (60,), 1),
            ([True], ["birge"], "unknown model id True", (60,), 1),
            ([1.0], ["birge"], "unknown model id 1.0", (60,), 1),
        ],
    )
    def test_methods_and_models_checked_up_front(
        self, monkeypatch, models, methods, message, n_list, seed, n_jobs
    ):
        # these once ran: a misspelled method gave a nan cell and one failure
        # line per replication, no method a bare StopIteration after the
        # pool started, no model a header-only report, a repeated model,
        # method or n gave cells that MseReport.cell cannot tell apart, and
        # a negative seed failed in the first replication's SeedSequence, and
        # the model ids 1.5, True and 1.0 ran model 1
        import curstat.simulate as sim

        def never(*args, **kwargs):
            raise AssertionError("the grid started")

        monkeypatch.setattr(sim, "_draw", never)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", never)
        with pytest.raises(ValueError, match=message):
            sim.monte_carlo(models, methods, n_list, 3, seed, n_jobs=n_jobs)

    def test_numpy_integer_arguments_accepted(self):
        report = monte_carlo(
            [1], ("birge",), (np.int64(60),), reps=np.int32(2), seed=1, n_jobs=np.int64(1)
        )
        assert report.cells[0].n == 60 and report.cells[0].reps == 2

    def test_jobs_capped_at_the_cpu_count(self, monkeypatch):
        # a stand-in pool records its size and chunks and maps in this
        # process, so a huge n_jobs starts no process at all
        import curstat.simulate as sim

        opened = []

        class InlinePool:
            def __init__(self, max_workers):
                self.workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                opened.append((self.workers, [chunk for _, _, chunk in tasks]))
                return map(fn, tasks)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", InlinePool)
        # the affinity mask caps the pool, not the machine's CPU count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        kwargs = dict(models=[1, 3], methods=("regression", "birge"), n_list=(60, 500), reps=5)
        serial = monte_carlo(**kwargs).to_delimited()
        assert monte_carlo(**kwargs, n_jobs=10_000).to_delimited() == serial
        chunks = [c for _ in (1, 3) for n in (60, 500) for c in sim._chunks(5, n, 3)]
        assert opened == [(3, chunks)]
        # a process pinned to one CPU runs serially
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
        assert monte_carlo(**kwargs, n_jobs=4).to_delimited() == serial
        assert len(opened) == 1
        # without affinity masks the CPU count caps the pool, and a host
        # that cannot count its CPUs runs serially
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert monte_carlo(**kwargs, n_jobs=10_000).to_delimited() == serial
        assert opened == [(3, chunks)] * 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert monte_carlo(**kwargs, n_jobs=4).to_delimited() == serial
        assert len(opened) == 2

    def test_perfect_oracle_scores_zero_everywhere(self, monkeypatch):
        import curstat.simulate as sim

        def oracle(method, stack, config=None):
            model = oracle.current_model
            return [CdfEstimate("oracle", lambda x: true_cdf(model, x)) for _ in stack.samples]

        original = sim._draw

        def tracking_draw(model, n, rng):
            oracle.current_model = model
            return original(model, n, rng)

        monkeypatch.setattr(sim, "_estimate_cell", oracle)
        monkeypatch.setattr(sim, "_draw", tracking_draw)
        report = sim.monte_carlo([1, 4, 5], ("quotient",), (60, 200), reps=1, seed=2)
        for cell in report.cells:
            assert cell.mean == 0.0

    def test_failures_recorded_not_dropped(self, monkeypatch):
        import curstat.simulate as sim

        def broken(method, stack, config=None):
            raise ValueError("boom")

        monkeypatch.setattr(sim, "_estimate_cell", broken)
        report = sim.monte_carlo([1], ("npmle",), (60,), reps=2, seed=1)
        cell = report.cells[0]
        assert len(cell.failures) == 2
        assert math.isnan(cell.mean)
        assert "boom" in cell.failures[0]

    def test_report_formats(self):
        report = monte_carlo([1], ("birge",), (60,), reps=2, seed=9)
        text = report.to_delimited()
        header, row = text.strip().splitlines()[:2]
        assert header == "model,n,method,J,mean_mse,std_mse,seed"
        fields = row.split(",")
        assert fields[:4] == ["1", "60", "birge", "2"]
        assert float(fields[4]) >= 0.0
        table = report.to_table()
        assert "[birge]" in table and "n=60" in table

    def test_table_with_missing_cell_and_nan_mean(self):
        nan = float("nan")
        cells = (
            MseCell(1, 60, "npmle", (0.01, 0.03)),
            MseCell(1, 200, "npmle", (0.02,)),
            MseCell(2, 60, "npmle", (nan,)),
        )
        assert MseReport(cells, 7).to_table() == (
            "mean truncated MSE (x 1e-2), seed 7\n\n[npmle]\n"
            "model         n=60     n=200\n"
            "1             2.00      2.00\n"
            "2              nan          \n"
        )

    def test_failing_replications_identical_across_parallelism(self):
        # the trig regression collection is empty at n = 60, so every such fit fails
        kwargs = dict(
            models=[1, 4], methods=("regression", "npmle"), n_list=(60,), reps=3, seed=5,
            config=BenchConfig(family=trig_family()),
        )
        serial = monte_carlo(**kwargs).to_delimited()
        assert serial.count("# failure") == 6
        assert monte_carlo(**kwargs, n_jobs=2).to_delimited() == serial

    def test_shared_sample_across_methods(self):
        # the estimator-independent truth: npmle via both cell seeds agrees
        report = monte_carlo([2], ("npmle", "birge"), (60,), reps=2, seed=21)
        sample = generate(SimModel(2), 60, replication_rng(21, 2, 60, 0))
        direct = truncated_mse(
            estimate_sample("npmle", sample), SimModel(2), sample
        )
        assert report.cell(2, 60, "npmle").values[0] == pytest.approx(direct, abs=0)


def _fingerprint(estimate, model, sample):
    """What a fit gives, as bytes: metadata, coefficients, grid values, truncated MSE."""
    metadata = {
        key: np.float64(value).tobytes() if isinstance(value, float) else value
        for key, value in estimate.metadata.items()
    }
    coeffs = getattr(estimate.evaluator, "coeffs", np.empty(0)).tobytes()
    grid = np.asarray(estimate(np.linspace(-0.25, 1.25, 301)), dtype=float).tobytes()
    mse = np.float64(truncated_mse(estimate, model, sample)).tobytes()
    return metadata, coeffs, grid, mse


def _direct_mse(estimate, model, sample):
    """The truncated MSE bytes of an estimate on the sample's points in [a, b].

    The estimate is evaluated by ``dense_values``, part by part from
    dense designs, not by the library's evaluation rule.
    """
    points = sample.u[(sample.u >= model.a) & (sample.u <= model.b)]
    errors = true_cdf(model, points) - dense_values(estimate, points)
    return np.float64((model.b - model.a) / points.size * np.sum(errors**2)).tobytes()


def _special_cell():
    """n = 200 samples with tied times, times outside [0, 1] and constant statuses inside."""
    rng = np.random.default_rng(8)
    u = np.round(rng.random(200), 2)
    tied = ObservationSample(u, (rng.random(200) < u).astype(float))
    u = 1.5 * rng.random(200)
    outside = ObservationSample(u, (rng.random(200) < u / 1.5).astype(float))
    u = rng.random(200)
    u[::9] += 1.0
    constant = ObservationSample(u, (u <= 1.0).astype(float))
    return [tied, generate(SimModel(3), 200, 1), constant, outside]


class TestStackedCell:
    """A chunk of replications is fitted by one stacked scan per method, and
    each replication must get bitwise what ``estimate_sample`` gives it alone:
    the same metadata, coefficient bytes, grid values and truncated MSE, for
    every chunk size."""

    FAMILIES = {
        "dyadic": dyadic_family(),
        "haar": haar_family(),
        "poly2": poly_family(2),
        "trig": trig_family(),
    }

    @staticmethod
    def candidates(samples, models, cap):
        """Every candidate's statistics of each sample, as bytes: the density
        scan's per-piece sums, or the regression's contrasts and pilot."""
        from curstat.projection import _stacked_moments
        from curstat.regression import _fit_collections

        stack = _SortedStack(samples)
        if cap == "density":
            levels = list(_stacked_moments(models, stack, [stack.delta, None]))
            return [
                [[s[i].tobytes() for s in sums] for _, sums in levels]
                for i in range(len(samples))
            ]
        contrasts, noise, _ = _fit_collections(stack, models)
        return [(row.tobytes(), pilot.tobytes()) for row, pilot in zip(contrasts, noise)]

    @classmethod
    def assert_stacked_matches_alone(cls, samples, model, config):
        import curstat.simulate as sim

        checked = 0
        for method in ("quotient", "regression"):
            cap = "density" if method == "quotient" else "regression"
            try:
                models = build_collection(config.family, samples[0].n, cap)
            except EmptyCollectionError:
                continue
            alone = [
                _fingerprint(estimate_sample(method, sample, config), model, sample)
                for sample in samples
            ]
            statistics = [cls.candidates([sample], models, cap)[0] for sample in samples]
            for size in (1, 3, len(samples)):
                stacked, stacked_statistics = [], []
                for first in range(0, len(samples), size):
                    chunk = samples[first : first + size]
                    stacked += sim._estimate_cell(method, _SortedStack(chunk), config)
                    stacked_statistics += cls.candidates(chunk, models, cap)
                got = [_fingerprint(e, model, s) for e, s in zip(stacked, samples)]
                assert got == alone, (method, size)
                assert stacked_statistics == statistics, (method, size)
                checked += 1
        return checked

    @pytest.mark.parametrize("family", list(FAMILIES), ids=list(FAMILIES))
    @pytest.mark.parametrize("n", [60, 200, 500, 1000])
    def test_every_replication_matches_its_own_fit(self, family, n):
        config = BenchConfig(family=self.FAMILIES[family])
        checked = 0
        for model_id in MODEL_IDS:
            model = SimModel(model_id)
            samples = [
                generate(model, n, replication_rng(20080317, model_id, n, rep))
                for rep in range(4)
            ]
            checked += self.assert_stacked_matches_alone(samples, model, config)
        assert checked >= len(MODEL_IDS) * (1 if family == "trig" and n < 1000 else 2) * 3

    @staticmethod
    def assert_rows_match_alone(monkeypatch, samples, model, config):
        """Every ``_chunk_task`` row, for chunks of 1, 3 and all samples, holds
        each method's ``truncated_mse(estimate_sample(...))`` bytes, or the
        message of the error that raises, for its sample alone."""
        import curstat.simulate as sim

        alone = []
        for rep, sample in enumerate(samples):
            row = []
            for method in METHODS:
                try:
                    estimate = estimate_sample(method, sample, config)
                    mse = np.float64(truncated_mse(estimate, model, sample)).tobytes()
                except Exception as exc:
                    row.append((np.float64(np.nan).tobytes(), f"rep {rep}: {exc}"))
                    continue
                assert mse == _direct_mse(estimate, model, sample), method
                row.append((mse, None))
            alone.append(row)
        # replication rep draws samples[rep], and the chunk reads each
        # window's truth from true_cdf at all of its sample's times
        truths = [true_cdf(model, sample.u) for sample in samples]
        monkeypatch.setattr(sim, "replication_rng", lambda seed, model_id, n, rep: rep)
        monkeypatch.setattr(sim, "_draw", lambda model, n, rep: (samples[rep], truths[rep]))
        for size in (1, 3, len(samples)):
            rows = []
            for first in range(0, len(samples), size):
                reps = range(first, min(first + size, len(samples)))
                rows += sim._chunk_task(METHODS, 0, config, (model, samples[0].n, reps))
            got = [[(np.float64(v).tobytes(), err) for v, err in row] for row in rows]
            assert got == alone, size
        monkeypatch.undo()
        return sum(err is None for row in alone for _, err in row)

    @pytest.mark.parametrize("family", list(FAMILIES), ids=list(FAMILIES))
    @pytest.mark.parametrize("n", [60, 1000])
    def test_chunk_rows_match_each_sample_scored_alone(self, family, n, monkeypatch):
        config = BenchConfig(family=self.FAMILIES[family])
        scored = 0
        for model_id in MODEL_IDS:
            model = SimModel(model_id)
            samples = [
                generate(model, n, replication_rng(20080317, model_id, n, rep))
                for rep in range(4)
            ]
            scored += self.assert_rows_match_alone(monkeypatch, samples, model, config)
        # only the trig regression collection is empty, below n = 1000
        assert scored == len(MODEL_IDS) * 4 * (3 if family == "trig" and n < 1000 else 4)

    @pytest.mark.parametrize("family", list(FAMILIES), ids=list(FAMILIES))
    def test_tied_outside_and_constant_rows_match(self, family, monkeypatch):
        config = BenchConfig(family=self.FAMILIES[family])
        for model_id in (1, 5):
            self.assert_rows_match_alone(monkeypatch, _special_cell(), SimModel(model_id), config)

    def test_clamped_regression_rows_match(self, monkeypatch):
        config = BenchConfig(clamp_regression=True)
        samples = _special_cell() + [generate(SimModel(4), 200, rep) for rep in range(3)]
        for model_id in (3, 4):
            self.assert_rows_match_alone(monkeypatch, samples, SimModel(model_id), config)

    def test_an_empty_window_stays_its_own_row(self, monkeypatch):
        import curstat.simulate as sim

        kwargs = dict(models=[5], methods=METHODS, n_list=(60,), reps=5, seed=6)
        expected = sim.monte_carlo(**kwargs)
        original = sim._draw
        drawn = []

        def draw_late(model, n, rng):
            sample, truth = original(model, n, rng)
            drawn.append(sample)
            if len(drawn) == 3:  # replication 2 examines only after 0.5
                sample = ObservationSample(0.75 + 0.25 * sample.u, sample.delta)
                return sample, true_cdf(model, sample.u)
            return sample, truth

        monkeypatch.setattr(sim, "_draw", draw_late)
        report = sim.monte_carlo(**kwargs)
        assert len(drawn) == 5  # one chunk
        for method in METHODS:
            cell, before = report.cell(5, 60, method), expected.cell(5, 60, method)
            assert cell.failures == ("rep 2: no evaluation points in [0.0, 0.5]",)
            assert math.isnan(cell.values[2])
            for rep in (0, 1, 3, 4):
                got, alone = np.float64([cell.values[rep], before.values[rep]])
                assert got.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("family", list(FAMILIES), ids=list(FAMILIES))
    def test_tied_outside_and_constant_samples_match(self, family):
        config = BenchConfig(family=self.FAMILIES[family])
        samples = _special_cell()
        inside = samples[2].delta[samples[2].u <= 1.0]
        assert inside.all() and not samples[2].delta.all()
        assert self.assert_stacked_matches_alone(samples, SimModel(1), config) >= 3

    def test_density_picks_match_their_own_scan(self):
        from curstat.projection import _select_models

        samples = _special_cell() + [generate(SimModel(2), 200, 20080317)]
        collection = build_collection(dyadic_family(), 200, "density")
        for sample, pair in zip(samples, _select_models(_SortedStack(samples), collection)):
            for got, alone in zip(pair, select_projection_model(sample, collection)):
                assert got.model == alone.model
                assert got.coeffs.tobytes() == alone.coeffs.tobytes()

    @pytest.mark.parametrize("method", METHODS)
    def test_samples_of_one_size_only(self, method):
        import curstat.simulate as sim

        samples = [generate(SimModel(1), n, replication_rng(5, 1, n, 0)) for n in (60, 61)]
        with pytest.raises(ValueError, match="must have one size"):
            sim._estimate_cell(method, _SortedStack(samples), BenchConfig())

    def test_a_failing_stack_is_refitted_one_sample_at_a_time(self, monkeypatch):
        import curstat.simulate as sim

        estimate_cell = sim._estimate_cell

        def failing_on_stacks(method, stack, config):
            if len(stack.samples) > 1:
                raise RuntimeError("stacked fit failed")
            if method == "regression" and stack.samples[0].delta.sum() % 2:
                raise ValueError("odd")
            return estimate_cell(method, stack, config)

        monkeypatch.setattr(sim, "_estimate_cell", failing_on_stacks)
        report = sim.monte_carlo([1], ("quotient", "regression"), (60,), reps=6, seed=4)
        monkeypatch.undo()
        expected = sim.monte_carlo([1], ("quotient", "regression"), (60,), reps=6, seed=4)
        assert report.cell(1, 60, "quotient") == expected.cell(1, 60, "quotient")
        failed = report.cell(1, 60, "regression")
        assert 0 < len(failed.failures) < 6
        for rep, value in enumerate(failed.values):
            message = f"rep {rep}: odd"
            assert (message in failed.failures) == math.isnan(value)
            if not math.isnan(value):
                assert value == expected.cell(1, 60, "regression").values[rep]


class TestSharedChunk:
    """A chunk pays each shared cost once for all four methods: one sort per
    sample, one evaluation of the finest dyadic basis and one ``true_cdf``
    per sample; its stacked Birgé histograms are each sample's own; and on
    the benchmark grids no chunk falls back to scoring one sample at a time."""

    @staticmethod
    def count_fallbacks(monkeypatch):
        import curstat.simulate as sim

        fallbacks, running, scored_column = [], [], sim._scored_column

        def counted(method, model, reps, *args):
            # a call inside another is a chunk run again sample by sample
            if running:
                fallbacks.append((method, model.id, *reps))
            running.append(method)
            try:
                return scored_column(method, model, reps, *args)
            finally:
                running.pop()

        monkeypatch.setattr(sim, "_scored_column", counted)
        return fallbacks

    @pytest.mark.parametrize("seed", [1, 20080317])
    def test_the_pool_grid_never_falls_back(self, monkeypatch, seed):
        # the grid of the mc-pool benchmark, serially; a stacked fit or
        # scoring that raises would be rescored sample by sample, bitwise
        # correct but unseen by the tests that compare rows
        fallbacks = self.count_fallbacks(monkeypatch)
        report = monte_carlo(MODEL_IDS, METHODS, (500, 1000), reps=20, seed=seed, n_jobs=1)
        assert fallbacks == []
        assert not any(cell.failures for cell in report.cells)

    def test_the_bench_grid_never_falls_back(self, monkeypatch, tmp_path, capsys):
        from curstat.cli import main

        fallbacks = self.count_fallbacks(monkeypatch)
        out = tmp_path / "bench"
        assert main(["bench", "--reps", "20", "--seed", "11", "--out", str(out)]) == 0
        capsys.readouterr()
        assert fallbacks == []
        assert "# failure" not in (tmp_path / "bench.csv").read_text()

    def test_one_sort_one_finest_basis_and_one_truth_per_chunk(self, monkeypatch):
        import curstat.simulate as sim
        from curstat import bases

        model, n, reps = SimModel(5), 1000, range(10)
        samples = [generate(model, n, replication_rng(1, model.id, n, rep)) for rep in reps]
        collection = build_collection(dyadic_family(), n, "density")
        assert collection == build_collection(dyadic_family(), n, "regression")
        finest = max(m.pieces for m in collection), max(m.degree for m in collection)
        time_order, legendre = ObservationSample.time_order, bases.piecewise_legendre
        truth = sim.true_cdf
        ordered, evaluated, truths = [], [], []

        def counted_order(sample):
            ordered.append(sample)
            return time_order(sample)

        def counted_legendre(pieces, degree, x):
            evaluated.append((pieces, degree))
            return legendre(pieces, degree, x)

        def counted_truth(model, u):
            truths.append(np.size(u))
            return truth(model, u)

        monkeypatch.setattr(ObservationSample, "time_order", counted_order)
        monkeypatch.setattr(bases, "piecewise_legendre", counted_legendre)
        monkeypatch.setattr(sim, "true_cdf", counted_truth)
        fallbacks = self.count_fallbacks(monkeypatch)
        rows = sim._chunk_task(METHODS, 1, BenchConfig(), (model, n, reps))
        monkeypatch.undo()
        assert fallbacks == [] and all(err is None for row in rows for _, err in row)
        assert ordered == samples
        assert evaluated.count(finest) == 1
        # generate's own true_cdf call, at every time, is the only one
        assert truths == [n] * len(samples)

    @staticmethod
    def birge_samples():
        """n = 60 samples with times at exactly 0.0 and 1.0, on bin edges,
        outside [0, 1], empty bins, and no point inside at all."""
        rng = np.random.default_rng(12)
        edges = np.concatenate([np.arange(11) / 10, np.arange(6) / 5, [0.0, 1.0, 1.0]])
        times = [
            generate(SimModel(4), 60, 4).u,  # outside [0, 1]
            np.concatenate([[0.0] * 3, [1.0] * 3, 0.3 * rng.random(54)]),
            np.concatenate([edges, [-0.5, 1.5], rng.random(60 - edges.size - 2)]),
            1.5 + rng.random(60),
            generate(SimModel(1), 60, 1).u,
        ]
        return [ObservationSample(u, (rng.random(60) < 0.5).astype(float)) for u in times]

    @pytest.mark.parametrize("bins", [1, 5, 10])
    def test_stacked_birge_is_each_histogram_alone(self, bins):
        import curstat.simulate as sim

        samples = self.birge_samples()
        config = BenchConfig(birge_bins=bins)
        alone = [estimate_sample("birge", sample, config) for sample in samples]
        assert all(type(est.evaluator).__name__ == "_BinnedCdf" for est in alone)
        # empty bins: sample 1 has no point in (0.3, 1), sample 3 none in [0, 1]
        assert not ((samples[1].u > 0.3) & (samples[1].u < 1.0)).any()
        assert not (samples[3].u <= 1.0).any()
        for size in (1, 3, len(samples)):
            got = []
            for first in range(0, len(samples), size):
                stack = _SortedStack(samples[first : first + size])
                got += sim._estimate_cell("birge", stack, config)
            for est, own in zip(got, alone, strict=True):
                assert est.method == own.method and est.metadata == own.metadata
                # one class, and knots and values bit for bit
                assert est.evaluator == own.evaluator, size


def run_fresh(script: str) -> None:
    """Run a script in a fresh interpreter that imports this curstat."""
    src = str(Path(curstat.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


class TestScipyImport:
    def test_cold_start_without_scipy(self):
        run_fresh(
            """
import os, sys, tempfile
import curstat as cs
import curstat.cli

sample = cs.generate(cs.SimModel(3), 300, 1)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "sample.csv")
    cs.write_sample(sample, path)
    sample = cs.read_sample(path)
for method in cs.METHODS:
    cs.truncated_mse(cs.estimate_sample(method, sample), cs.SimModel(3), sample)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
cs.true_cdf(cs.SimModel(2), 0.5)
assert "scipy.special" in sys.modules
"""
        )

    def test_pool_starts_with_scipy_loaded(self):
        # workers forked without it would each import scipy on their first task
        run_fresh(
            """
import sys
import curstat.simulate as sim

seen = []

class Recording(sim.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        seen.append("scipy.special" in sys.modules)
        super().__init__(*args, **kwargs)

sim.ProcessPoolExecutor = Recording
sim.monte_carlo([2], ("birge",), (60,), reps=2, seed=1, n_jobs=2)
assert seen == [True], seen
"""
        )
