import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curstat
from curstat import (
    BenchConfig,
    CdfEstimate,
    ObservationSample,
    SimModel,
    default_birge_bins,
    default_reps,
    estimate_sample,
    generate,
    monte_carlo,
    replication_rng,
    true_cdf,
    truncated_mse,
)


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

    def test_replication_streams_differ(self):
        a = generate(SimModel(1), 20, replication_rng(0, 1, 20, 0))
        b = generate(SimModel(1), 20, replication_rng(0, 1, 20, 1))
        assert not np.array_equal(a.u, b.u)


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
        kwargs = dict(
            models=[1, 3], methods=("npmle", "regression"), n_list=(60, 200),
            reps=3, seed=17,
        )
        serial = monte_carlo(**kwargs, n_jobs=1)
        parallel = monte_carlo(**kwargs, n_jobs=3)
        assert serial.to_delimited() == parallel.to_delimited()

    def test_perfect_oracle_scores_zero_everywhere(self, monkeypatch):
        import curstat.simulate as sim

        def oracle(method, sample, config=None):
            model = oracle.current_model
            return CdfEstimate("oracle", lambda x: true_cdf(model, x))

        original = sim.generate

        def tracking_generate(model, n, rng):
            oracle.current_model = model
            return original(model, n, rng)

        monkeypatch.setattr(sim, "estimate_sample", oracle)
        monkeypatch.setattr(sim, "generate", tracking_generate)
        report = sim.monte_carlo([1, 4, 5], ("quotient",), (60, 200), reps=1, seed=2)
        for cell in report.cells:
            assert cell.mean == 0.0

    def test_failures_recorded_not_dropped(self, monkeypatch):
        import curstat.simulate as sim

        def broken(method, sample, config=None):
            raise ValueError("boom")

        monkeypatch.setattr(sim, "estimate_sample", broken)
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

    def test_shared_sample_across_methods(self):
        # the estimator-independent truth: npmle via both cell seeds agrees
        report = monte_carlo([2], ("npmle", "birge"), (60,), reps=2, seed=21)
        sample = generate(SimModel(2), 60, replication_rng(21, 2, 60, 0))
        direct = truncated_mse(
            estimate_sample("npmle", sample), SimModel(2), sample
        )
        assert report.cell(2, 60, "npmle").values[0] == pytest.approx(direct, abs=0)


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
