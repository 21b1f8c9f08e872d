"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The Monte Carlo
criteria share one benchmark run (module-scoped fixture); the whole
module takes a few minutes.
"""

import itertools
import math

import numpy as np
import pytest

import curstat as cs
from curstat.bases import model_sort_key
from dense_oracle import dense_contrast
from quadrature import gram_matrix, quadrature_rule

SEED = 20260809


def report(number, detail):
    print(f"ACCEPTANCE CRITERION {number}: PASS - {detail}")


# -- criterion 1 -------------------------------------------------------------


def batch_brute_maxmin(patterns):
    """Max-min values for every row of a 0/1 pattern matrix, by double loop."""
    b, n = patterns.shape
    csum = np.concatenate([np.zeros((b, 1)), np.cumsum(patterns, axis=1)], axis=1)
    num = csum[:, None, 1:] - csum[:, :-1, None]  # (b, j, k)
    length = np.arange(n)[None, :] - np.arange(n)[:, None] + 1.0
    means = np.where(length > 0, num / np.where(length > 0, length, 1.0), np.inf)
    suffix_min = np.minimum.accumulate(means[:, :, ::-1], axis=2)[:, :, ::-1]
    prefix_max = np.maximum.accumulate(suffix_min, axis=1)
    return np.diagonal(prefix_max, axis1=1, axis2=2)


def test_criterion_1_npmle_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    checked = 0
    for n in range(1, 11):
        patterns = np.array(
            [[(code >> i) & 1 for i in range(n)] for code in range(2**n)],
            dtype=float,
        )
        powers = 2 ** np.arange(n)
        brute_by_code = batch_brute_maxmin(patterns)
        for _ in range(100):
            u = rng.random(n)
            while np.unique(u).size < n:
                u = rng.random(n)
            order = np.argsort(u, kind="stable")
            sorted_codes = (patterns[:, order] @ powers).astype(int)
            for code in range(2**n):
                sample = cs.ObservationSample(u, patterns[code])
                expected = brute_by_code[sorted_codes[code]]
                assert np.array_equal(cs.npmle_maxmin(sample).values, expected)
                assert np.array_equal(cs.npmle_pava(sample).values, expected)
                checked += 1
    report(1, f"max-min = PAVA = brute force on {checked} samples, exact equality")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_histogram_cross_check():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        u = rng.random(n)
        if rng.random() < 0.2:  # include points beyond the unit interval
            u = np.where(rng.random(n) < 0.3, 1.0 + rng.random(n), u)
        delta = (rng.random(n) < rng.random()).astype(float)
        sample = cs.ObservationSample(u, delta)
        n_bins = int(rng.integers(1, 17))
        fit = cs.fit_least_squares(sample, cs.poly_model(n_bins, 0))
        step = cs.birge_histogram(sample, n_bins)
        centers = (np.arange(n_bins) + 0.5) / n_bins
        worst = max(worst, float(np.max(np.abs(fit(centers) - step(centers)))))
    assert worst < 1e-10
    report(2, f"1000 samples, bins 1..16: max |lsq - histogram| = {worst:.2e} < 1e-10")


# -- criterion 3 -------------------------------------------------------------


def certification_models(max_dim=64):
    models = [cs.trig_model(m) for m in range(1, (max_dim - 1) // 2 + 1)]
    models += [
        cs.poly_model(pieces, r)
        for r in range(10)
        for pieces in range(1, max_dim // (r + 1) + 1)
    ]
    models += [
        cs.dyadic_model(p, r)
        for r in range(10)
        for p in range(7)
        if 2**p * (r + 1) <= max_dim
    ]
    models += [cs.haar_model(p) for p in range(7)]
    return models


def test_criterion_3_basis_certification():
    grid = np.linspace(0.0, 1.0, 10_000)
    models = certification_models()
    worst_gram = 0.0
    worst_ratio = 0.0
    for model in models:
        gram = gram_matrix(model, min_nodes=2048)
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(model.dim)))))
        total = (cs.design_matrix(model, grid) ** 2).sum(axis=1)
        bound = cs.phi0(model) ** 2 * model.dim * (1 + 1e-10)
        worst_ratio = max(worst_ratio, float(total.max()) / bound)
        assert total.max() <= bound
    assert worst_gram < 1e-8
    report(
        3,
        f"{len(models)} models, dim <= 64: Gram residual {worst_gram:.2e} < 1e-8, "
        f"norm-connection ratio <= {worst_ratio:.6f}",
    )


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_contrast_identity():
    rng = np.random.default_rng(SEED + 2)
    families = [
        lambda: cs.trig_model(int(rng.integers(1, 8))),
        lambda: cs.haar_model(int(rng.integers(0, 5))),
        lambda: cs.dyadic_model(int(rng.integers(0, 4)), int(rng.integers(0, 6))),
        lambda: cs.poly_model(int(rng.integers(1, 7)), int(rng.integers(0, 4))),
    ]
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 300))
        u = rng.random(n)
        delta = (rng.random(n) < rng.random()).astype(float)
        sample = cs.ObservationSample(u, delta)
        model = families[int(rng.integers(len(families)))]()
        coeffs = cs.empirical_coefficients(sample, model, sample.delta)
        gap = abs(dense_contrast(sample, model, coeffs, sample.delta) + coeffs @ coeffs)
        worst = max(worst, gap)
    assert worst < 1e-10
    report(4, f"500 random samples/models: |contrast + sum(coef^2)| <= {worst:.2e}")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_projection_risk_bound():
    model1 = cs.SimModel(1)
    n, reps = 500, 200
    details = []
    for level in (2, 3, 4):
        basis = cs.haar_model(level)
        dim = basis.dim
        nodes, weights = quadrature_rule(np.linspace(0, 1, dim + 1), 2048)
        design = cs.design_matrix(basis, nodes)
        losses = np.empty(reps)
        for rep in range(reps):
            sample = cs.generate(model1, n, cs.replication_rng(SEED + 3, 1, n, rep))
            coeffs = cs.empirical_coefficients(sample, basis, sample.delta)
            losses[rep] = weights @ (design @ coeffs - nodes) ** 2
        # analytic pieces for the uniform model: the sub-density is x, its
        # projection error on a D-bin histogram is 1/(12 D^2), its mass 1/2
        bias = 1.0 / (12.0 * dim**2)
        bound = bias + cs.phi0(basis) ** 2 * dim / n * 0.5
        mc_mean = losses.mean()
        mc_se = losses.std(ddof=1) / math.sqrt(reps)
        assert mc_mean <= bound + 3.0 * mc_se
        details.append(f"D={dim}: {mc_mean:.5f} <= {bound:.5f} + 3x{mc_se:.5f}")
    report(5, "; ".join(details))


# -- criteria 6, 7 (shared benchmark run) ------------------------------------


@pytest.fixture(scope="module")
def bench_report():
    import os

    jobs = min(4, os.cpu_count() or 1)
    return cs.monte_carlo(
        models=(1, 2, 3, 4, 5),
        methods=cs.METHODS,
        n_list=(60, 500, 1000),
        reps=100,
        seed=SEED,
        n_jobs=jobs,
    )


def test_criterion_6_table_reproduction(bench_report):
    targets = [
        (1, 500, "regression", 0.05e-2),
        (1, 1000, "npmle", 0.24e-2),
        (3, 1000, "regression", 0.03e-2),
    ]
    details = []
    for mid, n, method, reference in targets:
        mean = bench_report.cell(mid, n, method).mean
        assert 0.5 * reference <= mean <= 2.0 * reference, (mid, n, method, mean)
        details.append(f"model {mid} {method} n={n}: {mean:.2e} vs {reference:.2e}")
    report(6, "; ".join(details))


def test_criterion_7_monotone_improvement(bench_report):
    for mid, method in itertools.product((1, 2, 3, 4, 5), cs.METHODS):
        small = bench_report.cell(mid, 60, method).mean
        large = bench_report.cell(mid, 1000, method).mean
        assert large < small, (mid, method, small, large)
    report(7, "mean MSE at n=1000 < n=60 for all 5 models x 4 methods")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_range_and_monotonicity():
    rng = np.random.default_rng(SEED + 4)
    grid = np.linspace(0.0, 1.0, 512)
    families = (cs.dyadic_family(9), cs.haar_family(), cs.trig_family())
    for _ in range(1000):
        n = int(rng.integers(50, 251))
        u = rng.random(n)
        if rng.random() < 0.2:
            u = np.where(rng.random(n) < 0.2, 1.0 + rng.random(n), u)
        delta = (rng.random(n) < np.clip(u, 0, 1) ** rng.uniform(0.5, 2)).astype(float)
        sample = cs.ObservationSample(u, delta)
        quotient = cs.fit_quotient_cdf(sample, families[int(rng.integers(3))])
        q_values = quotient(grid)
        assert np.all(q_values >= 0.0) and np.all(q_values <= 1.0)
        step = cs.npmle_pava(sample)
        s_values = step(grid)
        assert np.all(s_values >= 0.0) and np.all(s_values <= 1.0)
        assert np.all(np.diff(step.values) >= 0)
    report(8, "1000 random fits: quotient and NPMLE within [0, 1], NPMLE monotone")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_benchmark_determinism():
    kwargs = dict(
        models=(1, 4),
        methods=cs.METHODS,
        n_list=(60, 200),
        reps=3,
        seed=SEED + 5,
    )
    first = cs.monte_carlo(**kwargs, n_jobs=1).to_delimited()
    second = cs.monte_carlo(**kwargs, n_jobs=1).to_delimited()
    parallel2 = cs.monte_carlo(**kwargs, n_jobs=2).to_delimited()
    parallel4 = cs.monte_carlo(**kwargs, n_jobs=4).to_delimited()
    assert first == second == parallel2 == parallel4
    report(9, "bench report byte-identical across reruns and 1/2/4 workers")
