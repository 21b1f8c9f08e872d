"""The one time order of a sample, and the guard that keeps it the only one."""

import ast
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings

from curstat import ObservationSample, SimModel, generate

from conftest import tied_samples

SRC = Path(__file__).resolve().parent.parent / "src" / "curstat"


@settings(max_examples=300, deadline=None, database=None)
@given(tied_samples())
@example(ObservationSample([-0.0, 1.0, 0.5, 1.0, -0.0, 0.0], [0, 0, 1, 1, 1, 0]))
@example(ObservationSample([np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0), 1.5], [1, 0, 1]))
@example(ObservationSample([-0.5, -0.5, 2.0], [0, 1, 1]))
def test_time_order_and_window(sample):
    # ascending time, status 1 first at a tied time, input order after that
    order = sample.time_order()
    assert np.array_equal(order, np.lexsort((-sample.delta, sample.u)))
    x, delta, index = sample.sorted_inside(sample.delta, np.arange(sample.n))
    inside = order[(sample.u[order] >= 0.0) & (sample.u[order] <= 1.0)]
    assert index.tolist() == inside.tolist()
    assert x.tobytes() == sample.u[inside].tobytes()
    assert delta.tobytes() == sample.delta[inside].tobytes()


def test_time_order_on_large_samples():
    # the unstable first sort and the integer tie key give the lexsort order
    n = 50_000
    rng = np.random.default_rng(19)
    untied = generate(SimModel(3), n, 1)
    zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    signed = np.where(rng.random(n) < 0.2, zeros, np.round(rng.random(n), 2))
    samples = [
        untied,
        generate(SimModel(4), n, 1),
        ObservationSample(np.round(untied.u, 3), untied.delta),
        ObservationSample(signed, (rng.random(n) < 0.5).astype(float)),
    ]
    assert np.unique(untied.u).size == n
    assert (samples[1].u > 1.0).any()
    assert np.unique(samples[2].u).size < n
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    for sample in samples:
        expected = np.lexsort((-sample.delta, sample.u))
        assert sample.time_order().tobytes() == expected.tobytes()


def test_only_the_sample_sorts():
    # every sorted route reads ObservationSample.time_order, so no other
    # module may decide a time order of its own
    sorts = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        if names & {"argsort", "lexsort"}:
            sorts[path.name] = sorted(names & {"argsort", "lexsort"})
    assert sorts == {"data.py": ["argsort"]}


def test_only_the_bases_branch_on_the_family():
    # both penalties take their family rule from bases.penalty_factors, so
    # no other module may read a family tag or the dyadic tags
    readers = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        if names & {"tag", "_DYADIC_TAGS"}:
            readers[path.name] = sorted(names & {"tag", "_DYADIC_TAGS"})
    assert readers == {"bases.py": ["tag"]}
