"""The one time order of a sample, and the guard that keeps it the only one."""

import ast
import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

from curstat import ObservationSample, SimModel, generate, read_sample, write_sample
from curstat.data import _SortedStack

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
    stack = _SortedStack([sample])
    x, delta, index = stack.x, stack.delta, stack.windows[0]
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


def test_equality_reads_the_bits():
    # == on equal but distinct arrays once raised "the truth value of an
    # array is ambiguous"
    u, delta = [0.25, 0.5, 0.75], [1.0, 0.0, 1.0]
    sample = ObservationSample(np.array(u), np.array(delta))
    same = ObservationSample(np.array(u), np.array(delta))
    assert sample.u is not same.u
    assert sample == same and not sample != same
    bit = np.array(u)
    bit.view(np.int64)[2] ^= 1
    assert sample != ObservationSample(bit, delta) and ObservationSample(bit, delta) != sample
    assert sample != ObservationSample(u, [1.0, 0.0, 0.0])
    assert sample != ObservationSample(u[:2], delta[:2])
    # -0.0 is stored as 0.0, so the two zeros are one time
    assert ObservationSample([-0.0, 0.5], [1, 0]) == ObservationSample([0.0, 0.5], [1, 0])
    with pytest.raises(TypeError, match="unhashable"):
        hash(sample)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sample.u = bit
    assert pickle.loads(pickle.dumps(sample)) == sample


def test_write_sample_writes_the_bytes_of_one_row_at_a_time(tmp_path):
    # tiny, huge and integral times, a subnormal and 0, with both statuses
    times = [0.0, 5e-324, 1e-300, 1.0, 2.0, 3e17, 1e300, np.finfo(float).max, 0.1, 2.0 / 3.0]
    special = ObservationSample(times, [i % 2 for i in range(len(times))])
    drawn = generate(SimModel(4), 1000, 3)
    for sample in (special, drawn):
        path = tmp_path / "sample.csv"
        write_sample(sample, path)
        rows = ["u,delta\n"] + [f"{u:.17g},{int(d)}\n" for u, d in zip(sample.u, sample.delta)]
        assert path.read_bytes() == "".join(rows).encode("utf-8")
        assert read_sample(path) == sample


def test_signed_zero_status_round_trips(tmp_path):
    # a file writes -0.0 as 0, so the sample stores it as 0.0
    path = tmp_path / "sample.csv"
    delta = np.array([-0.0, 1.0])
    sample = ObservationSample([0.5, 0.7], delta)
    write_sample(sample, path)
    assert read_sample(path) == sample == ObservationSample([0.5, 0.7], [0.0, 1.0])
    assert not np.signbit(sample.delta).any()
    # the caller's array is left as it was, and copied only when it holds a -0.0
    assert np.signbit(delta[0]) and sample.delta is not delta
    u, unsigned = np.array([0.5, 0.7]), np.array([0.0, 1.0])
    kept = ObservationSample(u, unsigned)
    assert kept.u is u and kept.delta is unsigned


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


class Calls(ast.NodeVisitor):
    """The ``(function, name)`` pairs of a module's calls and imported names.

    A call is named by its attribute or, for a bare name, by that name.
    """

    def __init__(self):
        self.scope, self.found = ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ImportFrom(self, node):
        self.found.update((self.scope[-1], alias.name) for alias in node.names)

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        self.found.add((self.scope[-1], name))
        self.generic_visit(node)


def calls_named(names) -> set:
    """Every ``(file, function, name)`` in ``src/curstat`` that calls or imports one of ``names``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        calls = Calls()
        calls.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update((path.name, scope, name) for scope, name in calls.found if name in names)
    return found


def test_one_factorization_route():
    # the regression scores every model from the triangular factors of
    # bases.piece_factors, so no module may factor a Gram matrix, and one
    # helper takes every QR
    assert calls_named({"eigvalsh", "cholesky", "qr"}) == {("bases.py", "_r_factor", "qr")}


def test_one_evaluation_rule():
    # every estimate with parts is evaluated by estimates._evaluate_each, a
    # direct call as a Monte Carlo chunk, so no other function builds a
    # design matrix; the package re-exports it for users
    assert calls_named({"design_matrix"}) == {
        ("__init__.py", "<module>", "design_matrix"),
        ("estimates.py", "<module>", "design_matrix"),
        ("estimates.py", "_evaluate_each", "design_matrix"),
    }
