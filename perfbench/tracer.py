"""Span tracer that wraps curstat's public functions from outside the package.

Installing a ``Tracer`` replaces each target function with a wrapper that
records one span per call: name, start, end, parent span and an optional
tag. The replacement is made in every loaded ``curstat`` module that
holds the function, so names re-bound by ``from .bases import
design_matrix`` and the like are traced too. Spans stay in memory until
``write_spans``; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, attribute, span name); an attribute "Class.method" wraps a method.
TARGETS = (
    ("curstat.data", "read_sample", "data.read_sample"),
    ("curstat.data", "ObservationSample.__init__", "data.sample_init"),
    ("curstat.bases", "build_collection", "bases.build_collection"),
    ("curstat.bases", "design_matrix", "bases.design_matrix"),
    ("curstat.projection", "select_projection_model", "projection.select"),
    ("curstat.projection", "empirical_coefficients", "projection.empirical_coefficients"),
    ("curstat.quotient", "fit_quotient_cdf", "quotient.fit"),
    ("curstat.regression", "fit_cdf_regression", "regression.fit"),
    ("curstat.regression", "fit_least_squares", "regression.fit_least_squares"),
    ("curstat.regression", "estimate_noise_variance", "regression.noise_pilot"),
    ("curstat.isotonic", "npmle_pava", "isotonic.npmle_pava"),
    ("curstat.isotonic", "birge_histogram", "isotonic.birge_histogram"),
    ("curstat.estimates", "CdfEstimate.__call__", "estimates.eval"),
    ("curstat.simulate", "generate", "simulate.generate"),
    ("curstat.simulate", "truncated_mse", "simulate.truncated_mse"),
    ("curstat.simulate", "true_cdf", "simulate.true_cdf"),
    ("curstat.simulate", "estimate_sample", "simulate.estimate_sample"),
    ("curstat.simulate", "monte_carlo", "simulate.monte_carlo"),
)

FIT = "simulate.estimate_sample"


def _fit_tag(args, kwargs, result):
    method = args[0] if args else kwargs["method"]
    sample = args[1] if len(args) > 1 else kwargs["sample"]
    return (method, sample.n)


def _matrix_counts(args, kwargs, result):
    return {"cells": result.size, "bytes_computed": result.nbytes}


def _eval_counts(args, kwargs, result):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["x"]))}


TAGS = {FIT: _fit_tag}
COUNTERS = {"bases.design_matrix": _matrix_counts, "estimates.eval": _eval_counts}


class Tracer:
    """Records spans around calls into curstat while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.tags: list = []
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._patches: list = []

    def _wrap(self, name, fn):
        names, parents, starts, ends, tags = (
            self.names, self.parents, self.starts, self.ends, self.tags
        )
        stack, counters = self._stack, self.counters
        tag_of, count_of = TAGS.get(name), COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            tags.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if tag_of is not None:
                tags[idx] = tag_of(args, kwargs, result)
            if count_of is not None:
                for key, amount in count_of(args, kwargs, result).items():
                    key = f"{name}.{key}"
                    counters[key] = counters.get(key, 0) + amount
            return result

        return traced

    def install(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "curstat" or key.startswith("curstat."))
        ]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def durations_ns(self) -> np.ndarray:
        return np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)

    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        dur = self.durations_ns()
        parents = np.asarray(self.parents, dtype=np.int64)
        child_time = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], dur[has_parent])
        return dur - child_time

    def count_within(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that ran inside an ``ancestor`` span."""
        count = 0
        for i, span_name in enumerate(self.names):
            if span_name != name:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            count += p >= 0
        return count

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of BENCHMARK.json that spans give."""
        names = np.asarray(self.names, dtype=object)
        dur = self.durations_ns()
        own = self.self_ns()

        def calls(name):
            return int(np.count_nonzero(names == name))

        def self_s(name):
            return float(own[names == name].sum()) / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        fits = [t[0] for n, t in zip(self.names, self.tags) if n == FIT and t is not None]
        basis_fits = sum(m in ("quotient", "regression") for m in fits)
        c = self.counters
        return {
            "data.read_sample.s": (float(dur[names == "data.read_sample"].sum()) / 1e9, "s"),
            "data.sample_init.calls": (calls("data.sample_init"), "count"),
            "data.sample_init.self_s": (self_s("data.sample_init"), "s"),
            "bases.build_collection.calls": (calls("bases.build_collection"), "count"),
            "bases.build_collection.self_s": (self_s("bases.build_collection"), "s"),
            "bases.design_matrix.calls": (calls("bases.design_matrix"), "count"),
            "bases.design_matrix.self_s": (self_s("bases.design_matrix"), "s"),
            "bases.design_matrix.cells": (c.get("bases.design_matrix.cells", 0), "count"),
            "bases.design_matrix.bytes_computed": (
                c.get("bases.design_matrix.bytes_computed", 0), "bytes"
            ),
            "bases.design_matrix.calls_per_fit": (
                ratio(self.count_within("bases.design_matrix", FIT), basis_fits), "ratio"
            ),
            "projection.select.self_s": (self_s("projection.select"), "s"),
            "projection.empirical_coefficients.self_s": (
                self_s("projection.empirical_coefficients"), "s"
            ),
            "projection.candidates_per_select": (
                ratio(
                    self.count_within("projection.empirical_coefficients", "projection.select"),
                    calls("projection.select"),
                ),
                "ratio",
            ),
            "quotient.fit.self_s": (self_s("quotient.fit"), "s"),
            "regression.fit_least_squares.calls": (calls("regression.fit_least_squares"), "count"),
            "regression.fit_least_squares.self_s": (self_s("regression.fit_least_squares"), "s"),
            "regression.fits_per_estimate": (
                ratio(calls("regression.fit_least_squares"), calls("regression.fit")), "ratio"
            ),
            "regression.noise_pilot.self_s": (self_s("regression.noise_pilot"), "s"),
            "isotonic.npmle_pava.self_s": (self_s("isotonic.npmle_pava"), "s"),
            "isotonic.birge_histogram.self_s": (self_s("isotonic.birge_histogram"), "s"),
            "estimates.eval.calls": (calls("estimates.eval"), "count"),
            "estimates.eval.points": (c.get("estimates.eval.points", 0), "count"),
            "estimates.eval.self_s": (self_s("estimates.eval"), "s"),
            "simulate.generate.self_s": (self_s("simulate.generate"), "s"),
            "simulate.truncated_mse.self_s": (self_s("simulate.truncated_mse"), "s"),
            "simulate.true_cdf.self_s": (self_s("simulate.true_cdf"), "s"),
        }

    def top_level_s(self) -> float:
        """Total duration of spans that have no parent span."""
        roots = np.asarray(self.parents) < 0
        return float(self.durations_ns()[roots].sum()) / 1e9

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns,tag\n")
            for i, (name, parent, start, end, tag) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends, self.tags)
            ):
                label = "" if tag is None else "/".join(map(str, tag))
                fh.write(f"{i},{parent},{name},{start},{end},{label}\n")
