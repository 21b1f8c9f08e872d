"""The public surface: curstat's exported names and the functions the tracer wraps.

Both checks run in well under a second. A renamed or removed function that
``perfbench/tracer.py`` wraps fails here instead of inside the traced
benchmark run, and any change to the exported names shows up in this
file's diff.
"""

import importlib
import types
from pathlib import Path

import curstat

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

PUBLIC_NAMES = [
    "BasisFamily",
    "BasisModel",
    "BenchConfig",
    "CAP_DENSITY",
    "CAP_REGRESSION",
    "CdfEstimate",
    "DYADIC",
    "EmptyCollectionError",
    "HAAR",
    "LeastSquaresFit",
    "METHODS",
    "MODEL_IDS",
    "MseCell",
    "MseReport",
    "ObservationSample",
    "POLY",
    "ProjectionEstimate",
    "SampleFormatError",
    "SimModel",
    "StepCdf",
    "TRIG",
    "birge_histogram",
    "build_collection",
    "corrected_dim",
    "default_birge_bins",
    "default_reps",
    "density_penalty",
    "design_matrix",
    "dyadic_family",
    "dyadic_model",
    "empirical_coefficients",
    "estimate_sample",
    "fit_cdf_regression",
    "fit_least_squares",
    "fit_quotient_cdf",
    "generate",
    "haar_family",
    "haar_model",
    "monte_carlo",
    "npmle_maxmin",
    "npmle_pava",
    "phi0",
    "poly_family",
    "poly_model",
    "quotient_cdf",
    "read_sample",
    "regression_penalty",
    "replication_rng",
    "select_projection_model",
    "trig_family",
    "trig_model",
    "true_cdf",
    "truncated_mse",
    "write_sample",
]


def test_public_names_are_frozen():
    names = sorted(
        name
        for name, value in vars(curstat).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert len(PUBLIC_NAMES) == 54
    assert names == PUBLIC_NAMES


def test_tracer_targets_resolve():
    # compiled from the source text, so no bytecode cache is written under perfbench/
    tracer = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    assert tracer["TARGETS"]
    for module_name, attr, _ in tracer["TARGETS"]:
        module = importlib.import_module(module_name)
        if "." in attr:  # a method, looked up in the class's own namespace
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)
