"""Command-line front end.

Three subcommands: ``estimate`` fits one estimator to an observation
file and writes the fit on a uniform grid; ``simulate`` draws a sample
from a built-in model and estimates it; ``bench`` runs the Monte Carlo
benchmark grid and writes the MSE report.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical
failure. All numbers are printed with 17 significant digits so outputs
round-trip exactly.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bases import DYADIC, HAAR, POLY, TRIG, BasisFamily, EmptyCollectionError
from .data import SampleFormatError, read_sample, write_sample
from .simulate import (
    METHODS,
    MODEL_IDS,
    BenchConfig,
    SimModel,
    estimate_sample,
    generate,
    monte_carlo,
    replication_rng,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_in(low: int, high: float = float("inf")):
    """Argument type: an integer in ``[low, high]``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not low <= value <= high:
            bound = f"at least {low}" if value < low else f"at most {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """Argument type: a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _method(text: str) -> str:
    """Argument type: one estimation method name."""
    name = text.strip()
    if name not in METHODS:
        raise argparse.ArgumentTypeError(f"unknown method {name!r}")
    return name


def _list_of(item):
    """Argument type: a nonempty comma-separated list of distinct ``item`` values."""

    def parse(text: str) -> list:
        parts = [part.strip() for part in text.split(",")]
        if not any(parts):
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        if not all(parts):
            raise argparse.ArgumentTypeError(f"empty item in {text!r}")
        values = [item(part) for part in parts]
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"repeated item in {text!r}")
        return values

    return parse


_positive_int = _int_in(1)
_model_ids = _list_of(_int_in(min(MODEL_IDS), max(MODEL_IDS)))
_sizes = _list_of(_positive_int)
_methods = _list_of(_method)


def _add_estimator_flags(parser):
    parser.add_argument(
        "--family",
        choices=(TRIG, POLY, DYADIC, HAAR),
        default=DYADIC,
        help="basis family for quotient/regression",
    )
    parser.add_argument(
        "--kappa", type=_positive_float, default=4.0, help="density penalty constant"
    )
    parser.add_argument(
        "--kappa0", type=_positive_float, default=4.0, help="regression penalty constant"
    )
    parser.add_argument("--rmax", type=_int_in(0), default=9, help="largest polynomial degree")
    parser.add_argument(
        "--clamp", action="store_true", help="truncate regression output to [0, 1]"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="curstat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate a cdf from an observation file")
    est.add_argument("input", help="observation file, one 'u,delta' pair per line")
    est.add_argument("--method", choices=METHODS, default="regression", help="estimation method")
    _add_estimator_flags(est)
    est.add_argument("--grid", type=_positive_int, default=512, help="evaluation grid size")
    est.add_argument("--out", default=None, help="output file (default stdout)")

    sim = sub.add_parser("simulate", help="draw a sample from a built-in model")
    sim.add_argument("--model", type=int, choices=MODEL_IDS, required=True)
    sim.add_argument("--n", type=_positive_int, required=True, help="sample size")
    sim.add_argument("--seed", type=_int_in(0), default=0)
    sim.add_argument("--method", choices=METHODS, default="regression", help="estimation method")
    _add_estimator_flags(sim)
    sim.add_argument("--grid", type=_positive_int, default=512)
    sim.add_argument("--out", default="simulate", help="output file prefix")

    bench = sub.add_parser("bench", help="run the Monte Carlo benchmark")
    bench.add_argument(
        "--model", type=_model_ids, default=list(MODEL_IDS), help="comma-separated model ids"
    )
    bench.add_argument(
        "--n", type=_sizes, default=[60, 200, 500, 1000], help="comma-separated sizes"
    )
    bench.add_argument(
        "--method", type=_methods, default=list(METHODS), help="comma-separated methods"
    )
    bench.add_argument(
        "--reps",
        type=_positive_int,
        default=None,
        help="replications per cell (default: 500 up to n=200, 200 beyond)",
    )
    bench.add_argument("--seed", type=_int_in(0), default=0)
    bench.add_argument("--jobs", type=_positive_int, default=1, help="workers, one per CPU at most")
    _add_estimator_flags(bench)
    bench.add_argument("--bins", type=_positive_int, help="fixed histogram bin count")
    bench.add_argument("--out", default="bench", help="output file prefix")

    return parser


def _config_from_args(args) -> BenchConfig:
    return BenchConfig(
        kappa=args.kappa,
        kappa0=args.kappa0,
        clamp_regression=args.clamp,
        birge_bins=getattr(args, "bins", None),
        family=BasisFamily(args.family, args.rmax if args.family in (DYADIC, POLY) else 0),
    )


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_estimate_document(fh, estimate, n: int, grid: int) -> None:
    fh.write(f"# method: {estimate.method}\n")
    fh.write(f"# n: {n}\n")
    for key in sorted(estimate.metadata):
        fh.write(f"# {key}: {_format_value(estimate.metadata[key])}\n")
    fh.write("x,value\n")
    xs = np.linspace(0.0, 1.0, grid)
    values = np.asarray(estimate(xs), dtype=float)
    for x, v in zip(xs, values):
        fh.write(f"{x:.17g},{v:.17g}\n")


def _estimate(args, sample):
    if not np.any((sample.u >= 0.0) & (sample.u <= 1.0)):
        raise ValueError("no examination time in [0, 1], so every estimate would be 0")
    return estimate_sample(args.method, sample, _config_from_args(args))


def _cmd_estimate(args) -> int:
    sample = read_sample(args.input)
    estimate = _estimate(args, sample)
    if args.out is None:
        _write_estimate_document(sys.stdout, estimate, sample.n, args.grid)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_estimate_document(fh, estimate, sample.n, args.grid)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    model = SimModel(args.model)
    sample = generate(model, args.n, replication_rng(args.seed, model.id, args.n, 0))
    write_sample(sample, f"{args.out}.sample.csv")
    estimate = _estimate(args, sample)
    with open(f"{args.out}.estimate.csv", "w", encoding="utf-8") as fh:
        _write_estimate_document(fh, estimate, sample.n, args.grid)
    return EXIT_OK


def _cmd_bench(args) -> int:
    report = monte_carlo(
        models=args.model,
        methods=tuple(args.method),
        n_list=tuple(args.n),
        reps=args.reps,
        seed=args.seed,
        n_jobs=args.jobs,
        config=_config_from_args(args),
    )
    with open(f"{args.out}.csv", "w", encoding="utf-8") as fh:
        fh.write(report.to_delimited())
    table = report.to_table()
    with open(f"{args.out}.table.txt", "w", encoding="utf-8") as fh:
        fh.write(table)
    sys.stdout.write(table)
    return EXIT_OK


_COMMANDS = {"estimate": _cmd_estimate, "simulate": _cmd_simulate, "bench": _cmd_bench}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # before any fit, so a mistyped output path costs no run
        if not os.path.isdir(folder := os.path.dirname(args.out or "") or "."):
            raise FileNotFoundError(f"no such directory for --out: {folder!r}")
        return _COMMANDS[args.command](args)
    except (SampleFormatError, OSError) as exc:
        print(f"curstat: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (EmptyCollectionError, ValueError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"curstat: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
