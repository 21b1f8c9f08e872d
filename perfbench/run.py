#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 20 --trace 0

The workload's inputs are made from ``--seed``; timed batches repeat
until ``--seconds`` have passed. With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, from
a traced run made after an untraced one. Lines before it give the same
numbers for people, with sample counts and the machine description.
The full result (and, when traced, every span) is written under
``perfbench/out/``. The exit code is 1 when an output check fails and
2 when the package source is missing.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("mc-small", "fit-large", "mc-pool")
SETUP_PROBES = 5
SETUP_KERNEL = "small"  # importing is interpreter work, like small fits


def prepare() -> None:
    """Make ``import curstat`` load the package source of this checkout."""
    if not (SRC / "curstat" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'curstat'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload, for the smoke test",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup(args):
    """Import the package and build the workload's inputs; returns (workload, s)."""
    start = perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny")
    return workload, perf_counter() - start


def probe_setup(args) -> tuple[float, float]:
    """Set-up time in a fresh process, as a user starting the program pays it,
    scaled by the calibration kernel timed in the same process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--size", args.size,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["kernel_s"]


class Timing:
    """Wall times of repeated batches, with the machine's speed around each step.

    A batch is a list of ``(style, step)`` pairs, ``style`` naming the
    calibration kernel that works like the step (see calibration.py). The
    kernel is timed right before and right after the step; the step's
    speed factor is the kernel's reference time over the mean of the two,
    and its scaled time is its wall time times that factor.
    """

    def __init__(self, fit_ms: dict):
        self.fit_ms = fit_ms  # raw per-method fit times the steps append to
        self.scaled_fit_ms = {m: [] for m in fit_ms}
        self.walls: list[float] = []
        self.scaled: list[float] = []
        self.kernels: dict[str, list[float]] = {}
        # Peak RSS of the children reaped while steps ran, when above that of
        # any reaped before: pool workers. The calibration helpers are reaped
        # after the last step and the set-up probes run after the timed work,
        # so neither counts here.
        self.children_kb = 0

    def run(self, batch_steps, seconds: float) -> "Timing":
        """Run batches at least once and until ``seconds`` have passed."""
        from calibration import Calibrator

        calibrators: dict = {}
        reaped_before_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        try:
            last = None  # (calibrator, kernel time) right after the previous step
            deadline = perf_counter() + seconds
            while not self.walls or perf_counter() < deadline:
                wall = scaled = 0.0
                for style, step in batch_steps():
                    if style not in calibrators:
                        calibrators[style] = Calibrator(*style)
                        calibrators[style].time()  # a warm-up: the first run pays for page faults
                    calibrator = calibrators[style]
                    before = last[1] if last and last[0] is calibrator else calibrator.time()
                    marks = {m: len(times) for m, times in self.fit_ms.items()}
                    start = perf_counter()
                    step()
                    elapsed = perf_counter() - start
                    after = calibrator.time()
                    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                    if children > reaped_before_kb:
                        self.children_kb = max(self.children_kb, children)
                    last = (calibrator, after)
                    self.kernels.setdefault(calibrator.label, []).append(after)
                    factor = calibrator.reference / ((before + after) / 2)
                    wall += elapsed
                    scaled += elapsed * factor
                    for m, times in self.fit_ms.items():
                        self.scaled_fit_ms[m] += [t * factor for t in times[marks[m]:]]
                self.walls.append(wall)
                self.scaled.append(scaled)
        finally:
            for calibrator in calibrators.values():
                calibrator.close()
        return self


def tail(values) -> str:
    """The highest of p99 and p90 with at least ten samples beyond it."""
    ordered = sorted(values)
    for q in (0.99, 0.9):
        idx = int(q * len(ordered))
        if len(ordered) - idx - 1 >= 10:
            return f"p{round(q * 100)} {ordered[idx]:.4g} ms"
    return f"max {ordered[-1]:.4g} ms"


def peak_rss(timing: Timing) -> tuple[float, str]:
    """Peak RSS (MB) of this process plus its largest pool worker (none
    outside mc-pool), and a note on the two parts. The set-up probes and
    calibration helpers only measure, so they are not counted."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = timing.children_kb
    note = (
        f"peak_rss_mb: self {own / 1024:.4g} MB + largest pool worker {workers / 1024:.4g} MB"
        " (set-up probes and calibration helpers not counted)"
    )
    return (own + workers) / 1024.0, note


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_version(module) -> str | None:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError, AttributeError):
        return None


def _commit() -> str | None:
    """HEAD of the checkout's git directory, read from files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "curstat").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy
    import platform
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(numpy),
        "scipy_openblas": _blas_version(scipy),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(workload, probes, timing, fit_timing, tally) -> tuple[dict, dict, list[str]]:
    """Scaled end-to-end metrics, the raw medians of the timed ones, and notes."""
    from calibration import REFERENCE_S

    setups = [setup_s * REFERENCE_S[SETUP_KERNEL] / kernel for setup_s, kernel in probes]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(timing.scaled), "s"),
    }
    raw = {
        "setup_s": statistics.median(p[0] for p in probes),
        "wall_s": statistics.median(timing.walls),
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh-process set-ups (raw median {raw['setup_s']:.4g} s)",
        f"wall_s: median of {len(timing.walls)} batches of {workload.fits_per_batch()} fits"
        f" (raw median {raw['wall_s']:.4g} s)",
    ] + [
        f"calibration kernel {label}: median {statistics.median(times) * 1e3:.4g} ms"
        f" over {len(times)} timings, reference {REFERENCE_S[label.split()[0]] * 1e3:.4g} ms"
        for label, times in (timing.kernels | fit_timing.kernels).items()
    ]
    for method, times in fit_timing.scaled_fit_ms.items():
        name = f"fit_ms.p50.{method}"
        metrics[name] = (statistics.median(times), "ms")
        raw[name] = statistics.median(workload.fit_ms[method])
        notes.append(f"{name}: {len(times)} fits; {tail(times)}; raw p50 {raw[name]:.4g} ms")
    rss_mb, rss_note = peak_rss(timing)
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    notes.append(rss_note)
    failed_share = tally.failed / tally.attempted
    metrics["ok_share"] = (1.0 - failed_share, "share")
    notes.append(f"failed_share: {failed_share:.6g} ({tally.failed} of {tally.attempted} fits)")
    return metrics, raw, notes


def traced_run(workload, args, timing) -> tuple[dict, dict, list[str]]:
    """Run the workload's traced unit under the tracer; returns per-layer
    metrics, no raw medians (per-layer times are raw already) and notes."""
    from tracer import Tracer

    pool = args.workload == "mc-pool"
    untraced = [workload.replay_s] if pool else timing.walls
    tracer = Tracer()
    with tracer:
        traced = Timing(workload.fit_ms).run(workload.traced_steps, args.seconds / 2).walls
    metrics = tracer.layer_metrics()
    pool_wall = statistics.median(timing.walls) if pool else 0.0
    metrics["simulate.pool.wall_s"] = (pool_wall, "s")
    metrics["simulate.pool.speedup"] = (workload.replay_s / pool_wall if pool else 0.0, "ratio")
    metrics["simulate.pool.overhead_s"] = (
        pool_wall - workload.replay_s / workload.JOBS if pool else 0.0, "s"
    )
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    metrics["trace.coverage"] = (tracer.top_level_s() / sum(traced), "share")
    notes = [
        f"traced {len(traced)} units after {len(untraced)} untraced;"
        f" {len(tracer.names)} spans written",
    ]
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    return metrics, {}, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare()
    if args.setup_probe:
        workload, setup_s = setup(args)
        workload.close()
        from calibration import kernel_s

        kernel = statistics.median(kernel_s(SETUP_KERNEL) for _ in range(3))
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel}))
        return 0

    workload, inproc_setup_s = setup(args)
    from workloads import Tally

    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        fit_share = 0 if args.trace or workload.fit_steps is None else workload.fit_share
        timing = Timing(workload.fit_ms).run(workload.batch_steps, seconds * (1 - fit_share))
        fit_timing = timing
        if fit_share:
            fit_timing = Timing(workload.fit_ms).run(workload.fit_steps, seconds * fit_share)
        workload.finish()
        traced = traced_run(workload, args, timing) if args.trace else None
        tally = Tally()
        workload.check(tally)
        # After the timed work, so that no probe is among the children it counts.
        probes = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics, raw, notes = traced or end_to_end(workload, probes, timing, fit_timing, tally)
    finally:
        workload.close()

    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# in-process set-up {inproc_setup_s:.4f} s; {len(timing.walls)} timed batches")
    for note in notes:
        print("# " + note)
    if raw:
        print("# raw " + json.dumps(raw))
    for problem in tally.problems:
        print("# FAILED " + problem)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name.ljust(width)}  {value:.6g} {unit}")

    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(
        result, env=env, notes=notes, problems=tally.problems, raw_medians=raw,
        batch_walls=timing.walls, scaled_batch_walls=timing.scaled, kernels=timing.kernels,
    )
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
