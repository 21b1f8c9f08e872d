#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--out FILE]

Runs ``run.py --trace 0`` for ``run_seconds`` of BENCHMARK.json once per
workload and seed, one run at a time, and prints for every end-to-end
metric the median of the runs, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound in BENCHMARK.json, and the median
of the raw (unscaled) values where the metric is a scaled time. ``--out``
also writes all of it, every run's values, scaled and raw, and the
machine description as JSON; ``baseline.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PER_RUN = ("workload", "seed", "seconds", "trace", "size")  # not machine facts


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}{proc.stdout}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("# env "))[6:])
    raw = json.loads(next(line for line in lines if line.startswith("# raw "))[6:])
    return json.loads(lines[-1]), raw, env


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seeds": args.seeds, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, raws = [], []
        for seed in args.seeds:
            result, raw, env = run_once(workload, seed, seconds)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: output checks failed")
            runs.append(result["metrics"])
            raws.append(raw)
            report["env"] = {k: v for k, v in env.items() if k not in PER_RUN}
            print(f"{workload} seed {seed} done", file=sys.stderr)
        metrics = {}
        print(f"\n{workload}: {len(runs)} runs")
        print(
            f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
            f" {'raw median':>12}"
        )
        for name, bound in bounds.items():
            summary = summarise([run[name]["value"] for run in runs])
            summary["unit"] = runs[0][name]["unit"]
            raw_text = ""
            if name in raws[0]:
                summary["raw"] = summarise([raw[name] for raw in raws])
                raw_text = f" {summary['raw']['median']:12.6g}"
            metrics[name] = summary
            flag = "" if summary["spread"] < bound / 3 else "  <-- over a third of the bound"
            print(
                f"  {name:24} {summary['median']:12.6g} {summary['q1']:12.6g}"
                f" {summary['q3']:12.6g} {summary['spread']:8.4f} {bound:6.3f}{raw_text}{flag}"
            )
        report["workloads"][workload] = metrics
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
