"""A short traced fit-large run of the benchmark, so that a renamed or removed
public function that ``perfbench/tracer.py`` wraps fails here first.

The benchmark runs in a copy of ``perfbench/``, ``src/`` and
``BENCHMARK.json`` under a temporary directory, so its result and span files
stay out of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_fit_large_run_passes(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", "fit-large", "--seed", "1",
        "--seconds", "1", "--size", "tiny", "--trace", "1",
    ]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
