"""Calibration kernels for timing on a machine whose speed changes under load.

On a shared host the same work can take twice as long from one second to
the next, and interpreter-bound code (many small calls, Python loops)
slows more than code that streams through large arrays. Each kernel is a
fixed computation in one of these two styles that uses numpy and the
interpreter but no curstat code, so no change to the package moves its
time:

* ``small``: 200-point arrays, a Legendre design, a tiny least-squares
  solve, a histogram and a pool-adjacent-violators style Python loop,
  like the fits at small n, file parsing and the PAVA loop;
* ``large``: a 50 000 x 32 piecewise design matrix and its Gram matrix,
  like the other fits at large n.

Each step of work names its style: a kernel and how many processes run
it at the same moment (two for work spread over two pool workers).
Timed right before and after the step, the kernel tells how fast the
machine ran meanwhile; the benchmark scales the step's time by the
kernel's reference time over its mean time around the step. The
reference times are the kernels' median times in a quiet phase of the
2-core Xeon the baseline was recorded on, so scaled times read as
seconds there.

A step's style is fixed in the workload code. A change that moves a
step's work from one style to the other (a Python loop to compiled code,
small arrays to large) is therefore mis-scaled on a loaded machine, so
the raw, unscaled medians are kept beside the scaled ones.
"""

import multiprocessing
import statistics
from time import perf_counter

import numpy as np
from numpy.polynomial.legendre import legvander


def small() -> float:
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(200):
        x = rng.random(200)
        v = legvander(2.0 * x - 1.0, 5)
        coeffs = np.linalg.lstsq(v.T @ v / 200, v.T @ x / 200, rcond=1e-10)[0]
        acc += float(coeffs[0]) + sorted(x.tolist())[100]
        bins = np.minimum((x * 8).astype(int), 7)
        acc += float(np.bincount(bins, weights=x, minlength=8)[0])
        sums: list[int] = []
        counts: list[int] = []
        for bit in (x < 0.5).astype(int):
            sums.append(int(bit))
            counts.append(1)
            while len(sums) > 1 and sums[-2] * counts[-1] >= sums[-1] * counts[-2]:
                s, c = sums.pop(), counts.pop()
                sums[-1] += s
                counts[-1] += c
        acc += len(sums)
    return acc


def large() -> float:
    x = np.random.default_rng(12345).random(50000)
    pieces = np.minimum((x * 4).astype(int), 3)
    cols = np.arange(8)[None, :] * 4 + pieces[:, None]
    rows = np.arange(x.size)[:, None]
    acc = 0.0
    for _ in range(3):
        design = np.zeros((x.size, 32))
        design[rows, cols] = legvander(8.0 * x - 2.0 * pieces - 1.0, 7)
        acc += float((design.T @ design)[0, 0])
    return acc


KERNELS = {"small": small, "large": large}
REFERENCE_S = {"small": 0.040, "large": 0.040}
# Calibration styles of steps: (kernel, processes running it at once).
SMALL = ("small", 1)
LARGE = ("large", 1)
LARGE_PAIR = ("large", 2)


def kernel_s(name: str) -> float:
    """Wall time of one run of kernel ``name``."""
    start = perf_counter()
    KERNELS[name]()
    return perf_counter() - start


class Calibrator:
    """Times kernel ``name`` in ``processes`` processes at once; ``close`` when done.

    With one process the kernel runs here. With more, each runs in a
    forked helper process that waits on a pipe between timings. The
    benchmark runs no threads, so forking is safe, and unlike spawning it
    starts no resource-tracker process that could outlive the benchmark.
    """

    def __init__(self, name: str, processes: int = 1):
        self.name = name
        self.label = f"{name} x{processes}"
        self.reference = REFERENCE_S[name]
        self._pipes = []
        self._procs = []
        if processes > 1:
            ctx = multiprocessing.get_context("fork")
            for _ in range(processes):
                here, there = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(there, name), daemon=True)
                proc.start()
                there.close()
                self._pipes.append(here)
                self._procs.append(proc)

    def time(self) -> float:
        """Kernel time, averaged over the processes."""
        if not self._pipes:
            return kernel_s(self.name)
        for pipe in self._pipes:
            pipe.send(True)
        return statistics.mean(pipe.recv() for pipe in self._pipes)

    def close(self) -> None:
        for pipe in self._pipes:
            pipe.send(False)
            pipe.close()
        for proc in self._procs:
            proc.join(timeout=60)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._pipes, self._procs = [], []


def _serve(pipe, name: str) -> None:
    while pipe.recv():
        pipe.send(kernel_s(name))
