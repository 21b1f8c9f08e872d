"""Current-status observation samples and their file format.

An observation is a pair ``(u, delta)``: an examination time and the
0/1 indicator of whether the event of interest had already occurred at
that time. Sample files are plain text, one observation per line as
``u,delta`` (whitespace-delimited also accepted), with an optional
header line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SampleFormatError(ValueError):
    """Malformed observation file; the message names the offending line."""


@dataclass(frozen=True)
class ObservationSample:
    """Paired examination times and status indicators, in input order.

    Any finite time is accepted, negative ones too (``read_sample`` is
    stricter): points outside [0, 1] count only toward the sample size.
    """

    u: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        delta = np.atleast_1d(np.asarray(self.delta, dtype=float))
        if u.ndim != 1 or delta.ndim != 1:
            raise ValueError("u and delta must be one-dimensional")
        if u.size != delta.size:
            raise ValueError("u and delta must have the same length")
        if u.size == 0:
            raise ValueError("empty sample")
        if not np.isfinite(u).all():
            raise ValueError("examination times must be finite")
        if not ((delta == 0.0) | (delta == 1.0)).all():
            raise ValueError("status indicators must be 0 or 1")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "delta", delta)

    @property
    def n(self) -> int:
        return self.u.size


def _split_fields(line: str) -> list[str]:
    if "," in line:
        return [f.strip() for f in line.split(",")]
    return line.split()


def read_sample(path) -> ObservationSample:
    """Parse an observation file; SampleFormatError on bad rows or on times below 0."""
    u_vals: list[float] = []
    d_vals: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = _split_fields(line)
            if len(fields) != 2:
                if lineno == 1:
                    continue  # tolerate a free-form header
                raise SampleFormatError(
                    f"line {lineno}: expected two fields, got {len(fields)}"
                )
            try:
                u = float(fields[0])
                d = float(fields[1])
            except ValueError:
                if lineno == 1:
                    continue  # header row such as "u,delta"
                raise SampleFormatError(
                    f"line {lineno}: could not parse {line!r}"
                ) from None
            if not math.isfinite(u):
                raise SampleFormatError(
                    f"line {lineno}: examination time must be finite, got {fields[0]!r}"
                )
            if u < 0:
                raise SampleFormatError(
                    f"line {lineno}: examination time must be >= 0, got {u!r}"
                )
            if d not in (0.0, 1.0):
                raise SampleFormatError(
                    f"line {lineno}: status must be 0 or 1, got {fields[1]!r}"
                )
            u_vals.append(u)
            d_vals.append(d)
    if not u_vals:
        raise SampleFormatError("no observations found in file")
    return ObservationSample(np.array(u_vals), np.array(d_vals))


def write_sample(sample: ObservationSample, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("u,delta\n")
        for u, d in zip(sample.u, sample.delta):
            fh.write(f"{u:.17g},{int(d)}\n")
