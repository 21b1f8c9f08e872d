"""Current-status observation samples and their file format.

An observation is a pair ``(u, delta)``: an examination time and the
0/1 indicator of whether the event of interest had already occurred at
that time. Sample files are plain text, one observation per line as
``u,delta`` (whitespace-delimited also accepted), with an optional
header line before the first observation that does not start like a
number; blank lines and ``#`` comment lines may come anywhere.

Every estimator that sorts reads a sample in the one time order that
``ObservationSample.time_order`` decides: ascending time, status 1
ahead of status 0 within a tied time, and input order among equal
observations. So no estimate depends on the input order. The order is
found by numpy's default ``argsort`` of the times, which on distinct
times has only one permutation to find, and on tied times by one more
``argsort`` of a unique integer key built from the dense time rank, the
status and the input position, exact for n < 2**31. Every basis
function takes one value at a tied time, so the order within a tie group
cannot move a per-piece sum of 0/1 weights; it gives the NPMLE one value
per tie group, and fixes the order in which the regression sums its
residuals.
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
    A time of -0.0 is stored as 0.0, so the two zeros are one time bit
    for bit; the caller's array is copied only then.
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
        zero = u == 0.0
        if zero.any() and np.signbit(u[zero]).any():
            u = u + 0.0  # a new array in which -0.0 + 0.0 is 0.0
        if not ((delta == 0.0) | (delta == 1.0)).all():
            raise ValueError("status indicators must be 0 or 1")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "delta", delta)

    @property
    def n(self) -> int:
        return self.u.size

    def time_order(self) -> np.ndarray:
        """Ascending ``u``, status 1 first within a tied time, then input order.

        This is ``np.lexsort((-delta, u))``, found by numpy's default
        (unstable, vectorised) ``argsort``. When the times are distinct,
        only one permutation sorts them, so that sort finds it. When a
        time ties, one more ``argsort`` sorts the unique integer key
        ``(2 * rank + (delta == 0)) * n + index``, with ``rank`` the dense
        rank of the time from the first sort and ``index`` the input
        position; the key is exact in int64 for n < 2**31.
        """
        order = np.argsort(self.u)
        u = self.u[order]
        distinct = u[1:] != u[:-1]
        if not distinct.all():
            n = self.n
            rank = np.zeros(n, dtype=np.int64)
            np.cumsum(distinct, out=rank[1:])
            key = (2 * rank + (self.delta[order] == 0.0)) * n + order
            order = order[np.argsort(key)]
        return order

    def sorted_inside(self, *rows: np.ndarray):
        """The times in [0, 1] in ``time_order``, and ``rows`` cut and ordered alike.

        Returns ``(x, *rows)``, where a row of None stays None. On sorted
        times [0, 1] is one contiguous run, and on sorted points each
        piece of a subdivision is one too.
        """
        order = self.time_order()
        u = self.u[order]
        lo, hi = np.searchsorted(u, 0.0), np.searchsorted(u, 1.0, "right")
        window = order[lo:hi]
        return (u[lo:hi], *(None if row is None else row[window] for row in rows))


def _split_fields(line: str) -> list[str]:
    if "," in line:
        return [f.strip() for f in line.split(",")]
    return line.split()


def read_sample(path) -> ObservationSample:
    """Parse an observation file; SampleFormatError on bad rows or on times below 0.

    Blank lines and lines starting with ``#`` are skipped. The first
    other line may be a header, such as ``u,delta``: it is skipped when
    it does not parse as an observation and does not start like a number
    (with a digit, a sign or a ``.``), so a malformed first observation
    is reported, not taken for a header. The file is read as UTF-8,
    after a byte order mark if it starts with one; a byte that is not
    UTF-8 is a SampleFormatError naming its line.
    """
    u_vals: list[float] = []
    d_vals: list[float] = []
    first = True
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = _split_fields(line)
                # the first line is the header when it fails to parse and
                # does not start like a number
                header = first and line[0] not in "+-.0123456789"
                first = False
                if len(fields) != 2:
                    if header:
                        continue  # tolerate a free-form header
                    raise SampleFormatError(
                        f"line {lineno}: expected two fields, got {len(fields)}"
                    )
                try:
                    u = float(fields[0])
                    d = float(fields[1])
                except ValueError:
                    if header:
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
    except UnicodeDecodeError:
        # the reader decodes ahead in chunks, so the line is found afresh;
        # line breaks are ASCII, never inside a UTF-8 sequence
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh.read().splitlines(), start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise SampleFormatError(
                        f"line {lineno}: byte {line[exc.start]:#04x} is not UTF-8"
                    ) from None
        raise
    if not u_vals:
        raise SampleFormatError("no observations found in file")
    return ObservationSample(np.array(u_vals), np.array(d_vals))


def write_sample(sample: ObservationSample, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("u,delta\n")
        for u, d in zip(sample.u, sample.delta):
            fh.write(f"{u:.17g},{int(d)}\n")
