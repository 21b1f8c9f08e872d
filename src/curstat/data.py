"""Current-status observation samples and their file format.

An observation is a pair ``(u, delta)``: an examination time and the
0/1 indicator of whether the event of interest had already occurred at
that time. Sample files are plain text, one observation per line as
``u,delta`` (whitespace-delimited also accepted), with an optional
header line before the first observation that does not start like a
number; blank lines and ``#`` comment lines may come anywhere. A field
parses as ``float()`` parses it, except that a digit-group underscore
(``0_5``) is refused. A *plain* file, an optional header and then only
``time,status`` rows of digits, ``.``, ``e``, ``E``, ``+`` and ``-``, as
``write_sample`` writes it, is read as arrays by ``np.loadtxt``; any
other file is read line by line, by the loop that writes every error
message, and both ways return the same bits.

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
residuals. Estimators read that order, and each sample's points in
[0, 1], from a ``_SortedStack``, one sample's alone or a Monte Carlo
chunk's, by one code path for any count of samples.
"""

from __future__ import annotations

import codecs
import io
import math
from dataclasses import dataclass, fields

import numpy as np


class SampleFormatError(ValueError):
    """Malformed observation file; the message names the offending line."""


def _same_bits(a, b):
    """``==`` of dataclasses of arrays: one class, and every field's shape and bits.

    So 0.0 and -0.0 differ, and objects of two classes are unequal.
    """
    if b.__class__ is not a.__class__:
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in pairs)


def _integral(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; ``True`` and ``False`` are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _unsigned_zeros(a: np.ndarray) -> np.ndarray:
    """``a``, or a new array of it in which -0.0 is 0.0 when it holds a -0.0."""
    zero = a == 0.0
    return a + 0.0 if zero.any() and np.signbit(a[zero]).any() else a


@dataclass(frozen=True)
class ObservationSample:
    """Paired examination times and status indicators, in input order.

    Any finite time is accepted, negative ones too (``read_sample`` is
    stricter): points outside [0, 1] count only toward the sample size.
    A time or a status of -0.0 is stored as 0.0, so the two zeros are
    one value bit for bit, as a file writes and reads them; the caller's
    array is copied only then. Two samples are equal when their times
    and statuses match bit for bit.
    """

    u: np.ndarray
    delta: np.ndarray

    __eq__ = _same_bits

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
        object.__setattr__(self, "u", _unsigned_zeros(u))
        object.__setattr__(self, "delta", _unsigned_zeros(delta))

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


class _SortedStack:
    """Samples joined one after another in time order, sorted once for every estimator.

    A Monte Carlo chunk builds one and hands it to each method, and a
    single-sample fit, or a failing chunk run again sample by sample,
    builds one of its sample. Per sample, ``orders`` holds its
    ``time_order``, ``times`` its times in that order and ``windows`` the
    input positions of its points in [0, 1] in that order, whose count is
    in ``sizes``. ``x`` and ``delta`` join those points' times and
    statuses, sample after sample, so a sample's slice of them is bitwise
    what a stack of that sample alone holds.

    ``kept`` holds one value computed from the stack, such as a basis
    evaluation that two scans share, and drops it before computing
    another: the stack never holds two.
    """

    def __init__(self, samples):
        self.samples = list(samples)
        self.orders = [sample.time_order() for sample in self.samples]
        self.times = [sample.u[order] for sample, order in zip(self.samples, self.orders)]
        # on sorted times [0, 1] is one contiguous run
        runs = [
            slice(np.searchsorted(u, 0.0), np.searchsorted(u, 1.0, "right")) for u in self.times
        ]
        self.windows = [order[run] for order, run in zip(self.orders, runs)]
        self.sizes = [window.size for window in self.windows]
        self.x = np.concatenate([u[run] for u, run in zip(self.times, runs)])
        self.delta = self.inside([sample.delta for sample in self.samples])
        self._kept = None

    def inside(self, rows) -> np.ndarray:
        """One row per sample, each cut to its sample's ``windows``, joined in sample order."""
        return np.concatenate([row[w] for row, w in zip(rows, self.windows)])

    def offset(self, index: np.ndarray, width: int) -> np.ndarray:
        """Indices into ``width`` bins per sample, each sample's bins after the last one's.

        ``index`` holds one index in ``[0, width)`` per joined point.
        """
        return index + np.repeat(np.arange(0, len(self.sizes) * width, width), self.sizes)

    def kept(self, key, evaluate):
        """``evaluate()``, computed once while ``key`` is the key kept."""
        if self._kept is None or self._kept[0] != key:
            self._kept = None  # dropped before the next value is computed
            self._kept = key, evaluate()
        return self._kept[1]


_PLAIN_BYTES = b"0123456789.eE+-,\n"


def _split_fields(line: str) -> list[str]:
    if "," in line:
        return [f.strip() for f in line.split(",")]
    return line.split()


def _is_header(line: str) -> bool:
    """Whether ``line`` is a header, when it is the first line that is neither blank nor a comment.

    It is when it does not start like a number (with a digit, a sign or a
    ``.``) and is not two fields that parse, so a malformed first
    observation is reported, not taken for a header.
    """
    line = line.strip()
    if line[:1] in "#+-.0123456789":  # the empty line too
        return False
    try:
        _, _ = map(float, _split_fields(line))  # not two fields is a ValueError too
    except ValueError:
        return True
    return "_" in line


def _parse_row(line: str, lineno: int) -> tuple[float, float]:
    """The time and status of one stripped observation line; SampleFormatError names it."""
    fields = _split_fields(line)
    if len(fields) != 2:
        raise SampleFormatError(f"line {lineno}: expected two fields, got {len(fields)}")
    try:
        if "_" in line:  # float() reads the digit group "0_5" as 5.0
            raise ValueError(line)
        u, d = float(fields[0]), float(fields[1])
    except ValueError:
        raise SampleFormatError(f"line {lineno}: could not parse {line!r}") from None
    if not math.isfinite(u):
        raise SampleFormatError(
            f"line {lineno}: examination time must be finite, got {fields[0]!r}"
        )
    if u < 0:
        raise SampleFormatError(f"line {lineno}: examination time must be >= 0, got {u!r}")
    if d not in (0.0, 1.0):
        raise SampleFormatError(f"line {lineno}: status must be 0 or 1, got {fields[1]!r}")
    return u, d


def read_sample(path) -> ObservationSample:
    """Parse an observation file; SampleFormatError on bad rows or on times below 0.

    Blank lines and lines starting with ``#`` are skipped. The first
    other line may be a header, such as ``u,delta``: it is skipped when
    it does not parse as an observation and does not start like a number
    (with a digit, a sign or a ``.``), so a malformed first observation
    is reported, not taken for a header. A field parses as Python's
    ``float()`` parses it, except that a digit-group underscore
    (``0_5``) is refused. The file is read as UTF-8, after a byte order
    mark if it starts with one, with any line ending; a byte that is not
    UTF-8 is a SampleFormatError naming its line.

    A *plain* file, the layout ``write_sample`` writes, is read as
    arrays: after an optional header line, every line is a ``time,status``
    row of the bytes ``0-9 . e E + -`` alone, with exactly one comma
    between two nonempty fields. ``np.loadtxt`` converts it in blocks of
    lines, by CPython's own string-to-double parser, the one ``float()``
    uses, and its columns are checked as arrays. Any other file, or a
    plain one that fails a check, is read line by line by the loop that
    writes every error message, so the two ways return the same bits and
    raise the same errors.
    """
    return _read_plain(path) or _read_lines(path)


def _read_plain(path) -> ObservationSample | None:
    """A plain file's sample (see ``read_sample``), or None for any other file."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    if b"\r" in data:  # universal newlines, as the loop's text mode reads them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    header = data[: data.find(b"\n") + 1 or len(data)]
    # a first line that is not ASCII is no header here, so it fails the byte check
    header = header if header.isascii() and _is_header(header.decode()) else b""
    # whole-file counts send most other files to the loop before any
    # conversion: no rows, not one comma a row, or a byte outside the rows
    text = np.frombuffer(data, np.uint8)[len(header) :]
    rows = np.count_nonzero(text == ord("\n")) + (not data.endswith(b"\n"))
    if rows == 0 or np.count_nonzero(text == ord(",")) != rows:
        return None
    if data.translate(None, _PLAIN_BYTES) != header.translate(None, _PLAIN_BYTES):
        return None
    # a field that does not parse, rows of unequal width and rows of three
    # fields (which do not unpack) are ValueErrors
    try:
        table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1 if header else 0, ndmin=2)
        u, delta = (column.copy() for column in table.T)
    except ValueError:
        return None
    # times finite and at least 0 (NaN fails both comparisons), statuses 0 or 1
    valid = (0 <= u) & (u < np.inf) & ((delta == 0) | (delta == 1))
    if valid.all():
        return ObservationSample(u, delta)
    # every line after the header is one row: the first invalid one raises
    lineno = int(np.argmin(valid)) + 1 + bool(header)
    _parse_row(data.split(b"\n", lineno)[lineno - 1].decode(), lineno)


def _read_lines(path) -> ObservationSample:
    """``read_sample`` of any file, line by line; it writes every error message."""
    u_vals: list[float] = []
    d_vals: list[float] = []
    first = True
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if first:
                    first = False
                    if _is_header(line):
                        continue
                u, d = _parse_row(line, lineno)
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
    """Write ``sample`` as a plain ``u,delta`` file, each time in 17 significant digits.

    ``read_sample`` refuses times below 0, so such a sample is a
    ValueError before the file is opened.
    """
    if (sample.u < 0).any():
        raise ValueError("read_sample refuses examination times below 0; this sample has some")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("u,delta\n")
        for u, d in zip(sample.u, sample.delta):
            fh.write(f"{u:.17g},{int(d)}\n")
