"""Loading and preparing sets of fixed-length subsequences.

Input files follow the common label-first convention: one record per line,
the class label in the first field, the sample values in the remaining
fields, comma or tab separated.  Long unlabeled series are cut into
fixed-length windows with :func:`window_series`.

Each input is opened once, as UTF-8 text, and rewound for each reader:
numpy's C text reader reads it first, and an input it refuses is walked
field by field, which accepts it as ``float()`` does or names the first bad
field.  The file name is not interpreted, and a pipe or named FIFO is refused.
"""

from __future__ import annotations

import os
import re
import stat
import warnings
from array import array
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import ConfigurationError, EmptyInputError, InputFormatError, require_int

__all__ = [
    "LabeledDataset",
    "parse_labeled_file",
    "parse_raw_series",
    "window_series",
    "znormalize",
]


@dataclass(frozen=True)
class LabeledDataset:
    """N subsequences of equal length d with binary anomaly labels.

    ``labels[k] == 1`` marks row ``k`` as belonging to the anomaly class.
    Arrays are stored read-only; all operations on datasets return new
    instances.  Fitting a detector additionally requires N >= 5 (the
    hash-width sampling range is empty below that), which is enforced at
    fit time rather than here so that small intermediate datasets can
    still be constructed and inspected.
    """

    subsequences: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.subsequences, dtype=np.float64)
        y = np.asarray(self.labels)  # checked as given, then cast
        if x.ndim != 2:
            raise ValueError(f"subsequences must be a 2-D matrix, got shape {x.shape}")
        if x.shape[0] < 1:
            raise ValueError("dataset must contain at least one subsequence")
        if x.shape[1] < 4:
            raise ValueError(f"subsequence length must be >= 4, got {x.shape[1]}")
        if not np.isfinite(x).all():
            raise ValueError("subsequences contain non-finite values")
        if y.shape != (x.shape[0],):
            raise ValueError(
                f"labels must have one entry per subsequence: {y.shape} vs {x.shape[0]} rows"
            )
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be binary (0 = normal, 1 = anomaly)")
        x = x.copy()
        y = y.astype(np.int64)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "subsequences", x)
        object.__setattr__(self, "labels", y)

    @cached_property
    def peak(self) -> float:
        """Largest absolute value."""
        return max(-float(self.subsequences.min()), float(self.subsequences.max()))

    @property
    def n(self) -> int:
        """Number of subsequences."""
        return self.subsequences.shape[0]

    @property
    def d(self) -> int:
        """Subsequence length in samples."""
        return self.subsequences.shape[1]


def _detect_delimiter(line: str, delimiter: str | None) -> str:
    if delimiter is not None:
        if len(delimiter) != 1:
            raise ConfigurationError(
                f"delimiter must be a single character, got {delimiter!r}"
            )
        return delimiter
    return "\t" if "\t" in line else ","


def _parse_field(raw: str, lineno: int, column: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value is None or not np.isfinite(value):
        # named as float() read it: stripped of whitespace, but not of \x1c-\x1f
        field = re.sub(r"^[^\S\x1c-\x1f]+|[^\S\x1c-\x1f]+\Z", "", raw)
        kind = "non-numeric field" if value is None else "non-finite value"
        raise InputFormatError(f"line {lineno}, column {column}: {kind} {field!r}")
    return value


@contextmanager
def _data_lines(path: str | Path, delimiter: str | None):
    """The input, opened once as text, its field separator from the first
    non-blank line, and its numbered non-blank lines without line ends, read
    lazily from the top.  Lines end at LF, CRLF or CR only; a byte that is not
    UTF-8 is read as a lone surrogate, and its line named when reached.  Each
    reader rewinds the input, so a pipe is an :class:`OSError`, raised before
    opening a named FIFO, which would wait for a writer."""
    pipe = OSError(f"{path}: the input is read more than once, so it must be a file, not a pipe")
    if stat.S_ISFIFO(os.stat(path).st_mode):
        raise pipe
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        if not fh.seekable():
            raise pipe
        bom_len = 3 if fh.buffer.read(3) == b"\xef\xbb\xbf" else 0  # line 1's bytes count it

        def lines():
            fh.seek(0)
            for lineno, line in enumerate(fh, start=1):
                if not line.isascii():
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        byte = exc.start + 1 + (bom_len if lineno == 1 else 0)
                        raise InputFormatError(f"line {lineno}, byte {byte}: not UTF-8 text") from None
                if line.strip():
                    yield lineno, line.rstrip("\n")

        first = next(lines(), None)
        if first is None:
            raise EmptyInputError(f"{path}: no data lines found")
        yield _detect_delimiter(first[1], delimiter), fh, lines()


# Whitespace to numpy's C reader, which strips them from a field's ends, but
# not to float(), which refuses such a field.
_C_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _c_table(fh: TextIO, sep: str) -> np.ndarray | None:
    """Every field of the open input as a 2-D float64 table, read by numpy's
    C reader, or ``None`` when it refuses the input or a value is not finite.

    Where it accepts, each value is ``float()``'s: both convert through
    CPython's string-to-double routine.  It refuses what only ``float()``
    reads (``1_0``, non-ASCII digits), ragged rows, empty fields,
    whitespace-only lines and bytes that are not UTF-8; the field walk then
    decides what the input holds.
    """
    fh.seek(0)
    while chunk := fh.buffer.read(1 << 20):
        if any(c in chunk for c in _C_ONLY_SPACE):
            return None
    fh.seek(0)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = np.loadtxt(fh, delimiter=sep, comments=None, ndmin=2)
    except (TypeError, ValueError):  # TypeError: a newline separator
        return None
    return None if caught or not np.isfinite(table).all() else table


def _walk_labeled(sep: str, lines: Iterable[tuple[int, str]]) -> np.ndarray:
    """The label-and-values rows of the numbered lines, read field by field;
    an error names the first bad line and, for a bad field, its column."""
    width: int | None = None
    table = array("d")  # label and values of every row, 8 bytes a field
    for lineno, line in lines:
        fields = line.split(sep)
        if width is None:
            width = len(fields)
            if width < 5:
                raise InputFormatError(
                    f"line {lineno}: expected a label plus at least 4 values, "
                    f"found {width} field(s)"
                )
        elif len(fields) != width:
            raise InputFormatError(
                f"line {lineno}: expected {width} fields, found {len(fields)}"
            )
        table.fromlist([_parse_field(f, lineno, col) for col, f in enumerate(fields, start=1)])
    return np.frombuffer(table).reshape(-1, width)


def _walk_raw(sep: str, lines: Iterable[tuple[int, str]]) -> list[float]:
    """The values of every field of the numbered lines, in order, as floats;
    an error names the first bad field's line and column."""
    # stray padding around separators is not a value, but is a column
    return [
        _parse_field(f, lineno, col)
        for lineno, line in lines
        for col, f in enumerate(line.split(sep), start=1)
        if f.strip()
    ]


def parse_labeled_file(
    path: str | Path,
    *,
    anomaly_class: float | None = None,
    delimiter: str | None = None,
) -> LabeledDataset:
    """Read a label-first delimited file into a :class:`LabeledDataset`.

    Args:
        path: File with one record per line: label, then >= 4 values.
        anomaly_class: Raw label value to map to 1 (anomaly); every other
            label maps to 0.  ``None`` marks all rows normal, for inputs
            whose labels are irrelevant to the caller.
        delimiter: Field separator.  ``None`` auto-detects between tab and
            comma from the first data line.

    Returns:
        Dataset with rows in file order.

    Raises:
        EmptyInputError: The file has no data lines.
        InputFormatError: Ragged rows or non-numeric fields, reported with
            line (and column) numbers.
        OSError: The file cannot be opened, or is a pipe.
    """
    with _data_lines(path, delimiter) as (sep, fh, lines):
        rows = _c_table(fh, sep)
        if rows is None or rows.shape[1] < 5:
            rows = _walk_labeled(sep, lines)
    if anomaly_class is None:
        labels = np.zeros(len(rows), dtype=np.int64)
    else:
        labels = (rows[:, 0] == float(anomaly_class)).astype(np.int64)
    return LabeledDataset(rows[:, 1:], labels)


def parse_raw_series(path: str | Path, *, delimiter: str | None = None) -> np.ndarray:
    """Read an unlabeled series: all numeric fields of all lines, in order,
    as a float64 vector.

    Accepts both one-value-per-line files and delimited multi-value lines.

    Raises:
        EmptyInputError: No field holds a value.
        InputFormatError: A non-numeric or non-finite field, reported with
            its line and column numbers.
        OSError: The file cannot be opened, or is a pipe.
    """
    with _data_lines(path, delimiter) as (sep, fh, lines):
        table = _c_table(fh, sep)
        if table is not None:
            return table.ravel()
        values = _walk_raw(sep, lines)
    if not values:
        raise EmptyInputError(f"{path}: no values found")
    return np.asarray(values)


def window_series(series: np.ndarray, s: int) -> LabeledDataset:
    """Cut a series into consecutive non-overlapping windows of length ``s``.

    Produces ``floor(len(series) / s)`` windows in temporal order; a
    trailing remainder shorter than ``s`` is dropped.  Window labels are
    all zero (no anomaly information is carried over).

    Raises:
        ConfigurationError: ``s`` is not an integer >= 4 (a float never
            is), or it exceeds the series length.
    """
    values = np.asarray(series, float).ravel()
    s = require_int(s, 4, "window length")
    if s > values.size:
        raise ConfigurationError(f"window length {s} exceeds series length {values.size}")
    count = values.size // s
    windows = values[: count * s].reshape(count, s)
    return LabeledDataset(windows, np.zeros(count, dtype=np.int64))


def znormalize(dataset: LabeledDataset) -> LabeledDataset:
    """Rescale each row to zero mean and unit standard deviation.

    Constant rows become all-zero rows.  Idempotent up to floating-point
    round-off.

    Raises:
        ConfigurationError: a row's mean or standard deviation overflows
            float64, as deviations beyond about 1e154 make it do.
    """
    x = dataset.subsequences
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=1, keepdims=True)
        std = x.std(axis=1, keepdims=True)
    if not np.isfinite(std).all():  # a non-finite mean makes std non-finite too
        row = int(np.argmin(np.isfinite(std)))
        raise ConfigurationError(f"row {row}: mean or std overflows, so it cannot be z-normalized")
    # a constant row's mean can round, leaving a std of about 1e-17, not 0
    flat = x.max(axis=1) == x.min(axis=1)
    out = x - mean
    # deviations below about 1e-154 square to a variance that underflows to
    # 0: scale such a row's deviations to a largest of 1 before its std
    tiny = (std[:, 0] == 0.0) & ~flat
    out[tiny] /= np.abs(out[tiny]).max(axis=1, keepdims=True)
    std[tiny] = out[tiny].std(axis=1, keepdims=True)
    out /= np.where(std == 0.0, 1.0, std)
    out[flat] = 0.0
    return LabeledDataset(out, dataset.labels)
