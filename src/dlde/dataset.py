"""Loading and preparing sets of fixed-length subsequences.

Input files follow the common label-first convention: one record per line,
the class label in the first field, the sample values in the remaining
fields, comma or tab separated.  Long unlabeled series are cut into
fixed-length windows with :func:`window_series`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, EmptyInputError, InputFormatError

__all__ = [
    "LabeledDataset",
    "RawSeries",
    "parse_labeled_file",
    "parse_raw_series",
    "window_series",
    "write_labeled_file",
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
        y = np.asarray(self.labels, dtype=np.int64)
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
        y = y.copy()
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "subsequences", x)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        """Number of subsequences."""
        return self.subsequences.shape[0]

    @property
    def d(self) -> int:
        """Subsequence length in samples."""
        return self.subsequences.shape[1]


@dataclass(frozen=True)
class RawSeries:
    """A single long time series."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64).ravel()
        if v.size == 0:
            raise ValueError("series must be non-empty")
        if not np.isfinite(v).all():
            raise ValueError("series contains non-finite values")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


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
        raise InputFormatError(
            f"line {lineno}, column {column}: non-numeric field {raw.strip()!r}"
        ) from None
    if not np.isfinite(value):
        raise InputFormatError(
            f"line {lineno}, column {column}: non-finite value {raw.strip()!r}"
        )
    return value


def _data_lines(path: str | Path) -> list[tuple[int, str]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [
        (lineno, line)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not lines:
        raise EmptyInputError(f"{path}: no data lines found")
    return lines


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
    """
    lines = _data_lines(path)
    sep = _detect_delimiter(lines[0][1], delimiter)

    width: int | None = None
    rows: list[list[float]] = []
    raw_labels: list[float] = []
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
        raw_labels.append(_parse_field(fields[0], lineno, 1))
        rows.append(
            [_parse_field(f, lineno, col) for col, f in enumerate(fields[1:], start=2)]
        )

    if anomaly_class is None:
        labels = np.zeros(len(rows), dtype=np.int64)
    else:
        labels = (np.asarray(raw_labels) == float(anomaly_class)).astype(np.int64)
    return LabeledDataset(np.asarray(rows), labels)


def parse_raw_series(path: str | Path, *, delimiter: str | None = None) -> RawSeries:
    """Read an unlabeled series: all numeric fields of all lines, in order.

    Accepts both one-value-per-line files and delimited multi-value lines.
    """
    lines = _data_lines(path)
    sep = _detect_delimiter(lines[0][1], delimiter)
    values: list[float] = []
    for lineno, line in lines:
        for col, field in enumerate(line.split(sep), start=1):
            if field.strip() == "":
                continue  # stray padding around separators is not a value
            values.append(_parse_field(field, lineno, col))
    return RawSeries(np.asarray(values))


def window_series(series: RawSeries | np.ndarray, s: int) -> LabeledDataset:
    """Cut a series into consecutive non-overlapping windows of length ``s``.

    Produces ``floor(len(series) / s)`` windows in temporal order; a
    trailing remainder shorter than ``s`` is dropped.  Window labels are
    all zero (no anomaly information is carried over).

    Raises:
        ConfigurationError: ``s`` is below 4 or exceeds the series length.
    """
    values = series.values if isinstance(series, RawSeries) else np.asarray(series, float).ravel()
    if s < 4:
        raise ConfigurationError(f"window length must be >= 4, got {s}")
    if s > values.size:
        raise ConfigurationError(
            f"window length {s} exceeds series length {values.size}"
        )
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


def write_labeled_file(
    dataset: LabeledDataset, path: str | Path, *, delimiter: str = ","
) -> None:
    """Write a dataset back to the label-first format.

    Values are written with ``repr`` so a parse/write/parse round trip
    reproduces the matrix exactly.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        for label, row in zip(dataset.labels, dataset.subsequences):
            fields = [str(int(label))] + [repr(float(v)) for v in row]
            fh.write(delimiter.join(fields) + "\n")
