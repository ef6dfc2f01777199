"""Randomized scalar bucketing and per-leaf hash count tables.

Two sample values are considered similar when they fall into the same
bucket of ``floor((value + offset) / width)``.  The bucket width is drawn
from a range that shrinks as the dataset grows, ``[1/log2(N), 1 - 1/log2(N)]``,
which presumes roughly unit-scale data (see ``znormalize``).  Bucket keys
are int64, so every key must lie in [-2**63, 2**63); data whose keys
would leave that range is rejected with a :class:`ConfigurationError`.
No arithmetic on keys can overflow inside that range: scoring combines
key digits (see :func:`key_digits`), not keys.

For every leaf segment of a tree, each of ``h`` independently sampled
bucketing functions maps each time column to the number of subsequences
whose value at that column lands in each bucket.  The tables are stored
as arrays only: per function, the sorted union of keys seen anywhere in
the segment and a (keys, columns) count matrix.  All N rows are
inserted, including any row later scored, so a stored value always finds
at least its own count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import ConfigurationError
from .tstree import Segment

__all__ = [
    "HashFn",
    "LeafTables",
    "sample_hash_fn",
    "hash_value",
    "hash_keys",
    "build_leaf_tables",
]

_KEY_LIMIT = 2.0**63  # int64 holds every integral float in [-2**63, 2**63)


@dataclass(frozen=True)
class HashFn:
    """One bucketing function: key = floor((value + offset) / width)."""

    width: float
    offset: float

    def __post_init__(self) -> None:
        if not (0.0 < self.width < 1.0):
            raise ValueError(f"width must lie in (0, 1), got {self.width}")
        if not (0.0 <= self.offset <= self.width):
            raise ValueError(
                f"offset must lie in [0, width={self.width}], got {self.offset}"
            )


def sample_hash_fn(n: int, rng: np.random.Generator) -> HashFn:
    """Draw one bucketing function for a dataset of ``n`` subsequences.

    The width is uniform on [1/log2(n), 1 - 1/log2(n)] and the offset
    uniform on [0, width].  The range is empty or degenerate for n <= 4.

    Raises:
        ConfigurationError: ``n`` <= 4.
    """
    if n <= 4:
        raise ConfigurationError(
            f"dataset too small for hash-width sampling range (need >= 5 rows, got {n})"
        )
    lo = 1.0 / math.log2(n)
    width = rng.uniform(lo, 1.0 - lo)
    offset = rng.uniform(0.0, width)
    return HashFn(width=width, offset=offset)


def hash_value(fn: HashFn, value: float) -> int:
    """Bucket key of a single sample value, as an exact Python int.

    Deterministic and monotone non-decreasing in ``value``.

    Raises:
        ValueError: ``value`` is NaN or infinite.
    """
    if not math.isfinite(value):
        raise ValueError(f"cannot hash non-finite value {value!r}")
    return math.floor((value + fn.offset) / fn.width)


def hash_keys(fn: HashFn, values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`hash_value` as int64.

    Equal to :func:`hash_value` element by element, since both floor the
    same float64 quotient and every admitted key fits int64 exactly.

    Raises:
        ConfigurationError: a key falls outside [-2**63, 2**63), which
            happens only for data far off the unit scale.
    """
    values = np.asarray(values, dtype=np.float64)
    keys = np.floor((values + fn.offset) / fn.width)
    if keys.size and not (-_KEY_LIMIT <= keys.min() and keys.max() < _KEY_LIMIT):
        raise ConfigurationError(
            f"values up to {float(np.abs(values).max()):.3g} give bucket keys outside "
            f"the int64 range under width {fn.width:.3g}; the data must be near unit "
            "scale, so z-normalize the rows (--normalize)"
        )
    return keys.astype(np.int64)


def key_digits(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted candidate key values and each key's index (digit) among them.

    Keys that span no more values than there are keys (the usual case)
    index the whole range from the smallest key, found without sorting;
    the offsets cannot overflow because that range is small.  Sparser keys
    index their sorted distinct values.  Digits are below ``keys.size``
    either way.
    """
    lo = int(keys.min())
    width = int(keys.max()) - lo + 1
    if width <= keys.size:
        return np.arange(lo, lo + width), keys - lo
    return np.unique(keys, return_inverse=True)


@dataclass(frozen=True, eq=False)
class LeafTables:
    """Bucket count tables for one leaf segment.

    ``keys[j]`` is the sorted int64 vector of every key that hash function
    ``j`` produces anywhere in the segment; ``counts[j][u, c]`` is how many
    rows put ``keys[j][u]`` at column ``c`` (0-based within the segment),
    zero where the key does not occur.  Every column sums to ``n_rows``.
    """

    segment: Segment
    fns: tuple[HashFn, ...]
    keys: tuple[np.ndarray, ...]
    counts: tuple[np.ndarray, ...]
    n_rows: int

    @property
    def h(self) -> int:
        return len(self.fns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LeafTables):
            return NotImplemented
        mine, theirs = self.keys + self.counts, other.keys + other.counts
        return (self.segment, self.fns, self.n_rows, len(mine)) == (
            other.segment, other.fns, other.n_rows, len(theirs)
        ) and all(map(np.array_equal, mine, theirs))


def build_leaf_tables(
    dataset: LabeledDataset, segment: Segment, fns: tuple[HashFn, ...] | list[HashFn]
) -> LeafTables:
    """Insert every subsequence's values over ``segment`` into count tables.

    Raises:
        ValueError: segment out of the dataset's 1..d range, or no hash
            functions given.
        ConfigurationError: a bucket key would not fit int64.
    """
    if segment.end > dataset.d:
        raise ValueError(
            f"segment [{segment.start}, {segment.end}] exceeds axis length {dataset.d}"
        )
    if len(fns) < 1:
        raise ValueError("at least one hash function is required")
    block = dataset.subsequences[:, segment.columns]
    length = segment.length
    all_keys, all_counts = [], []
    for fn in fns:
        # one pass: per-value-per-column occurrence counts over the segment,
        # then only the values that occur
        values, digit = key_digits(hash_keys(fn, block).ravel())
        flat = digit.reshape(block.shape) * length + np.arange(length)
        matrix = np.bincount(flat.ravel(), minlength=values.size * length)
        matrix = matrix.reshape(values.size, length)
        used = matrix.any(axis=1)
        all_keys.append(values[used])
        all_counts.append(matrix[used])
    return LeafTables(segment, tuple(fns), tuple(all_keys), tuple(all_counts), dataset.n)
