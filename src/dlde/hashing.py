"""Randomized scalar bucketing and the hash functions of each leaf.

Two sample values are considered similar when they fall into the same
bucket of ``floor((value + offset) / width)``.  The bucket width is drawn
from a range that shrinks as the dataset grows, ``[1/log2(N), 1 - 1/log2(N)]``,
which presumes roughly unit-scale data (see ``znormalize``).  Bucket keys
are int64, so every key must lie in [-2**63, 2**63); data whose keys
would leave that range is rejected with a :class:`ConfigurationError`.
No arithmetic on keys can overflow inside that range: scoring combines
key digits (see :func:`key_digits`), not keys.

A leaf segment of a tree keeps only its ``h`` independently sampled
bucketing functions.  The counts they induce (how many subsequences put
each bucket key at each time column) are built where densities are read,
from the matrix being scored (see :mod:`dlde.density`).
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


def hash_keys(fn: HashFn, values: np.ndarray) -> np.ndarray:
    """Bucket key ``floor((value + offset) / width)`` of every value, as int64.

    Exact: the float64 floor of every admitted key fits int64 without
    rounding, so it equals the key computed in Python integers.

    Raises:
        ConfigurationError: a value is NaN or infinite, or a key falls
            outside [-2**63, 2**63) because the data is far off unit scale.
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        keys = np.floor((values + fn.offset) / fn.width)
    # non-finite values and overflowing keys are non-finite: they fail this range test
    if keys.size and not (-_KEY_LIMIT <= keys.min() and keys.max() < _KEY_LIMIT):
        if not np.isfinite(values).all():
            raise ConfigurationError("NaN or infinite values have no bucket key")
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
    """A leaf segment and the bucketing functions its counts are taken under."""

    segment: Segment
    fns: tuple[HashFn, ...]


def build_leaf_tables(
    dataset: LabeledDataset, segment: Segment, fns: tuple[HashFn, ...] | list[HashFn]
) -> LeafTables:
    """Check that every key of ``dataset`` over ``segment`` fits int64.

    Keys are monotone in the value, so hashing the block's smallest and
    largest value checks every key.

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
    ends = np.array([block.min(), block.max()])
    for fn in fns:
        hash_keys(fn, ends)
    return LeafTables(segment, tuple(fns))
