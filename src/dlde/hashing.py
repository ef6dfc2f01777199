"""Randomized scalar bucketing and the hash functions of each leaf.

Two sample values are considered similar when they fall into the same
bucket of ``floor((value + offset) / width)``.  The bucket width is drawn
from a range that shrinks as the dataset grows, ``[1/log2(N), 1 - 1/log2(N)]``,
which presumes roughly unit-scale data (see ``znormalize``).  Bucket keys
are int64, so every key must lie in [-2**63, 2**63); data whose keys
would leave that range is rejected with a :class:`ConfigurationError`.
:func:`build_leaf_tables` proves the range from the dataset's largest
magnitude and the leaf's narrowest width.  Only where that proof fails does
it run :func:`key_bounds`, which checks the leaf's block from its two
extremes, as keys are monotone in the value.

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


def sample_hash_fn(n: int, rng: np.random.Generator, h: int) -> tuple[HashFn, ...]:
    """Draw a leaf's ``h`` bucketing functions for a dataset of ``n`` subsequences.

    Each width is uniform on [1/log2(n), 1 - 1/log2(n)] and each offset
    uniform on [0, width].  One block of ``2 * h`` uniforms, taken with
    ``rng.uniform``'s arithmetic, gives bit for bit the functions of ``h``
    sequential (width, offset) ``rng.uniform`` draws.  The range is empty
    or degenerate for n <= 4.

    Raises:
        ConfigurationError: ``n`` <= 4.
    """
    if n <= 4:
        raise ConfigurationError(
            f"dataset too small for hash-width sampling range (need >= 5 rows, got {n})"
        )
    lo = 1.0 / math.log2(n)
    u = rng.random(2 * h)
    widths = lo + ((1.0 - lo) - lo) * u[0::2]
    offsets = 0.0 + widths * u[1::2]
    return tuple(map(HashFn, widths.tolist(), offsets.tolist()))


def bucket_keys(values: np.ndarray, offset, width) -> np.ndarray:
    """Float bucket keys ``floor((values + offset) / width)``, unchecked;
    (h, 1) columns of offsets and widths hash under h functions at once."""
    keys = values + offset
    keys /= width
    return np.floor(keys, out=keys)


def key_bounds(values: np.ndarray, fns: tuple[HashFn, ...] | list[HashFn]) -> None:
    """Check that every bucket key of non-empty ``values`` under every
    function of ``fns`` fits int64, from the keys of the two extremes.

    Raises:
        ConfigurationError: a value is NaN or infinite, or a key falls
            outside [-2**63, 2**63) because the data is far off unit scale.
    """
    ends = np.array([values.min(), values.max()])
    offsets, widths = np.array([(fn.offset, fn.width) for fn in fns]).T[:, :, None]
    with np.errstate(over="ignore"):
        bounds = bucket_keys(ends, offsets, widths).tolist()
    # non-finite values and overflowing keys are non-finite: they fail this range test
    admitted = [-_KEY_LIMIT <= lo and hi < _KEY_LIMIT for lo, hi in bounds]
    if not all(admitted):
        if not np.isfinite(ends).all():
            raise ConfigurationError("NaN or infinite values have no bucket key")
        raise ConfigurationError(
            f"values up to {float(np.abs(ends).max()):.3g} give bucket keys outside "
            f"the int64 range under width {fns[admitted.index(False)].width:.3g}; "
            "the data must be near unit scale, so z-normalize the rows (--normalize)"
        )


@dataclass(frozen=True, eq=False)
class LeafTables:
    """A leaf segment and the bucketing functions its counts are taken under."""

    segment: Segment
    fns: tuple[HashFn, ...]


def build_leaf_tables(
    dataset: LabeledDataset, segment: Segment, fns: tuple[HashFn, ...] | list[HashFn]
) -> LeafTables:
    """Check that every key of ``dataset`` over ``segment`` fits int64.

    Rounding keeps the float keys in order, so no key's magnitude exceeds
    (peak + 1) / width, where peak is the dataset's largest magnitude,
    computed once per dataset.  Below 2**62 that proves the range.
    Otherwise one array pass hashes the block's two extremes under every
    function (see :func:`key_bounds`).

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
    if not (dataset.peak + 1.0) / min(fn.width for fn in fns) < 2.0**62:
        key_bounds(dataset.subsequences[:, segment.columns], fns)
    return LeafTables(segment, tuple(fns))
