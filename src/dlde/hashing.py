"""Randomized scalar bucketing and the hash functions of each leaf.

Two sample values are considered similar when they fall into the same
bucket of ``floor((value + offset) / width)``.  The bucket width is drawn
from a range that shrinks as the dataset grows, ``[1/log2(N), 1 - 1/log2(N)]``,
which presumes roughly unit-scale data (see ``znormalize``).  Bucket keys
are int64, so every key must lie in [-2**63, 2**63).  :func:`check_dataset`
decides once per fit, from N and the dataset's largest magnitude alone,
whether every key under every width the range allows fits; so what a fit
accepts depends on neither its seed nor its number of trees.

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
    "check_dataset",
    "sample_hash_fn",
    "build_leaf_tables",
]


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


def _width_floor(n: int) -> float:
    """The narrowest bucket width for a dataset of ``n`` subsequences."""
    return 1.0 / math.log2(n)


def check_dataset(n: int, peak: float) -> None:
    """Refuse a dataset of ``n`` subsequences and largest magnitude ``peak``
    unless every bucket key under every width it can draw fits int64.

    Every width is at least lo = 1/log2(n) and every offset is below 1, so
    no key's magnitude exceeds (peak + 1) / lo; rounding is monotone, so
    that holds for the float keys too.  ``n`` is checked first: below 5
    rows the width range is empty or degenerate.

    Raises:
        ConfigurationError: ``n`` <= 4, or (peak + 1) / lo >= 2**63.
    """
    if n <= 4:
        raise ConfigurationError(
            f"dataset too small for hash-width sampling range (need >= 5 rows, got {n})"
        )
    lo = _width_floor(n)
    if not (peak + 1.0) / lo < 2.0**63:
        raise ConfigurationError(
            f"values up to {peak:.3g} can give bucket keys outside the int64 range "
            f"under widths down to 1/log2({n}) = {lo:.3g}; the data must be near "
            "unit scale, so z-normalize the rows (--normalize)"
        )


def sample_hash_fn(n: int, rng: np.random.Generator, h: int) -> tuple[HashFn, ...]:
    """Draw a leaf's ``h`` bucketing functions for a dataset of ``n`` subsequences.

    Each width is uniform on [1/log2(n), 1 - 1/log2(n)] and each offset
    uniform on [0, width].  One block of ``2 * h`` uniforms, taken with
    ``rng.uniform``'s arithmetic, gives bit for bit the functions of ``h``
    sequential (width, offset) ``rng.uniform`` draws.  Unchecked: ``n``
    must have passed :func:`check_dataset`.
    """
    lo = _width_floor(n)
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


@dataclass(frozen=True, eq=False)
class LeafTables:
    """A leaf segment and the bucketing functions its counts are taken under."""

    segment: Segment
    fns: tuple[HashFn, ...]


def build_leaf_tables(
    dataset: LabeledDataset, segment: Segment, fns: tuple[HashFn, ...] | list[HashFn]
) -> LeafTables:
    """The leaf of ``dataset`` over ``segment``, under the functions ``fns``.

    Unchecked: :func:`check_dataset` has already admitted ``dataset``, so
    the leaf needs no check of its own.  ``dataset`` is unused; the call
    keeps it for the trace hooks of ``benchmarks/``, which read the block.
    """
    return LeafTables(segment, tuple(fns))
