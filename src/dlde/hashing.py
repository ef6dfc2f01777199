"""Randomized scalar bucketing and the hash functions of each leaf.

Two sample values are considered similar when they fall into the same
bucket of ``floor((value + offset) / width)``.  The bucket width is drawn
from a range that shrinks as the dataset grows, ``[1/log2(N), 1 - 1/log2(N)]``,
which presumes roughly unit-scale data (see ``znormalize``).  Bucket keys
are float64 (:func:`bucket_keys`).  :func:`check_dataset` decides once per
fit, from N and the dataset's largest magnitude alone, whether every key
under every width the range allows stays below 2**63 in magnitude, the
admission rule kept from int64 keys, which keeps every key finite; so what
a fit accepts depends on neither its seed nor its number of trees.

A leaf segment of a tree keeps only its ``h`` independently sampled
bucketing functions: one read-only (h,) row of :data:`HASH_FN` records,
a view of the one array that :func:`dlde.forest.fit` maps from every
tree's uniforms at once.  The counts they induce (how many subsequences
put each bucket key at each time column) are built where densities are
read, from the matrix being scored (see :mod:`dlde.density`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import ConfigurationError
from .tstree import Segment

__all__ = [
    "HASH_FN",
    "LeafTables",
    "check_dataset",
    "sample_hash_fn",
    "build_leaf_tables",
]


# One bucketing function, key = floor((value + offset) / width).  The kernel
# reads a row's fields whole, fns["offset"]; np.record lets each element of
# a row read fn.offset too, which a plain structured dtype does not.
HASH_FN = np.dtype((np.record, [("width", np.float64), ("offset", np.float64)]))


def _width_floor(n: int) -> float:
    """The narrowest bucket width for a dataset of ``n`` subsequences."""
    return 1.0 / math.log2(n)


def check_dataset(n: int, peak: float) -> None:
    """Refuse a dataset of ``n`` subsequences and largest magnitude ``peak``
    unless every bucket key under every width it can draw stays below 2**63
    in magnitude: the rule kept from int64 keys, which keeps every float64
    key finite.

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
            f"values up to {peak:.3g} can give bucket keys that reach 2**63 in magnitude "
            f"under widths down to 1/log2({n}) = {lo:.3g} (the bound kept from int64 "
            "keys); the data must be near unit scale, so z-normalize the rows (--normalize)"
        )


def sample_hash_fn(n: int, u: np.ndarray) -> np.ndarray:
    """The read-only (..., h) :data:`HASH_FN` array of the bucketing
    functions that a (..., 2h) block ``u`` of uniforms on [0, 1) gives for
    a dataset of ``n`` subsequences.

    Function j takes its width from ``u[..., 2j]``, uniform on
    [1/log2(n), 1 - 1/log2(n)], and its offset from ``u[..., 2j + 1]``,
    uniform on [0, width], with ``rng.uniform``'s arithmetic: the functions
    are bit for bit the (width, offset) ``rng.uniform`` draws that take
    those doubles.  ``fit`` passes one row per leaf, a column of its tree's
    (2h, leaves) block.  Unchecked: ``n`` must have passed
    :func:`check_dataset`.
    """
    lo = _width_floor(n)
    fns = np.empty(u.shape[:-1] + (u.shape[-1] // 2,), HASH_FN)
    fns["width"] = lo + ((1.0 - lo) - lo) * u[..., 0::2]
    fns["offset"] = 0.0 + fns["width"] * u[..., 1::2]
    fns.setflags(write=False)
    return fns


def bucket_keys(values: np.ndarray, offset, width) -> np.ndarray:
    """Float bucket keys ``floor((values + offset) / width)``, unchecked;
    (h, 1) columns of offsets and widths hash under h functions at once."""
    keys = values + offset
    keys /= width
    return np.floor(keys, out=keys)


@dataclass(frozen=True, eq=False)
class LeafTables:
    """A leaf segment and the (h,) :data:`HASH_FN` row of the bucketing
    functions its counts are taken under."""

    segment: Segment
    fns: np.ndarray


def build_leaf_tables(dataset: LabeledDataset, segment: Segment, fns: np.ndarray) -> LeafTables:
    """The leaf of ``dataset`` over ``segment``, under the :data:`HASH_FN`
    row ``fns``, taken as it is: ``fit`` passes a read-only row view.

    Unchecked: :func:`check_dataset` has already admitted ``dataset``, so
    the leaf needs no check of its own.  ``dataset`` is unused; the call
    keeps it for the trace hooks of ``benchmarks/``, which read the block.
    """
    return LeafTables(segment, fns)
