"""Dynamic local density of data points and subsequences under one tree.

For a value ``q`` observed at time ``t``, the leaf segment containing
``t`` is the neighborhood searched for similar points.  Each bucketing
function j contributes a candidate set N_j: the columns of the segment
where some row has q's bucket key.  Their intersection TN filters
spurious collisions; the density of ``q`` is then the mean, over columns
in TN, of the total bucket count of q's key summed across all h
functions.  A subsequence's density is the mean point density over its
d time points, so low density marks rows whose values are rarely matched
inside their leaf neighborhoods.

Scoring is transductive: a leaf's bucket counts are built from the very
matrix whose densities are read, so every point finds itself: TN is never
empty, and every density is >= h, the point's own count under each
function.  A point's density depends only on its tuple of h bucket keys,
so :func:`leaf_point_densities` computes it once per distinct tuple in a
leaf and gathers the result back to the points; :func:`row_densities`
averages them into subsequence densities for all rows at once.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .hashing import LeafTables, hash_keys, key_digits
from .tstree import Segment, TSTree

__all__ = ["leaf_point_densities", "row_densities"]


def leaf_point_densities(x: np.ndarray, tables: LeafTables) -> np.ndarray:
    """Point densities of every value of ``x`` inside one leaf segment.

    Args:
        x: The full (N, d) matrix being scored; the counts are its own.
        tables: The leaf's segment and hash functions.

    Returns:
        (N, L) array, L the segment length; entry (k, i) is the density of
        x[k, segment.start - 1 + i] at its own time index.
    """
    block = x[:, tables.segment.columns]
    n, length = block.shape

    # Per hash function, every point's key as a digit (see key_digits) and
    # the (digits, columns) count matrix: how many rows put each key at each
    # column.  Digits combine into one mixed-radix code per key tuple; codes
    # are compacted to their ranks before a product could overflow int64.
    lookups = []
    code = np.zeros(n * length, dtype=np.int64)
    span = 1  # codes lie in [0, span)
    for fn in tables.fns:
        values, digit = key_digits(hash_keys(fn, block).ravel())
        flat = digit.reshape(n, length) * length + np.arange(length)
        matrix = np.bincount(flat.ravel(), minlength=values.size * length)
        lookups.append((digit, matrix.reshape(values.size, length)))
        if span > np.iinfo(np.int64).max // values.size:
            uniq, code = np.unique(code, return_inverse=True)
            span = uniq.size
        code = code * values.size + digit
        span *= values.size

    # Intersection and count sum once per distinct tuple, through any one
    # of its points: counts[u, c] is the occurrences of tuple u's key in
    # column c.  A point's own column is in every N_j, so TN is never empty.
    uniq, inverse = np.unique(code, return_inverse=True)
    first = np.empty(uniq.size, dtype=np.intp)
    first[inverse] = np.arange(code.size)
    total = np.zeros((uniq.size, length), dtype=np.int64)
    member = np.ones((uniq.size, length), dtype=bool)
    for digit, matrix in lookups:
        counts = matrix[digit[first]]
        total += counts
        member &= counts > 0
    return ((total * member).sum(axis=1) / member.sum(axis=1))[inverse].reshape(n, length)


def row_densities(
    x: np.ndarray, tree: TSTree, leaf_tables: Mapping[Segment, LeafTables]
) -> np.ndarray:
    """Per-row subsequence densities under one tree, for all N rows at once.

    Row ``k``'s density is the mean of its d point densities.

    Raises:
        ValueError: ``x`` is not ``tree.d`` columns wide.
    """
    n, d = x.shape
    if d != tree.d:
        raise ValueError(f"matrix width {d} does not match axis length {tree.d}")
    # Leaf blocks concatenate to the full (N, d) per-point density matrix in
    # temporal order; the row mean's summation order, and so every score
    # bit, follows that layout.
    blocks = [leaf_point_densities(x, leaf_tables[seg]) for seg in tree.segments]
    return np.concatenate(blocks, axis=1).mean(axis=1)
