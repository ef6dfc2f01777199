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

from .hashing import LeafTables, bucket_keys, key_bounds
from .tstree import Segment, TSTree

__all__ = ["leaf_point_densities", "row_densities"]

_INT64_MAX = np.iinfo(np.int64).max


def leaf_point_densities(x: np.ndarray, tables: LeafTables) -> np.ndarray:
    """Point densities of every value of ``x`` inside one leaf segment.

    Args:
        x: The full (N, d) matrix being scored; the counts are its own.
        tables: The leaf's segment and hash functions.

    Returns:
        (N, L) array, L the segment length; entry (k, i) is the density of
        x[k, segment.start - 1 + i] at its own time index.
    """
    # Time-major (L, N) copy: every pass below reads contiguous memory, and
    # the column index varies along the short outer axis, not the inner one.
    block = np.ascontiguousarray(x[:, tables.segment.columns].T)
    length, n = block.shape

    # Per hash function, every point's key as a digit below the key count:
    # its offset from the smallest key when the keys span no more values
    # than there are keys (the usual case, no sort), else its rank among
    # the distinct keys; and the (digits, columns) count matrix: how many
    # rows put each key at each column.  Digits combine into one mixed-radix
    # code per key tuple; codes are compacted to their ranks before a
    # product could overflow int64.
    bounds = key_bounds(block, tables.fns)  # checks every key, one array pass
    lookups = []
    code = np.zeros(n * length, dtype=np.int64)
    span = 1  # codes lie in [0, span)
    for fn, (lo, hi) in zip(tables.fns, bounds):
        keys = bucket_keys(block, fn.offset, fn.width).ravel()
        if hi - lo < keys.size:
            size = int(hi - lo) + 1
            digit = np.subtract(keys, lo, out=keys).astype(np.int64)
        else:
            distinct, digit = np.unique(keys, return_inverse=True)
            size = distinct.size
        flat = digit.reshape(length, n) * length + np.arange(length)[:, None]
        matrix = np.bincount(flat.ravel(), minlength=size * length)
        lookups.append((digit, matrix.reshape(size, length)))
        if span > _INT64_MAX // size:
            uniq, code = np.unique(code, return_inverse=True)
            span = uniq.size
        code = code * size + digit
        span *= size

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
    return ((total * member).sum(axis=1) / member.sum(axis=1))[inverse].reshape(length, n).T


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
    # Leaf blocks fill a C-ordered (N, d) per-point density matrix in
    # temporal order; the row mean's summation order, and so every score
    # bit, follows that layout, whatever the blocks' own memory order.
    points = np.empty((n, d))
    for seg in tree.segments:
        points[:, seg.columns] = leaf_point_densities(x, leaf_tables[seg])
    return points.mean(axis=1)
