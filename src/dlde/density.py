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
function.  A point's density depends only on its h bucket keys, and keys
never decrease as the value grows: in a leaf's sorted values one key
tuple is one run, a *cell*, and one key of one function a run of cells.
:func:`leaf_point_densities` counts cells per column once and reads a
key's count as a difference of cumulative cell counts;
:func:`row_densities` averages point densities over each row.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .hashing import LeafTables, bucket_keys
from .tstree import Segment, TSTree

__all__ = ["leaf_point_densities", "row_densities"]


def leaf_point_densities(x: np.ndarray, tables: LeafTables) -> np.ndarray:
    """Point densities of every value of ``x`` inside one leaf segment.

    Unchecked: ``x`` must be the matrix ``tables`` was built from, whose
    keys :func:`dlde.hashing.build_leaf_tables` checked to fit int64.

    Args:
        x: The full (N, d) matrix being scored; the counts are its own.
        tables: The leaf's segment and hash functions.

    Returns:
        (N, L) array, L the segment length; entry (k, i) is the density of
        x[k, segment.start - 1 + i] at its own time index.
    """
    n, length = x.shape[0], tables.segment.length
    values = x[:, tables.segment.columns].T.ravel()  # time-major: value p is in column p // n
    order = values.argsort()
    ordered = values.take(order)

    # changes[j, p]: function j's key differs between sorted values p - 1
    # and p, and is true at both ends; cells end wherever any key changes.
    changes = np.ones((len(tables.fns), ordered.size + 1), dtype=bool)
    for fn, change in zip(tables.fns, changes):
        keys = bucket_keys(ordered, fn.offset, fn.width)
        np.not_equal(keys[1:], keys[:-1], out=change[1:-1])
    edges = changes.any(axis=0).nonzero()[0]
    sizes = edges[1:] - edges[:-1]

    # counts[c, i]: the points in column i of the cells before cell c.
    index = np.arange(length, edges.size * length, length).repeat(sizes) + order // n
    counts = np.bincount(index, minlength=edges.size * length).reshape(-1, length)
    del index
    counts.cumsum(axis=0, out=counts)

    # Under function j each key is a run of cells; its count in column i is
    # the difference of counts at the run's edges, positive where i is in N_j.
    # A point's own column is in every N_j.  einsum needs no (cells, L) product.
    total = np.zeros((sizes.size, length), dtype=np.int64)
    member = np.ones(total.shape, dtype=bool)
    for start in changes.take(edges, axis=1):
        runs = start.nonzero()[0]
        at = counts.take(runs, axis=0)
        run = at[1:] - at[:-1]
        lengths = runs[1:] - runs[:-1]
        total += run.repeat(lengths, axis=0)
        member &= (run > 0).repeat(lengths, axis=0)
    density = np.einsum("ij,ij->i", total, member) / np.einsum("ij->i", member, dtype=np.int64)
    out = np.empty(ordered.size)
    out[order] = density.repeat(sizes)
    return out.reshape(length, n).T


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
