"""Dynamic local density of data points and subsequences under one tree.

For a value ``q`` at time ``t``, each of the h bucketing functions of the
leaf segment containing ``t`` gives a candidate set N_j: the segment's
columns where some row has q's key.  Their intersection TN filters chance
collisions; the density of ``q`` is the mean, over the columns in TN, of
q's key counts summed over the h functions.  Low density marks anomalies.

Scoring is transductive: counts come from the matrix being scored, so TN
holds q's own column and every density is >= h.  Nothing here checks its
input: ``fit`` admitted the matrix, and with it the int64 range of every
key (see :func:`dlde.hashing.check_dataset`).  Keys never decrease as the
value grows, so in a leaf's sorted values one key tuple is one run, a
*cell*, and one key of one function a run of cells.

:func:`leaf_point_densities` first finds where each function's key
changes in the sorted values.  Where a leaf spans few keys, it hashes only
the two extremes and searches for each key boundary between them, proving
each position with the key formula.  Otherwise, or when a proof fails, it
hashes every value, in blocks of functions that fit ``_BLOCK`` elements.
Both give the same positions.  It then reads a key's count as a difference
of cumulative cell counts, again in blocks of functions that fit
``_BLOCK``.  The sums are exact integers, so neither the path nor the
blocks change a bit.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .hashing import LeafTables, bucket_keys
from .tstree import Segment, TSTree

__all__ = ["leaf_point_densities", "row_densities"]

_BLOCK = 2**14  # elements of a block's (g, values) keys or (g, cells + 1, L) sums
_BOUNDARY_SHARE = 1 / 8  # boundary hashing needs at most this many key boundaries a value
_EXACT_KEYS = 2.0**52  # and keys below this magnitude


def leaf_point_densities(x: np.ndarray, tables: LeafTables) -> np.ndarray:
    """Point densities of every value of ``x`` inside one leaf segment.

    Unchecked: ``x`` must be the matrix ``tables`` was built from, whose
    keys :func:`dlde.hashing.check_dataset` proved to fit int64 once per
    fit.  A column-major ``x`` gives the same bits as a row-major one, and
    its leaf blocks are slices.

    Args:
        x: The full (N, d) matrix being scored; the counts are its own.
        tables: The leaf's segment and hash functions.

    Returns:
        (N, L) array, L the segment length; entry (k, i) is the density of
        x[k, segment.start - 1 + i] at its own time index.
    """
    n, length, fns = x.shape[0], tables.segment.length, tables.fns
    values = x[:, tables.segment.columns].T.ravel()  # time-major: value p is in column p // n
    order = values.argsort()
    ordered = values.take(order)
    offsets, widths = np.array([f.offset for f in fns] + [f.width for f in fns]).reshape(2, -1, 1)

    # changes[j, p]: function j's key differs between sorted values p - 1
    # and p, and is true at both ends; cells end wherever any key changes.
    changes = _boundary_changes(ordered, offsets, widths)
    if changes is None:  # hash every sorted value
        changes = np.ones((len(fns), ordered.size + 1), dtype=bool)
        g = max(1, _BLOCK // ordered.size)
        for j in range(0, len(fns), g):
            keys = bucket_keys(ordered, offsets[j : j + g], widths[j : j + g])
            np.not_equal(keys[:, 1:], keys[:, :-1], out=changes[j : j + g, 1:-1])
    edges = changes.any(axis=0).nonzero()[0]
    sizes = edges[1:] - edges[:-1]

    # counts[c, i]: the points in column i of the cells before cell c, typed for -h*n..h*n.
    index = np.arange(length, edges.size * length, length).repeat(sizes) + order // n
    counts = np.bincount(index, minlength=edges.size * length).reshape(-1, length)
    counts = counts.cumsum(axis=0, dtype=np.min_scalar_type(-1 - len(fns) * n))

    # Under function j each key is a run of cells; its count in column i is
    # the difference of counts at the run's edges, positive where i is in N_j.
    # A point's own column is in every N_j.  A block is one slice of the run
    # edges laid end to end, read modulo edges.size; each function's spare
    # last row takes the step to the next function, and is dropped.
    starts = changes.take(edges, axis=1).ravel()
    g = min(len(fns), max(1, _BLOCK // counts.size))
    total = np.zeros((g, edges.size, length), dtype=counts.dtype)
    member = np.ones(total.shape, dtype=bool)
    for j in range(0, starts.size, g * edges.size):
        runs = starts[j : j + g * edges.size].nonzero()[0]
        at = counts.take(runs, axis=0, mode="wrap")
        run = at[1:] - at[:-1]
        lengths = runs[1:] - runs[:-1]
        total.reshape(-1, length)[: runs[-1]] += run.repeat(lengths, axis=0)
        member.reshape(-1, length)[: runs[-1]] &= (run > 0).repeat(lengths, axis=0)
    member = member[:, :-1].all(axis=0)
    sums = np.einsum("gij,ij->i", total[:, :-1], member, dtype=np.int64)
    out = np.empty(ordered.size)
    out[order] = (sums / np.einsum("ij->i", member, dtype=np.int64)).repeat(sizes)
    return out.reshape(length, n).T


def _boundary_changes(
    ordered: np.ndarray, offsets: np.ndarray, widths: np.ndarray
) -> np.ndarray | None:
    """The key changes of :func:`leaf_point_densities`, found from the keys
    of the two extremes and the key boundaries between them, or ``None``
    where a key reaches ``_EXACT_KEYS``, the boundaries number over
    ``_BOUNDARY_SHARE`` of the values, or one position is not proven.

    Function j's key first reaches k, for each k in (lo_j, hi_j], at about
    the first value at or above k * w_j - o_j.  The key formula on that
    value and the one before it proves the position exactly.
    """
    lo, hi = bucket_keys(ordered[[0, -1]], offsets, widths).T
    spans = hi - lo
    if max(-lo.min(), hi.max()) >= _EXACT_KEYS or spans.sum() > _BOUNDARY_SHARE * ordered.size:
        return None
    # each function's boundaries in turn: k, and its function's offset and width
    spans = spans.astype(np.intp)
    offset, width = offsets[:, 0].repeat(spans), widths[:, 0].repeat(spans)
    k = np.arange(offset.size) + (lo + 1 - (spans.cumsum() - spans)).repeat(spans)
    at = ordered[1:-1].searchsorted(k * width - offset) + 1  # in 1..size - 1
    before, after = bucket_keys(ordered.take(at - [[1], [0]]), offset, width)
    if not ((before < k) & (k <= after)).all():
        return None
    changes = np.zeros((spans.size, ordered.size + 1), dtype=bool)
    changes[:, 0] = changes[:, -1] = True
    changes[np.arange(spans.size).repeat(spans), at] = True
    return changes


def row_densities(
    x: np.ndarray, tree: TSTree, leaf_tables: Mapping[Segment, LeafTables]
) -> np.ndarray:
    """Per-row subsequence densities under one tree, for all N rows at once.

    Row ``k``'s density is the mean of its d point densities.  Unchecked:
    ``x`` is the fitted matrix, ``tree.d`` columns wide.
    """
    n, d = x.shape
    # Leaf blocks fill a C-ordered (N, d) per-point density matrix in
    # temporal order; the row mean's summation order, and so every score
    # bit, follows that layout, whatever the blocks' own memory order.
    points = np.empty((n, d))
    for seg in tree.segments:
        points[:, seg.columns] = leaf_point_densities(x, leaf_tables[seg])
    return points.mean(axis=1)
