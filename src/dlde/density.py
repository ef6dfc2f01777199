"""Dynamic local density of data points and subsequences under one tree.

For a value ``q`` at time ``t``, each of the h bucketing functions of the
leaf segment containing ``t`` gives a candidate set N_j: the segment's
columns where some row has q's key.  Their intersection TN filters chance
collisions; the density of ``q`` is the mean, over the columns in TN, of
q's key counts summed over the h functions.  Low density marks anomalies.

Scoring is transductive: counts come from the matrix being scored, so TN
holds q's own column and every density is >= h.  Nothing here checks its
input: ``fit`` admitted the matrix, and with it a finite float64 value for
every key (see :func:`dlde.hashing.check_dataset`).  Keys never decrease as
the value grows, so in a leaf's sorted values one key tuple is one run, a
*cell*, and one key of one function a run of cells.

:func:`leaf_point_densities` reads a leaf's functions as the two fields
of its :data:`~dlde.hashing.HASH_FN` row, (h, 1) columns of offsets and
widths that hash values under all h at once.  It needs, for every cell
edge, the count of each column's values before it, and for every
function, the edges where its key changes.  It finds them in one of three
ways, all of which give the same integers:

- *Column search.*  A leaf too large to hash in one ``_BLOCK``, whose key
  boundaries number at most ``_BOUNDARY_SHARE`` of its rows, looks up
  each boundary's value once in each of its columns, sorted once per
  score by :func:`sort_columns` and shared by every tree.  The positions
  found are the counts, so the leaf sorts, hashes and counts nothing of
  its own beyond the values either side of each position.
- *Merged search.*  Otherwise the leaf sorts its values.  Where it spans
  at most ``_BOUNDARY_SHARE`` key boundaries a value, it hashes only its
  two extremes and searches its sorted values for each boundary.
- *Full hashing.*  Otherwise, or when a search cannot prove a position
  with the key formula, it hashes every sorted value, in blocks of
  functions that fit ``_BLOCK`` elements.

Both searches first bound the number of boundaries from below by the
spread of the values, and skip the search before hashing anything where
that bound alone is over their limit.  Which way a leaf takes depends on
its size and values only.  A key's count in a column is then a difference
of cumulative cell counts, read in blocks of functions that fit
``_BLOCK``.  The sums are exact integers, so neither the way nor the
blocks change a bit.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from .hashing import LeafTables, bucket_keys
from .tstree import Segment

__all__ = ["leaf_point_densities", "row_densities", "sort_columns"]

_BLOCK = 2**14  # elements of a block's (g, values) keys or (g, cells + 1, L) sums
_BOUNDARY_SHARE = 1 / 8  # a search takes at most this many key boundaries a value, or a row
_EXACT_KEYS = 2.0**52  # and keys below this magnitude

# () -> sort_columns of the scored matrix, built by the first call
SortedColumns = Callable[[], tuple[np.ndarray, np.ndarray]]


def sort_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column of the (N, d) matrix ``x`` in ascending order, and where
    each of its values went.

    Returns:
        A (d, N + 2) array whose row c is column c sorted, between -inf and
        inf, and a (d, N) array whose entry (c, k) is the place of x[k, c]
        in that sorted column, counted from 0 after the -inf.
    """
    columns = x.T  # contiguous rows for a column-major x
    order = columns.argsort(axis=1)
    padded = np.empty((columns.shape[0], columns.shape[1] + 2))
    padded[:, 0], padded[:, -1] = -np.inf, np.inf
    padded[:, 1:-1] = np.take_along_axis(columns, order, axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(columns.shape[1]), axis=1)
    return padded, ranks


def leaf_point_densities(
    x: np.ndarray, tables: LeafTables, *, sorted_columns: SortedColumns | None = None
) -> np.ndarray:
    """Point densities of every value of ``x`` inside one leaf segment.

    Unchecked: ``x`` must be the matrix ``tables`` was built from, whose
    keys :func:`dlde.hashing.check_dataset` proved below 2**63 in
    magnitude, and so finite, once per fit.  A column-major ``x`` gives the
    same bits as a row-major one, and its leaf blocks are slices.

    Args:
        x: The full (N, d) matrix being scored; the counts are its own.
        tables: The leaf's segment and hash functions.
        sorted_columns: Returns :func:`sort_columns` of ``x``, called only
            by a leaf that takes the column search; ``None`` leaves every
            leaf to the merged search or full hashing.

    Returns:
        (N, L) array, L the segment length; entry (k, i) is the density of
        x[k, segment.start - 1 + i] at its own time index.
    """
    n, length = x.shape[0], tables.segment.length
    offsets, widths = tables.fns["offset"][:, None], tables.fns["width"][:, None]
    h = len(offsets)
    if sorted_columns is not None and h * n * length > _BLOCK:
        out = _column_search(x, tables.segment, offsets, widths, sorted_columns)
        if out is not None:
            return out
    values = x[:, tables.segment.columns].T.ravel()  # time-major: value p is in column p // n
    order = values.argsort()
    ordered = values.take(order)

    # changes[j, p]: function j's key differs between sorted values p - 1
    # and p, and is true at both ends; cells end wherever any key changes.
    changes = _boundary_changes(ordered, offsets, widths)
    if changes is None:  # hash every sorted value
        changes = np.ones((h, ordered.size + 1), dtype=bool)
        g = max(1, _BLOCK // ordered.size)
        for j in range(0, h, g):
            keys = bucket_keys(ordered, offsets[j : j + g], widths[j : j + g])
            np.not_equal(keys[:, 1:], keys[:, :-1], out=changes[j : j + g, 1:-1])
    edges = changes.any(axis=0).nonzero()[0]
    sizes = edges[1:] - edges[:-1]

    # counts[c, i]: the points in column i of the cells before cell c, typed for -h*n..h*n.
    index = np.arange(length, edges.size * length, length).repeat(sizes) + order // n
    counts = np.bincount(index, minlength=edges.size * length).reshape(-1, length)
    counts = counts.cumsum(axis=0, dtype=np.min_scalar_type(-1 - h * n))
    out = np.empty(ordered.size)
    out[order] = _cell_densities(counts, changes.take(edges, axis=1)).repeat(sizes)
    return out.reshape(length, n).T


def _cell_densities(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The density of each cell's points, from ``counts[c, i]``, the points
    in column i before cell edge c, and ``starts[j, c]``, whether function
    j's key changes at edge c; both are true at the first and last edge."""
    length = counts.shape[1]
    h, edges = starts.shape
    # Under function j each key is a run of cells; its count in column i is
    # the difference of counts at the run's edges, positive where i is in N_j.
    # A point's own column is in every N_j.  A block is one slice of the run
    # edges laid end to end, read modulo edges; each function's spare last
    # row takes the step to the next function, and is dropped.
    starts = starts.ravel()
    g = min(h, max(1, _BLOCK // counts.size))
    total = np.zeros((g, edges, length), dtype=counts.dtype)
    member = np.ones(total.shape, dtype=bool)
    for j in range(0, starts.size, g * edges):
        runs = starts[j : j + g * edges].nonzero()[0]
        at = counts.take(runs, axis=0, mode="wrap")
        run = at[1:] - at[:-1]
        lengths = runs[1:] - runs[:-1]
        total.reshape(-1, length)[: runs[-1]] += run.repeat(lengths, axis=0)
        member.reshape(-1, length)[: runs[-1]] &= (run > 0).repeat(lengths, axis=0)
    member = member[:, :-1].all(axis=0)
    sums = np.einsum("gij,ij->i", total[:, :-1], member, dtype=np.int64)
    return sums / np.einsum("ij->i", member, dtype=np.int64)


def _key_boundaries(
    low: float, high: float, offsets: np.ndarray, widths: np.ndarray, limit: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Every key boundary between the values ``low`` and ``high`` under the
    (h, 1) columns ``offsets`` and ``widths``: for each function j in turn
    and each k in (lo_j, hi_j], its keys of ``low`` and ``high``, the arrays
    of j, of k, and of j's offset and width.  ``None`` where the boundaries
    number over ``limit``, or a key reaches ``_EXACT_KEYS``.

    Before it hashes anything, the spread bounds the boundaries from below,
    through ``reach`` = sum of 1 / w_j, the key boundaries one unit of
    spread crosses over all h.  Where that bound alone is over ``limit``,
    the extremes' keys would be too, so the search is skipped and the path,
    never a bit, is what this decides.
    """
    # Function j's keys span more than (high - low) / w_j - 1 boundaries.
    # Rounding moves a float key by at most 2**-52 of its magnitude, at most
    # |high| / w_j + 1 or |low| / w_j + 1 as o_j <= w_j, and the bound by h + 3
    # roundings.  The slack covers both, and one boundary more, so that a
    # key that rounds down on a bucket edge cannot tip the decision.
    h = len(offsets)
    reach = float((1.0 / widths).sum())
    slack = 1.0 + (h + 8) * 2.0**-52 * ((abs(low) + abs(high)) * reach + 2 * h)
    if (high - low) * reach - h - slack > limit:
        return None
    lo, hi = bucket_keys(np.array([low, high]), offsets, widths).T
    spans = hi - lo
    if max(-lo.min(), hi.max()) >= _EXACT_KEYS or spans.sum() > limit:
        return None
    spans = spans.astype(np.intp)
    fn = np.arange(h).repeat(spans)
    k = np.arange(fn.size) + (lo + 1 - (spans.cumsum() - spans)).repeat(spans)
    return fn, k, offsets[fn, 0], widths[fn, 0]


def _boundary_changes(
    ordered: np.ndarray, offsets: np.ndarray, widths: np.ndarray
) -> np.ndarray | None:
    """The key changes of :func:`leaf_point_densities` from a search of the
    sorted values ``ordered``, or ``None`` where :func:`_key_boundaries`
    gives none within ``_BOUNDARY_SHARE`` of the values, or one position is
    not proven.

    Function j's key first reaches k at about the first value at or above
    k * w_j - o_j.  The key formula on that value and the one before it
    proves the position exactly.
    """
    found = _key_boundaries(
        float(ordered[0]), float(ordered[-1]), offsets, widths, _BOUNDARY_SHARE * ordered.size
    )
    if found is None:
        return None
    fn, k, offset, width = found
    at = ordered[1:-1].searchsorted(k * width - offset) + 1  # in 1..size - 1
    before, after = bucket_keys(ordered.take(at - [[1], [0]]), offset, width)
    if not ((before < k) & (k <= after)).all():
        return None
    changes = np.zeros((len(offsets), ordered.size + 1), dtype=bool)
    changes[:, 0] = changes[:, -1] = True
    changes[fn, at] = True
    return changes


def _column_search(
    x: np.ndarray, segment: Segment, offsets: np.ndarray, widths: np.ndarray,
    sorted_columns: SortedColumns,
) -> np.ndarray | None:
    """:func:`leaf_point_densities` from a search of each column's sorted
    values, or ``None`` where :func:`_key_boundaries` gives none within
    ``_BOUNDARY_SHARE`` of the rows, or one position is not proven.

    Column i has, before function j's key boundary k, the values whose key
    is below k.  Those sets are prefixes of the value line, nested alike in
    every column, so equal position sums are equal position vectors, and
    one cell edge.  A cell's values in column i are a run of its sorted
    values, and each row reads its density at its value's place there.
    """
    n = x.shape[0]
    block = x[:, segment.columns]  # its own extremes: a leaf ruled out sorts nothing
    found = _key_boundaries(
        float(block.min()), float(block.max()), offsets, widths, _BOUNDARY_SHARE * n
    )
    if found is None:
        return None
    fn, k, offset, width = found
    padded, ranks = (a[segment.start - 1 : segment.end] for a in sorted_columns())
    # at[i, b]: the first value of column i at or above boundary b's value,
    # indexed in its padded row, so in 1..n + 1
    thresholds = k * width - offset
    at = np.empty((segment.length, k.size), dtype=np.intp)
    for i, column in enumerate(padded):
        at[i] = column.searchsorted(thresholds)
    rows = np.arange(segment.length)[:, None] * (n + 2)
    below, above = bucket_keys(padded.take(at + rows - [[[1]], [[0]]]), offset, width)
    if not ((below < k) & (k <= above)).all():
        return None
    # The boundaries by position, each run of equal ones merged into one edge.
    totals = at.sum(axis=0)
    by_total = totals.argsort()
    edge = np.ones(k.size, dtype=bool)
    np.not_equal(totals[by_total[1:]], totals[by_total[:-1]], out=edge[1:])
    cell = np.empty(k.size, dtype=np.intp)
    cell[by_total] = edge.cumsum()
    first = by_total[edge]
    counts = np.empty((first.size + 2, segment.length), np.min_scalar_type(-1 - len(offsets) * n))
    counts[0], counts[1:-1], counts[-1] = 0, at.T[first] - 1, n
    starts = np.zeros((len(offsets), first.size + 2), dtype=bool)
    starts[:, 0] = starts[:, -1] = True
    starts[fn, cell] = True
    densities = _cell_densities(counts, starts)
    sizes = counts[1:] - counts[:-1]
    out = np.empty((segment.length, n))
    for i, column_ranks in enumerate(ranks):
        densities.repeat(sizes[:, i]).take(column_ranks, out=out[i])
    return out.T


def row_densities(
    x: np.ndarray, leaf_tables: Iterable[LeafTables], *,
    sorted_columns: SortedColumns | None = None,
) -> np.ndarray:
    """Per-row subsequence densities under one tree, for all N rows at once.

    Row ``k``'s density is the mean of its d point densities.  Unchecked:
    ``x`` is the fitted matrix, and the segments of ``leaf_tables``, one
    tree's leaves, partition its columns.  ``sorted_columns`` is passed to
    every :func:`leaf_point_densities` call.
    """
    n, d = x.shape
    # Leaf blocks fill a C-ordered (N, d) per-point density matrix, each
    # column once; the row mean's summation order, and so every score bit,
    # follows that layout, whatever the blocks' own memory order.
    points = np.empty((n, d))
    for tables in leaf_tables:
        points[:, tables.segment.columns] = leaf_point_densities(
            x, tables, sorted_columns=sorted_columns
        )
    return points.mean(axis=1)
