"""Dynamic local density of data points and subsequences under one tree.

For a value ``q`` observed at time ``t``, the leaf segment containing
``t`` is the neighborhood searched for similar points.  Each bucketing
function j contributes a candidate set N_j: the columns of the segment
whose table contains q's bucket key.  Their intersection TN filters
spurious collisions; the density of ``q`` is then the mean, over columns
in TN, of the total bucket count of q's key summed across all h
functions.  A subsequence's density is the mean point density over its
d time points, so low density marks rows whose values are rarely matched
inside their leaf neighborhoods.

Scoring is transductive: densities are defined for values of rows that
were inserted when the tables were built, which guarantees every point
finds itself (TN is never empty and every density is >= 1).  A point's
density depends only on its tuple of h bucket keys, so
:func:`leaf_point_densities` computes it once per distinct tuple in a
leaf and gathers the result back to the points.

:func:`point_density` and :func:`subsequence_density` are the one-point
reference path; :func:`row_densities` computes the same quantities for
all rows of the fitted matrix at once and is what the forest uses.  Both
read the same count arrays, and they agree exactly (integer bucket
counts, identical divisions), which the test suite pins down.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .hashing import LeafTables, hash_keys, hash_value, key_digits
from .tstree import Segment, TSTree, leaves, locate_leaf

__all__ = [
    "similar_time_points",
    "true_similar_set",
    "point_density",
    "subsequence_density",
    "leaf_point_densities",
    "row_densities",
]

SimilaritySet = set[int]


def _key_counts(q: float, tables: LeafTables, j: int) -> np.ndarray:
    """Per-column counts of q's bucket key in table ``j``; zeros if absent."""
    hit = np.flatnonzero(tables.keys[j] == hash_value(tables.fns[j], q))
    if hit.size == 0:
        return np.zeros(tables.segment.length, dtype=np.int64)
    return tables.counts[j][hit[0]]


def similar_time_points(q: float, tables: LeafTables, j: int) -> SimilaritySet:
    """Columns of the leaf segment whose j-th table contains q's bucket key.

    ``j`` indexes ``tables.fns`` (0-based).  Returns 1-based time indices.
    """
    start = tables.segment.start
    return {start + int(c) for c in np.flatnonzero(_key_counts(q, tables, j))}


def true_similar_set(q: float, tables: LeafTables) -> SimilaritySet:
    """Intersection of the candidate sets of all hash functions.

    Starts from the full segment and narrows it per function; for a value
    stored in the tables the result always contains its own column.
    """
    seg = tables.segment
    tn: SimilaritySet = set(range(seg.start, seg.end + 1))
    for j in range(tables.h):
        tn &= similar_time_points(q, tables, j)
    return tn


def point_density(
    q: float,
    t: int,
    tree: TSTree,
    leaf_tables: Mapping[Segment, LeafTables],
) -> float:
    """Dynamic local density of value ``q`` observed at time index ``t``.

    Args:
        q: Sample value; must come from a row inserted into the tables.
        t: 1-based time index of the value.
        tree: The tree whose leaf partition defines the neighborhood.
        leaf_tables: Tables for every leaf of ``tree``, keyed by segment.

    Returns:
        Mean over the true-similarity columns of the per-column count of
        q's bucket key, summed across all hash functions.  Lies in
        [1, h * n_rows] for stored values.

    Raises:
        IndexError: ``t`` outside the tree's span.
        ValueError: ``q`` matches no column at all (a value that was never
            inserted; densities are undefined for such queries).
    """
    segment = locate_leaf(tree, t)
    tables = leaf_tables[segment]
    tn = true_similar_set(q, tables)
    if not tn:
        raise ValueError(
            f"value {q!r} at t={t} has an empty similarity set; density is only "
            "defined for values the tables were built from"
        )
    rows = [_key_counts(q, tables, j) for j in range(tables.h)]
    total = sum(int(row[tj - segment.start]) for tj in tn for row in rows)
    return total / len(tn)


def subsequence_density(
    row: Sequence[float] | np.ndarray,
    tree: TSTree,
    leaf_tables: Mapping[Segment, LeafTables],
) -> float:
    """Mean point density over all time points of one subsequence.

    Raises:
        ValueError: row length differs from the tree's axis length.
    """
    values = np.asarray(row, dtype=np.float64)
    if values.shape != (tree.d,):
        raise ValueError(
            f"row of length {values.shape} does not match axis length {tree.d}"
        )
    per_point = np.array(
        [
            point_density(float(values[t - 1]), t, tree, leaf_tables)
            for t in range(1, tree.d + 1)
        ]
    )
    return float(per_point.mean())


def leaf_point_densities(x: np.ndarray, tables: LeafTables) -> np.ndarray:
    """Point densities of every stored value inside one leaf segment.

    Args:
        x: The full (N, d) matrix the tables were built from.
        tables: Count tables of the leaf.

    Returns:
        (N, L) array, L the segment length; entry (k, i) is the density of
        x[k, segment.start - 1 + i] at its own time index.

    Raises:
        ValueError: ``x`` holds a value the tables were not built from.
    """
    block = x[:, tables.segment.columns]
    n, length = block.shape

    # Per hash function, every point's key as a digit (see key_digits) and
    # the count-matrix row of every digit, -1 where the tables lack the key.
    # Digits combine into one mixed-radix code per key tuple; codes are
    # compacted to their ranks before a product could overflow int64.
    lookups = []
    code = np.zeros(n * length, dtype=np.int64)
    span = 1  # codes lie in [0, span)
    for fn, keys in zip(tables.fns, tables.keys):
        values, digit = key_digits(hash_keys(fn, block).ravel())
        row = np.minimum(np.searchsorted(keys, values), keys.size - 1)
        lookups.append((np.where(keys[row] == values, row, -1), digit))
        if span > np.iinfo(np.int64).max // values.size:
            uniq, code = np.unique(code, return_inverse=True)
            span = uniq.size
        code = code * values.size + digit
        span *= values.size

    # Intersection and count sum once per distinct tuple, through any one
    # of its points: counts[u, c] is the occurrences of tuple u's key in
    # column c.
    uniq, inverse = np.unique(code, return_inverse=True)
    first = np.empty(uniq.size, dtype=np.intp)
    first[inverse] = np.arange(code.size)
    total = np.zeros((uniq.size, length), dtype=np.int64)
    member = np.ones((uniq.size, length), dtype=bool)
    for (row, digit), matrix in zip(lookups, tables.counts):
        rows = row[digit[first]]
        counts = np.where(rows[:, None] >= 0, matrix[rows], 0)  # a lacking key: N_j empty
        total += counts
        member &= counts > 0
    tn_size = member.sum(axis=1)
    if np.any(tn_size == 0):
        raise ValueError(
            "matrix contains values the tables were not built from; "
            "densities are only defined transductively"
        )
    return ((total * member).sum(axis=1) / tn_size)[inverse].reshape(n, length)


def row_densities(
    x: np.ndarray, tree: TSTree, leaf_tables: Mapping[Segment, LeafTables]
) -> np.ndarray:
    """Per-row subsequence densities under one tree, for all N rows at once.

    Equivalent to calling :func:`subsequence_density` on every row of the
    fitted matrix.
    """
    n, d = x.shape
    if d != tree.d:
        raise ValueError(f"matrix width {d} does not match axis length {tree.d}")
    # Leaf blocks concatenate to the full (N, d) per-point density matrix in
    # temporal order, so the row mean reduces the same values in the same
    # order as subsequence_density does point by point.
    blocks = [leaf_point_densities(x, leaf_tables[seg]) for seg in leaves(tree)]
    return np.concatenate(blocks, axis=1).mean(axis=1)
