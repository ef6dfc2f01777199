"""Independent brute-force reference implementations used as test oracles.

Everything here is written as straight-line nested loops over plain
Python lists: candidate sets are rebuilt per query, occurrence counts
are obtained by scanning all rows, and no key -> count tables are ever
constructed.  Only tree structures and sampled hash parameters are taken
from the objects under test, so both sides of every comparison consume
the same randomness while computing the answer through disjoint code.
:func:`tree_hash_fns` draws a tree's hash parameters itself, one scalar at
a time, to check the ones ``fit`` draws for all leaves at once;
:func:`leaf_hash_fns` draws a leaf's from a stream of its own, which the
score fingerprints were recorded under.
"""

from __future__ import annotations

import math

from dlde.forest import TSForest
from dlde.seeding import TREE_STREAM, spawn_rng
from dlde.tstree import Segment, TSTree, build_tstree, leaves

HASH_STREAM = 1  # spawn-key word of the per-leaf streams of leaf_hash_fns


def is_full_binary(depths: tuple[int, ...]) -> bool:
    """Whether leaf depths, left to right, are those of a full binary tree:
    adjacent siblings (equal depths) merge into their parent until the root."""
    stack: list[int] = []
    for depth in depths:
        while stack and stack[-1] == depth:
            stack.pop()
            depth -= 1
        stack.append(depth)
    return stack == [0]


def leaf_hash_fns(seed: int, tree: int, ordinal: int, n: int, h: int) -> list[tuple[float, float]]:
    """(width, offset) of the ``h`` functions of leaf ``ordinal`` of tree
    ``tree``: h sequential pairs of ``uniform`` draws from the leaf's own
    generator, the width on [1/log2(n), 1 - 1/log2(n)], the offset on [0, width]."""
    rng = spawn_rng(seed, HASH_STREAM, tree, ordinal)
    lo = 1.0 / math.log2(n)
    fns = []
    for _ in range(h):
        width = rng.uniform(lo, 1.0 - lo)
        fns.append((width, rng.uniform(0.0, width)))
    return fns


def tree_hash_fns(
    seed: int, tree: int, d: int, n: int, h: int, hlimit: int, slimit: int
) -> list[list[tuple[float, float]]]:
    """(width, offset) of the ``h`` functions of every leaf of tree ``tree``,
    leaf by leaf.  The tree's own generator regrows it, then draws, for each
    function in turn, a ``uniform`` width on [1/log2(n), 1 - 1/log2(n)] for
    every leaf, then a ``uniform`` offset on [0, width] for every leaf."""
    rng = spawn_rng(seed, TREE_STREAM, tree)
    segments = build_tstree(d, hlimit, slimit, rng).segments
    lo = 1.0 / math.log2(n)
    fns: list[list[tuple[float, float]]] = [[] for _ in segments]
    for _ in range(h):
        widths = [rng.uniform(lo, 1.0 - lo) for _ in segments]
        for leaf, width in zip(fns, widths):
            leaf.append((width, rng.uniform(0.0, width)))
    return fns


def hash_value(fn, value: float) -> int:
    """Bucket key of one sample value, as an exact Python int."""
    return math.floor((value + fn.offset) / fn.width)


def tree_point_densities(
    rows: list[list[float]],
    tree: TSTree,
    fns_by_leaf: dict[Segment, tuple],
) -> list[list[float]]:
    """Per-point densities (N x d) under one tree, by exhaustive scanning."""
    n = len(rows)
    d = len(rows[0])
    out = [[0.0] * d for _ in range(n)]
    for seg in leaves(tree):
        fns = fns_by_leaf[seg]
        cols = list(range(seg.start, seg.end + 1))
        # hoisted hash keys; counting below still scans every row
        keys = [
            [[hash_value(fn, rows[k][tc - 1]) for tc in cols] for k in range(n)]
            for fn in fns
        ]
        for k in range(n):
            for ti, t in enumerate(cols):
                tn = set(cols)
                for j in range(len(fns)):
                    key = keys[j][k][ti]
                    candidates = set()
                    for ci, tc in enumerate(cols):
                        for kk in range(n):
                            if keys[j][kk][ci] == key:
                                candidates.add(tc)
                                break
                    tn &= candidates
                total = 0
                for tc in tn:
                    ci = cols.index(tc)
                    for j in range(len(fns)):
                        key = keys[j][k][ti]
                        for kk in range(n):
                            if keys[j][kk][ci] == key:
                                total += 1
                out[k][t - 1] = total / len(tn)
    return out


def tree_row_densities(
    rows: list[list[float]],
    tree: TSTree,
    fns_by_leaf: dict[Segment, tuple],
) -> list[float]:
    """Per-row subsequence densities: mean of the point densities."""
    d = len(rows[0])
    matrix = tree_point_densities(rows, tree, fns_by_leaf)
    return [sum(row) / d for row in matrix]


def forest_scores(rows: list[list[float]], forest: TSForest) -> list[float]:
    """Ensemble scores: mean of per-tree row densities over all trees."""
    n = len(rows)
    acc = [0.0] * n
    for model in forest.trees:
        fns_by_leaf = {seg: tables.fns for seg, tables in model.leaf_tables.items()}
        for k, value in enumerate(tree_row_densities(rows, model.tree, fns_by_leaf)):
            acc[k] += value
    return [a / len(forest.trees) for a in acc]


def pairwise_auc(scores, labels) -> float:
    """AUC by enumerating every anomaly/normal pair; ties count one half."""
    anomalies = [s for s, y in zip(scores, labels) if y == 1]
    normals = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for a in anomalies:
        for b in normals:
            if a < b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(anomalies) * len(normals))
