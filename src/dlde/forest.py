"""Ensembles of time-split trees and the final anomaly scores.

A forest holds ``m`` independently randomized trees, each with its own
bucketing functions per leaf.  A subsequence's score is its mean density
across trees; low scores mark rows that are rarely matched inside their
leaf neighborhoods, i.e. likely anomalies.  Scores are min-max flipped
into anomaly scores in [0, 1] so that the most anomalous row gets the
highest value.

Scoring is transductive: the bucket counts are taken over the scored
matrix itself, so the forest keeps the dataset it was fitted on and
scores that one; :func:`score` refuses a matrix with other values.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .density import row_densities
from .errors import require_int
from .hashing import LeafTables, build_leaf_tables, check_dataset, sample_hash_fn
from .seeding import HASH_STREAM, TREE_STREAM, spawn_rng, spawn_uniforms
from .tstree import Segment, TSTree, build_tstree

__all__ = [
    "TreeModel",
    "TSForest",
    "ScoreVector",
    "fit",
    "score",
    "anomaly_scores",
]


@dataclass(frozen=True)
class TreeModel:
    tree: TSTree
    leaf_tables: dict[Segment, LeafTables]


@dataclass(frozen=True)
class TSForest:
    trees: tuple[TreeModel, ...]
    hlimit: int  # resolved: floor(log2(d)) when fit was given None
    dataset: LabeledDataset  # the fitted rows, which scoring counts over


@dataclass(frozen=True)
class ScoreVector:
    """Per-subsequence ensemble densities and normalized anomaly scores.

    ``scores[k]`` is the mean density of row k across trees (higher =
    more typical); ``anomaly_scores[k]`` flips that into [0, 1] (higher =
    more anomalous).
    """

    scores: np.ndarray
    anomaly_scores: np.ndarray

    def __post_init__(self) -> None:
        for name in ("scores", "anomaly_scores"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def fit(
    dataset: LabeledDataset,
    *,
    m: int = 10,
    h: int = 10,
    slimit: int = 3,
    hlimit: int | None = None,
    seed: int = 0,
) -> TSForest:
    """Build ``m`` random trees with ``h`` hash functions per leaf.

    Args:
        dataset: Rows to index; at least 5 are required for hash-width
            sampling.
        m: Number of trees.
        h: Number of hash functions per leaf.
        slimit: Leaf length threshold for tree growth.
        hlimit: Depth cap; ``None`` resolves to floor(log2(d)).
        seed: Root of all randomness.  Every tree and every leaf draws
            from its own derived stream, so refitting with a larger ``m``
            reproduces the first trees unchanged.

    Raises:
        ConfigurationError: ``m``/``h``/``slimit`` not an integer >= 1,
            ``hlimit`` (unless None) or ``seed`` not an integer >= 0, a
            dataset too small to sample hash widths for, or values so far
            off the unit scale that a bucket key could leave int64 under
            some width (z-normalize such data first).  The parameters are
            checked first, then the dataset, once per fit (see
            :func:`dlde.hashing.check_dataset`).
    """
    m = require_int(m, 1, "tree count")
    h = require_int(h, 1, "hash count")
    slimit = require_int(slimit, 1, "slimit")
    hlimit = int(math.log2(dataset.d)) if hlimit is None else require_int(hlimit, 0, "hlimit")
    seed = require_int(seed, 0, "seed")
    check_dataset(dataset.n, dataset.peak)

    trees = [build_tstree(dataset.d, hlimit, slimit, spawn_rng(seed, TREE_STREAM, i))
             for i in range(m)]
    # one lane per leaf, keyed (HASH_STREAM, tree, ordinal), in tree then leaf order
    ordinals = np.concatenate([np.arange(len(tree.segments)) for tree in trees])
    tree_ids = np.repeat(np.arange(m), [len(tree.segments) for tree in trees])
    keys = np.column_stack((np.full_like(ordinals, HASH_STREAM), tree_ids, ordinals))
    # one (h,) row view per leaf of the read-only (leaves, h) table
    rows = iter(sample_hash_fn(dataset.n, spawn_uniforms(seed, keys, 2 * h)))
    models = tuple(
        TreeModel(tree, {s: build_leaf_tables(dataset, s, fns)
                         for s, fns in zip(tree.segments, rows)})
        for tree in trees
    )

    return TSForest(trees=models, hlimit=hlimit, dataset=dataset)


def score(forest: TSForest, dataset: LabeledDataset) -> ScoreVector:
    """Ensemble densities and anomaly scores for the fitted dataset.

    Raises:
        ValueError: ``dataset``'s matrix differs from the fitted one in
            shape or in any value (-0.0 equals 0.0).
    """
    if not np.array_equal(dataset.subsequences, forest.dataset.subsequences):
        raise ValueError(
            f"dataset of shape {dataset.subsequences.shape} does not match fitted rows; "
            "scores are defined only for the matrix the forest was fitted on"
        )
    *_, acc = _tree_sums(forest)
    scores = acc / len(forest.trees)
    return ScoreVector(scores=scores, anomaly_scores=anomaly_scores(scores))


def _tree_sums(forest: TSForest) -> Iterator[np.ndarray]:
    """Row density sums over the first k trees, yielded in place for k = 1..m.

    The one accumulation whose order decides the bits of every score.
    """
    x = np.asfortranarray(forest.dataset.subsequences)  # each leaf block a slice
    acc = np.zeros(len(x))
    for model in forest.trees:
        acc += row_densities(x, model.leaf_tables.values())
        yield acc


def anomaly_scores(scores: np.ndarray | list[float]) -> np.ndarray:
    """Min-max normalize densities and complement to 1.

    The lowest density maps to 1 (most anomalous) and the highest to 0.
    A constant input carries no evidence either way and maps to 0.5
    everywhere.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise ValueError("scores must be non-empty")
    lo = float(s.min())
    hi = float(s.max())
    if hi == lo:
        return np.full(s.shape, 0.5)
    return 1.0 - (s - lo) / (hi - lo)
