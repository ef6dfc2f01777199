"""Ensembles of time-split trees and the final anomaly scores.

A forest holds ``m`` independently randomized trees, each with its own
bucketing functions per leaf.  A subsequence's score is its mean density
across trees; low scores mark rows that are rarely matched inside their
leaf neighborhoods, i.e. likely anomalies.  Scores are min-max flipped
into anomaly scores in [0, 1] so that the most anomalous row gets the
highest value.

Scoring is transductive: the bucket counts are taken over the scored
matrix itself, so :func:`score` accepts only the matrix the forest was
fitted on, recognized by the sha256 of its bytes.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .density import row_densities
from .errors import ConfigurationError
from .hashing import LeafTables, build_leaf_tables, check_dataset, sample_hash_fn
from .seeding import HASH_STREAM, TREE_STREAM, spawn_rng, validate_seed
from .tstree import Segment, TSTree, build_tstree

__all__ = [
    "ForestParams",
    "TreeModel",
    "TSForest",
    "ScoreVector",
    "fit",
    "score",
    "anomaly_scores",
]


@dataclass(frozen=True)
class ForestParams:
    """Resolved fit parameters (hlimit after the log2(d) default applies)."""

    m: int
    h: int
    slimit: int
    hlimit: int
    seed: int


@dataclass(frozen=True)
class TreeModel:
    tree: TSTree
    leaf_tables: dict[Segment, LeafTables]


@dataclass(frozen=True)
class TSForest:
    trees: tuple[TreeModel, ...]
    params: ForestParams
    n: int
    d: int
    digest: str  # sha256 of the fitted matrix's bytes


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
        ConfigurationError: Non-positive ``m``/``h``/``slimit``, negative
            ``hlimit`` or ``seed``, a dataset too small to sample hash
            widths for, or values so far off the unit scale that a bucket
            key could leave int64 under some width (z-normalize such data
            first).  The parameters are checked first, then the dataset,
            once per fit (see :func:`dlde.hashing.check_dataset`).
    """
    if m < 1:
        raise ConfigurationError(f"tree count must be >= 1, got {m}")
    if h < 1:
        raise ConfigurationError(f"hash count must be >= 1, got {h}")
    if slimit < 1:
        raise ConfigurationError(f"slimit must be >= 1, got {slimit}")
    if hlimit is not None and hlimit < 0:
        raise ConfigurationError(f"hlimit must be >= 0, got {hlimit}")
    seed = validate_seed(seed)
    check_dataset(dataset.n, dataset.peak)
    resolved_hlimit = hlimit if hlimit is not None else int(math.floor(math.log2(dataset.d)))

    trees = []
    for i in range(m):
        tree = build_tstree(
            1, dataset.d, resolved_hlimit, slimit, spawn_rng(seed, TREE_STREAM, i)
        )
        tables: dict[Segment, LeafTables] = {}
        for ordinal, segment in enumerate(tree.segments):
            fns = sample_hash_fn(dataset.n, spawn_rng(seed, HASH_STREAM, i, ordinal), h)
            tables[segment] = build_leaf_tables(dataset, segment, fns)
        trees.append(TreeModel(tree=tree, leaf_tables=tables))

    params = ForestParams(m=m, h=h, slimit=slimit, hlimit=resolved_hlimit, seed=seed)
    return TSForest(trees=tuple(trees), params=params, n=dataset.n, d=dataset.d,
                    digest=_digest(dataset))


def score(forest: TSForest, dataset: LabeledDataset) -> ScoreVector:
    """Ensemble densities and anomaly scores for the fitted dataset.

    Raises:
        ValueError: dataset is not the fitted one.
    """
    *_, acc = _tree_sums(forest, dataset)
    scores = acc / forest.params.m
    return ScoreVector(scores=scores, anomaly_scores=anomaly_scores(scores))


def _tree_sums(forest: TSForest, dataset: LabeledDataset) -> Iterator[np.ndarray]:
    """Row density sums over the first k trees, yielded in place for k = 1..m.

    The one accumulation whose order decides the bits of every score.
    """
    if (dataset.n, dataset.d) != (forest.n, forest.d):
        raise ValueError(
            f"dataset shape ({dataset.n}, {dataset.d}) does not match fitted "
            f"({forest.n}, {forest.d})"
        )
    if _digest(dataset) != forest.digest:
        raise ValueError(
            "dataset differs from the one the forest was fitted on; "
            "scores are only defined transductively"
        )
    x = np.asfortranarray(dataset.subsequences)  # each leaf block a slice
    acc = np.zeros(dataset.n)
    for model in forest.trees:
        acc += row_densities(x, model.tree, model.leaf_tables)
        yield acc


def _digest(dataset: LabeledDataset) -> str:
    return hashlib.sha256(dataset.subsequences).hexdigest()


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
