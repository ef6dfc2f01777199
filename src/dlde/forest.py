"""Ensembles of time-split trees and the final anomaly scores.

A forest holds ``m`` independently randomized trees, each with its own
per-leaf bucket count tables over the fitted dataset.  A subsequence's
score is its mean density across trees; low scores mark rows that are
rarely matched inside their leaf neighborhoods, i.e. likely anomalies.
Scores are min-max flipped into anomaly scores in [0, 1] so that the
most anomalous row gets the highest value.

Scoring is transductive: :func:`score` expects the same dataset the
forest was fitted on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .dataset import LabeledDataset
from .density import row_densities
from .errors import ConfigurationError
from .hashing import HashFn, LeafTables, build_leaf_tables, sample_hash_fn
from .seeding import HASH_STREAM, TREE_STREAM, spawn_rng, validate_seed
from .tstree import Segment, TSTree, TSTreeNode, build_tstree, leaves

__all__ = [
    "ForestParams",
    "TreeModel",
    "TSForest",
    "ScoreVector",
    "fit",
    "score",
    "anomaly_scores",
    "save_forest",
    "load_forest",
]

FOREST_FORMAT = "dlde-forest"
FOREST_VERSION = 1


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
    """Build ``m`` random trees with ``h`` bucket tables per leaf.

    Args:
        dataset: Rows to index; at least 5 are required for hash-width
            sampling.
        m: Number of trees.
        h: Number of hash functions (and tables) per leaf.
        slimit: Leaf length threshold for tree growth.
        hlimit: Depth cap; ``None`` resolves to floor(log2(d)).
        seed: Root of all randomness.  Every tree and every leaf draws
            from its own derived stream, so refitting with a larger ``m``
            reproduces the first trees unchanged.

    Raises:
        ConfigurationError: Non-positive ``m``/``h``/``slimit``, negative
            ``hlimit`` or ``seed``, a dataset too small to sample hash
            widths for, or values so far off the unit scale that a bucket
            key would not fit int64 (z-normalize such data first).
    """
    if m < 1:
        raise ConfigurationError(f"tree count must be >= 1, got {m}")
    if h < 1:
        raise ConfigurationError(f"hash count must be >= 1, got {h}")
    if slimit < 1:
        raise ConfigurationError(f"slimit must be >= 1, got {slimit}")
    if hlimit is not None and hlimit < 0:
        raise ConfigurationError(f"hlimit must be >= 0, got {hlimit}")
    validate_seed(seed)
    resolved_hlimit = hlimit if hlimit is not None else int(math.floor(math.log2(dataset.d)))

    trees = []
    for i in range(m):
        tree = build_tstree(
            1, dataset.d, resolved_hlimit, slimit, spawn_rng(seed, TREE_STREAM, i)
        )
        tables: dict[Segment, LeafTables] = {}
        for ordinal, segment in enumerate(leaves(tree)):
            rng = spawn_rng(seed, HASH_STREAM, i, ordinal)
            fns = tuple(sample_hash_fn(dataset.n, rng) for _ in range(h))
            tables[segment] = build_leaf_tables(dataset, segment, fns)
        trees.append(TreeModel(tree=tree, leaf_tables=tables))

    params = ForestParams(m=m, h=h, slimit=slimit, hlimit=resolved_hlimit, seed=seed)
    return TSForest(trees=tuple(trees), params=params, n=dataset.n, d=dataset.d)


def score(forest: TSForest, dataset: LabeledDataset) -> ScoreVector:
    """Ensemble densities and anomaly scores for the fitted dataset.

    Raises:
        ValueError: dataset shape differs from the fitted (N, d).
    """
    if (dataset.n, dataset.d) != (forest.n, forest.d):
        raise ValueError(
            f"dataset shape ({dataset.n}, {dataset.d}) does not match fitted "
            f"({forest.n}, {forest.d})"
        )
    x = dataset.subsequences
    acc = np.zeros(dataset.n)
    for model in forest.trees:
        acc += row_densities(x, model.tree, model.leaf_tables)
    scores = acc / forest.params.m
    return ScoreVector(scores=scores, anomaly_scores=anomaly_scores(scores))


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


def _node_to_obj(node: TSTreeNode) -> dict[str, Any]:
    if node.is_leaf:
        return {"start": node.start, "end": node.end}
    return {
        "start": node.start,
        "end": node.end,
        "split": node.split_at,
        "left": _node_to_obj(node.left),  # type: ignore[arg-type]
        "right": _node_to_obj(node.right),  # type: ignore[arg-type]
    }


def _ints(*values: Any) -> tuple[int, ...]:
    if not all(type(v) is int for v in values):
        raise ValueError(f"expected integers, got {values!r}")
    return values


def _node_from_obj(obj: dict[str, Any]) -> TSTreeNode:
    start, end = _ints(obj["start"], obj["end"])
    if "split" not in obj:
        return TSTreeNode(start, end)
    (split,) = _ints(obj["split"])
    left, right = _node_from_obj(obj["left"]), _node_from_obj(obj["right"])
    if (left.start, left.end, right.start, right.end) != (start, split - 1, split, end):
        raise ValueError(f"children of node [{start}, {end}] do not split it at {split}")
    return TSTreeNode(start, end, split_at=split, left=left, right=right)


def _leaf_from_obj(leaf: dict[str, Any], n: int, h: int) -> LeafTables:
    """Array tables of one dumped leaf; its columns hold [key, count] pairs."""
    segment = Segment(*_ints(leaf["start"], leaf["end"]))
    fns = tuple(HashFn(width=w, offset=o) for w, o in leaf["fns"])
    if not len(fns) == len(leaf["tables"]) == h:
        raise ValueError(f"{segment} needs h={h} hash functions and tables")
    keys, counts = [], []
    for per_fn in leaf["tables"]:
        pairs = [np.asarray(column) for column in per_fn]
        if len(pairs) != segment.length or any(
            p.dtype.kind != "i" or p.shape[1:] != (2,) for p in pairs
        ):
            raise ValueError(f"{segment} needs {segment.length} lists of [key, count] per fn")
        union = np.unique(np.concatenate([p[:, 0] for p in pairs]))
        matrix = np.zeros((union.size, segment.length), dtype=np.int64)
        for c, p in enumerate(pairs):
            matrix[np.searchsorted(union, p[:, 0]), c] = p[:, 1]
        if np.any(matrix < 0) or np.any(matrix.sum(axis=0) != n):
            raise ValueError(f"counts of {segment} must be >= 0 and sum to n={n} per column")
        keys.append(union)
        counts.append(matrix)
    return LeafTables(segment, fns, tuple(keys), tuple(counts), n_rows=n)


def save_forest(forest: TSForest, path: str | Path) -> None:
    """Dump a fitted forest to a versioned JSON file.

    The format (documented in the README) stores the tree structures, the
    per-leaf hash parameters and the count tables, and round-trips
    exactly; it is not guaranteed stable across package versions.
    """
    payload: dict[str, Any] = {
        "format": FOREST_FORMAT,
        "version": FOREST_VERSION,
        "params": vars(forest.params).copy(),
        "n": forest.n,
        "d": forest.d,
        "trees": [],
    }
    for model in forest.trees:
        entry: dict[str, Any] = {"root": _node_to_obj(model.tree.root), "leaves": []}
        for segment in leaves(model.tree):
            tables = model.leaf_tables[segment]
            entry["leaves"].append(
                {
                    "start": segment.start,
                    "end": segment.end,
                    "fns": [[fn.width, fn.offset] for fn in tables.fns],
                    "tables": [
                        [list(zip(keys[c > 0].tolist(), c[c > 0].tolist())) for c in matrix.T]
                        for keys, matrix in zip(tables.keys, tables.counts)
                    ],
                }
            )
        payload["trees"].append(entry)
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_forest(path: str | Path) -> TSForest:
    """Load a forest previously written by :func:`save_forest`.

    Raises:
        ValueError: the file is not a forest dump, has an unsupported
            version, or is malformed: a field is missing or mistyped, the
            leaf tables differ from the tree's leaves over 1..d, or a
            table's counts do not sum to the row count.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.get("format") != FOREST_FORMAT:
        raise ValueError(f"{path}: not a {FOREST_FORMAT} file")
    if payload.get("version") != FOREST_VERSION:
        raise ValueError(f"{path}: unsupported version {payload.get('version')!r}")
    try:
        params = ForestParams(**payload["params"])
        _ints(*vars(params).values())
        n, d = _ints(payload["n"], payload["d"])
        if len(payload["trees"]) != params.m:
            raise ValueError(f"{len(payload['trees'])} trees stored for m={params.m}")
        trees = []
        for entry in payload["trees"]:
            root = _node_from_obj(entry["root"])
            tables = [_leaf_from_obj(leaf, n, params.h) for leaf in entry["leaves"]]
            tree = TSTree(root=root, hlimit=params.hlimit, slimit=params.slimit)
            if tree.span != Segment(1, d) or [t.segment for t in tables] != leaves(tree):
                raise ValueError("leaf tables do not match the tree's leaves over 1..d")
            trees.append(TreeModel(tree=tree, leaf_tables={t.segment: t for t in tables}))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed forest dump: {type(exc).__name__}: {exc}") from exc
    return TSForest(trees=tuple(trees), params=params, n=n, d=d)
