"""Anomaly subsequence detection for time series.

Subsequences are scored by how densely their values are matched, column
by column, inside randomly chosen contiguous time segments: an ensemble
of random time-split trees partitions the time axis, every leaf keeps
randomized bucket count tables over all subsequences, and a row's score
is its mean bucket-count density across trees.  Rows with unusually low
density are anomalies.
"""

from .dataset import (
    LabeledDataset,
    RawSeries,
    parse_labeled_file,
    parse_raw_series,
    window_series,
    write_labeled_file,
    znormalize,
)
from .density import leaf_point_densities, row_densities
from .errors import (
    ConfigurationError,
    DldeError,
    EmptyInputError,
    InputFormatError,
    MetricError,
)
from .evaluation import ExperimentConfig, ExperimentReport, auc, run_experiment, sweep
from .forest import (
    ForestParams,
    ScoreVector,
    TreeModel,
    TSForest,
    anomaly_scores,
    fit,
    load_forest,
    save_forest,
    score,
)
from .hashing import HashFn, LeafTables, build_leaf_tables, hash_keys, sample_hash_fn
from .tstree import Segment, TSTree, build_tstree, leaves

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LabeledDataset",
    "RawSeries",
    "parse_labeled_file",
    "parse_raw_series",
    "window_series",
    "write_labeled_file",
    "znormalize",
    "Segment",
    "TSTree",
    "build_tstree",
    "leaves",
    "HashFn",
    "LeafTables",
    "sample_hash_fn",
    "hash_keys",
    "build_leaf_tables",
    "leaf_point_densities",
    "row_densities",
    "ForestParams",
    "TreeModel",
    "TSForest",
    "ScoreVector",
    "fit",
    "score",
    "anomaly_scores",
    "save_forest",
    "load_forest",
    "auc",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "sweep",
    "DldeError",
    "InputFormatError",
    "EmptyInputError",
    "ConfigurationError",
    "MetricError",
]
