"""Anomaly subsequence detection for time series.

Subsequences are scored by how densely their values are matched, column
by column, inside randomly chosen contiguous time segments: an ensemble
of random time-split trees partitions the time axis, every leaf counts
randomized bucket keys over all subsequences, and a row's score
is its mean bucket-count density across trees.  Rows with unusually low
density are anomalies.
"""

from .dataset import (
    LabeledDataset,
    parse_labeled_file,
    parse_raw_series,
    window_series,
    znormalize,
)
from .errors import (
    ConfigurationError,
    DldeError,
    EmptyInputError,
    InputFormatError,
    MetricError,
)
from .evaluation import ExperimentConfig, ExperimentReport, auc, run_experiment, sweep
from .forest import ScoreVector, TSForest, fit, score

# not in __all__, but the oracle check in benchmarks/run.py reads both as dlde.<name>
from .density import leaf_point_densities
from .tstree import leaves

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LabeledDataset",
    "parse_labeled_file",
    "parse_raw_series",
    "window_series",
    "znormalize",
    "TSForest",
    "ScoreVector",
    "fit",
    "score",
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
