"""AUC metric and the repeated-run experiment protocol.

The detector is randomized, so a single fit says little; experiments
refit with a fresh derived seed per run (50 runs by default) and report
the per-run AUCs with their mean and spread.  Parameter sweeps rerun the
same protocol for each value of the tree count or hash count, holding
the base seed fixed so curves are comparable.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .dataset import LabeledDataset, parse_labeled_file, znormalize
from .errors import ConfigurationError, MetricError
from .forest import _tree_sums, fit, score
from .seeding import RUN_STREAM, derive_seed

__all__ = [
    "auc",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "sweep",
]


def auc(scores: Sequence[float] | np.ndarray, labels: Sequence[int] | np.ndarray) -> float:
    """Area under the ROC curve, where LOWER scores mean more anomalous.

    Computed in the rank form of the Mann-Whitney statistic: the
    probability that a uniformly random anomaly (label 1) scores strictly
    below a uniformly random normal (label 0), with ties counted half.

    Raises:
        MetricError: labels are not binary with both classes present.
        ValueError: scores and labels differ in length.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError(f"scores {s.shape} and labels {y.shape} must be equal-length vectors")
    if not np.isin(y, (0, 1)).all():
        raise MetricError("labels must be binary (0 = normal, 1 = anomaly)")
    n_anom = int((y == 1).sum())
    n_norm = int((y == 0).sum())
    if n_anom == 0 or n_norm == 0:
        raise MetricError(
            f"AUC undefined: need both classes, got {n_anom} anomalies and {n_norm} normals"
        )
    # Average rank of each value (ties share the mean of their rank block).
    _, inverse, tie_counts = np.unique(s, return_inverse=True, return_counts=True)
    block_end = np.cumsum(tie_counts)
    avg_rank = block_end - (tie_counts - 1) / 2.0
    ranks = avg_rank[inverse]
    rank_sum = float(ranks[y == 1].sum())
    above = (rank_sum - n_anom * (n_anom + 1) / 2.0) / (n_anom * n_norm)
    return 1.0 - above


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one repeated-run experiment."""

    dataset_path: str | Path | None = None
    anomaly_class: float | None = None
    delimiter: str | None = None
    m: int = 10
    h: int = 10
    slimit: int = 3
    hlimit: int | None = None
    repeats: int = 50
    base_seed: int = 0
    normalize: bool = False


@dataclass(frozen=True)
class ExperimentReport:
    """Per-run AUCs of one experiment plus aggregate statistics."""

    aucs: tuple[float, ...]
    seeds: tuple[int, ...]
    seconds: tuple[float, ...]
    config: dict[str, Any]

    @property
    def mean_auc(self) -> float:
        return float(np.mean(self.aucs))

    @property
    def std_auc(self) -> float:
        return float(np.std(self.aucs))

    def rows(self, *, include_seconds: bool = False) -> list[dict[str, Any]]:
        """One record per run, in run order, for CSV/JSON emission."""
        out = []
        for i, (run_seed, run_auc) in enumerate(zip(self.seeds, self.aucs)):
            row: dict[str, Any] = {"run": i, "seed": run_seed, "auc": run_auc}
            if include_seconds:
                row["seconds"] = self.seconds[i]
            out.append(row)
        return out


def _load(config: ExperimentConfig) -> LabeledDataset:
    if config.dataset_path is None:
        raise ConfigurationError("experiment config has no dataset path")
    dataset = parse_labeled_file(
        config.dataset_path,
        anomaly_class=config.anomaly_class,
        delimiter=config.delimiter,
    )
    return znormalize(dataset) if config.normalize else dataset


def run_experiment(
    config: ExperimentConfig, dataset: LabeledDataset | None = None
) -> ExperimentReport:
    """Fit, score and compute AUC ``config.repeats`` times.

    Run ``i`` uses a seed derived deterministically from
    ``config.base_seed`` and ``i``, so reports are reproducible across
    processes and runs are mutually independent.

    Args:
        config: Experiment parameters.
        dataset: Already-loaded dataset; when ``None`` it is read from
            ``config.dataset_path`` (normalization flag applies only in
            that case).

    Raises:
        ConfigurationError: ``repeats`` < 1 or unusable parameters.
        MetricError: labels are single-class.
    """
    return _runs(config, [config.m], dataset)[0]


def _runs(
    config: ExperimentConfig, ms: list[int], dataset: LabeledDataset | None
) -> list[ExperimentReport]:
    """One report per tree count in ``ms``, in order, from one forest per run.

    Tree ``j`` of a run draws only from streams of ``(run seed, j)``, so a
    fit with ``m`` trees is the first ``m`` trees of one with ``max(ms)``,
    and its scores are the running density sum after ``m`` trees over ``m``.
    """
    if config.repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {config.repeats}")
    if dataset is None:
        dataset = _load(config)
    labels = dataset.labels
    if len(set(labels.tolist())) < 2:
        raise MetricError("dataset labels contain a single class; AUC undefined")

    aucs: dict[int, list[float]] = {m: [] for m in ms}
    seconds: dict[int, list[float]] = {m: [] for m in ms}
    seeds: list[int] = []
    for i in range(config.repeats):
        run_seed = derive_seed(config.base_seed, RUN_STREAM, i)
        started = time.perf_counter()
        forest = fit(dataset, m=max(ms), h=config.h, slimit=config.slimit,
                     hlimit=config.hlimit, seed=run_seed)
        # one value is a plain fit and score, where benchmarks/tracing.py times scoring
        if len(aucs) == 1:
            scored = [(ms[0], score(forest, dataset).scores)]
        else:
            sums = enumerate(_tree_sums(forest, dataset), 1)
            scored = ((m, acc / m) for m, acc in sums if m in aucs)
        for m, scores in scored:
            aucs[m].append(auc(scores, labels))
            seconds[m].append(time.perf_counter() - started)
        seeds.append(run_seed)

    path = None if config.dataset_path is None else str(config.dataset_path)
    echo = {**vars(config), "dataset_path": path, "n": dataset.n, "d": dataset.d}
    return [
        ExperimentReport(aucs=tuple(aucs[m]), seeds=tuple(seeds),
                         seconds=tuple(seconds[m]), config={**echo, "m": m})
        for m in ms
    ]


def sweep(
    config: ExperimentConfig,
    param: str,
    values: Sequence[int],
    dataset: LabeledDataset | None = None,
) -> list[ExperimentReport]:
    """Run the experiment once per value of ``param`` ("m" or "h").

    Every report derives its run seeds from the same base seed, so the
    resulting curve isolates the effect of the swept parameter.  Reports
    are returned in input order.  A sweep over ``m`` fits ``max(values)``
    trees once per run and scores each smaller ``m`` from its first ``m``
    trees, so each report equals :func:`run_experiment` with that ``m``;
    ``seconds`` then runs from the start of the run to the AUC of ``m``.

    Raises:
        ConfigurationError: unknown parameter name, empty value list, or
            a value that is not a positive integer.
    """
    if param not in ("m", "h"):
        raise ConfigurationError(f"sweep parameter must be 'm' or 'h', got {param!r}")
    if len(values) == 0:
        raise ConfigurationError("sweep needs at least one parameter value")
    for v in values:
        if int(v) != v or int(v) < 1:
            raise ConfigurationError(f"invalid value for {param}: {v!r} (need integer >= 1)")
    if dataset is None:
        dataset = _load(config)
    if param == "m":
        return _runs(config, [int(v) for v in values], dataset)
    return [run_experiment(replace(config, h=int(v)), dataset=dataset) for v in values]
