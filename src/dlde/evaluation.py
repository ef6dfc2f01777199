"""AUC metric and the repeated-run experiment protocol.

The detector is randomized, so a single fit says little; experiments
refit with a fresh derived seed per run (50 runs by default) and report
the per-run AUCs with their mean and spread.  Parameter sweeps rerun the
same protocol for each value of the tree count or hash count, holding
the base seed fixed so curves are comparable.

The protocol scores a dataset the caller has loaded, as given: reading
and z-normalizing input is the caller's job.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .dataset import LabeledDataset
from .errors import ConfigurationError, MetricError, require_int
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
            f"AUC undefined: need both classes, not a single class; "
            f"got {n_anom} anomalies and {n_norm} normals"
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
    """The run protocol of one repeated-run experiment on a given dataset."""

    m: int = 10
    h: int = 10
    slimit: int = 3
    hlimit: int | None = None
    repeats: int = 50
    base_seed: int = 0


@dataclass(frozen=True)
class ExperimentReport:
    """Per-run AUCs of one experiment plus aggregate statistics."""

    aucs: tuple[float, ...]
    seeds: tuple[int, ...]
    seconds: tuple[float, ...]

    @property
    def mean_auc(self) -> float:
        return float(np.mean(self.aucs))

    @property
    def std_auc(self) -> float:
        return float(np.std(self.aucs))


def run_experiment(config: ExperimentConfig, dataset: LabeledDataset) -> ExperimentReport:
    """Fit, score and compute AUC ``config.repeats`` times on ``dataset``.

    Run ``i`` uses a seed derived deterministically from
    ``config.base_seed`` and ``i``, so reports are reproducible across
    processes and runs are mutually independent.

    Args:
        config: The run protocol.
        dataset: The labeled dataset, scored as given: z-normalize it
            first (:func:`dlde.znormalize`) if it is not near unit scale.

    Raises:
        ConfigurationError: ``repeats`` not an integer >= 1, or unusable parameters.
        MetricError: labels are single-class, found by the first run's
            :func:`auc`, after its fit has admitted the parameters.
    """
    return _runs(config, [config.m], dataset)[0]


def _runs(
    config: ExperimentConfig, ms: list[int], dataset: LabeledDataset
) -> list[ExperimentReport]:
    """One report per tree count in ``ms``, in order, from one forest per run.

    Tree ``j`` of a run draws only from streams of ``(run seed, j)``, so a
    fit with ``m`` trees is the first ``m`` trees of one with ``max(ms)``,
    and its scores are the running density sum after ``m`` trees over ``m``.
    """
    repeats = require_int(config.repeats, 1, "repeats")
    labels = dataset.labels
    aucs: dict[int, list[float]] = {m: [] for m in ms}
    seconds: dict[int, list[float]] = {m: [] for m in ms}
    seeds: list[int] = []
    for i in range(repeats):
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

    return [
        ExperimentReport(aucs=tuple(aucs[m]), seeds=tuple(seeds), seconds=tuple(seconds[m]))
        for m in ms
    ]


def sweep(
    config: ExperimentConfig,
    param: str,
    values: Sequence[int],
    dataset: LabeledDataset,
) -> list[ExperimentReport]:
    """Run the experiment on ``dataset`` once per value of ``param`` ("m" or "h").

    Every report derives its run seeds from the same base seed, so the
    resulting curve isolates the effect of the swept parameter.  Reports
    are returned in input order.  A sweep over ``m`` fits ``max(values)``
    trees once per run and scores each smaller ``m`` from its first ``m``
    trees, so each report equals :func:`run_experiment` with that ``m``;
    ``seconds`` then runs from the start of the run to the AUC of ``m``.

    Raises:
        ConfigurationError: unknown parameter name, empty value list, or
            a value that is not an integer >= 1 (a float never is).
    """
    if param not in ("m", "h"):
        raise ConfigurationError(f"sweep parameter must be 'm' or 'h', got {param!r}")
    if len(values) == 0:
        raise ConfigurationError("sweep needs at least one parameter value")
    values = [require_int(v, 1, f"invalid value for {param}:") for v in values]
    if param == "m":
        return _runs(config, values, dataset)
    return [run_experiment(replace(config, h=v), dataset=dataset) for v in values]
