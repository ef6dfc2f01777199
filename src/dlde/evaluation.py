"""AUC metric and the repeated-run experiment protocol.

The detector is randomized, so a single fit says little; experiments
refit with a fresh derived seed per run (50 runs by default) and report
the per-run AUCs with their mean and spread.  A sweep reports every
value of the tree count or hash count from the same runs, holding the
base seed fixed so curves are comparable.

The protocol scores a dataset the caller has loaded, as given: reading
and z-normalizing input is the caller's job.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

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

    The Mann-Whitney statistic, counted over its pairs: the probability
    that a uniformly random anomaly (label 1) scores strictly below a
    uniformly random normal (label 0), with ties counted half.

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
    # per anomaly, the normals scoring strictly below it and those tied with it
    normals, anomalies = np.sort(s[y == 0]), s[y == 1]
    below = np.searchsorted(normals, anomalies, side="left")
    ties = np.searchsorted(normals, anomalies, side="right") - below
    return float(1.0 - (below.sum() + 0.5 * ties.sum()) / (n_anom * n_norm))


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
    """Per-run AUCs of one experiment, the run seeds that reproduce them,
    and aggregate statistics."""

    aucs: tuple[float, ...]
    seeds: tuple[int, ...]

    @property
    def mean_auc(self) -> float:
        return float(np.mean(self.aucs))

    @property
    def std_auc(self) -> float:
        return float(np.std(self.aucs))


def run_experiment(config: ExperimentConfig, dataset: LabeledDataset) -> ExperimentReport:
    """Fit, score and compute AUC ``config.repeats`` times on ``dataset``.

    Run ``i`` uses a seed derived from ``config.base_seed`` and ``i``, so
    reports are reproducible across processes and runs are independent;
    it is :func:`sweep` over the one value ``config.h``.

    Args:
        config: The run protocol.
        dataset: The labeled dataset, scored as given: z-normalize it
            first (:func:`dlde.znormalize`) if it is not near unit scale.

    Raises:
        ConfigurationError: ``repeats`` not an integer >= 1, or unusable parameters.
        MetricError: labels are single-class, found by the first run's
            :func:`auc`, after its fit has admitted the parameters.
    """
    return _runs(config, "h", [config.h], dataset)[0]


def _runs(
    config: ExperimentConfig, param: str, values: list[int], dataset: LabeledDataset
) -> list[ExperimentReport]:
    """One report per value of ``param`` in ``values``, in order.

    Run ``i`` fits each distinct value once, but all of an m sweep from one
    fit of ``max(values)`` trees: tree ``j`` draws only from streams of
    ``(run seed, j)``, so the scores of ``m`` trees are the running density
    sum after ``m`` of them, over ``m``.
    """
    repeats = require_int(config.repeats, 1, "repeats")
    params = {"m": config.m, "h": config.h, "slimit": config.slimit, "hlimit": config.hlimit}
    aucs: dict[int, list[float]] = {v: [] for v in values}
    seeds = tuple(derive_seed(config.base_seed, RUN_STREAM, i) for i in range(repeats))
    for run_seed in seeds:
        if param == "m":
            forest = fit(dataset, **{**params, "m": max(values)}, seed=run_seed)
            scored = ((m, acc / m) for m, acc in enumerate(_tree_sums(forest), 1) if m in aucs)
        else:
            forests = ((v, fit(dataset, **{**params, param: v}, seed=run_seed)) for v in aucs)
            scored = ((v, score(forest, dataset).scores) for v, forest in forests)
        for v, scores in scored:
            aucs[v].append(auc(scores, dataset.labels))

    return [ExperimentReport(aucs=tuple(aucs[v]), seeds=seeds) for v in values]


def sweep(
    config: ExperimentConfig,
    param: str,
    values: Sequence[int],
    dataset: LabeledDataset,
) -> list[ExperimentReport]:
    """Run the experiment on ``dataset`` once per value of ``param`` ("m" or "h").

    Every report derives its run seeds from the same base seed, so the
    resulting curve isolates the effect of the swept parameter.  Reports
    are in input order, and each one's AUCs equal :func:`run_experiment`'s
    with its value.  Each run fits ``max(values)`` trees once for ``m``,
    and each distinct ``h`` once.

    Raises:
        ConfigurationError: unknown parameter name, empty value list, or
            a value that is not an integer >= 1 (a float never is).
    """
    if param not in ("m", "h"):
        raise ConfigurationError(f"sweep parameter must be 'm' or 'h', got {param!r}")
    if len(values) == 0:
        raise ConfigurationError("sweep needs at least one parameter value")
    values = [require_int(v, 1, f"invalid value for {param}:") for v in values]
    return _runs(config, param, values, dataset)
