from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

import dlde.evaluation
import dlde.forest
from dlde import (
    ConfigurationError,
    ExperimentConfig,
    LabeledDataset,
    MetricError,
    auc,
    fit,
    run_experiment,
    score,
    sweep,
)
from dlde.seeding import RUN_STREAM, derive_seed

from conftest import random_dataset
from reference import pairwise_auc


class TestAuc:
    def test_perfect_separation(self):
        assert auc([1, 2, 3, 4], [1, 1, 0, 0]) == 1.0

    def test_perfect_inversion(self):
        assert auc([4, 3, 2, 1], [1, 1, 0, 0]) == 0.0

    def test_tied_pair_counts_half(self):
        assert auc([1, 2, 2, 3], [1, 0, 1, 0]) == pytest.approx(0.875)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
        assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_negation_complements_when_tie_free(self):
        rng = np.random.default_rng(10)
        scores = rng.permutation(50).astype(float)
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError, match="both classes"):
            auc([1.0, 2.0, 3.0], [0, 0, 0])
        with pytest.raises(MetricError, match="both classes"):
            auc([1.0, 2.0, 3.0], [1, 1, 1])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(MetricError, match="binary"):
            auc([1.0, 2.0], [1, 2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            auc([1.0, 2.0], [1, 0, 1])


def _config(**overrides) -> ExperimentConfig:
    defaults = dict(m=3, h=2, repeats=4, base_seed=9)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_single_repeat_equals_direct_composition(self):
        ds = random_dataset(np.random.default_rng(1), 16, 10, anomalies=4)
        cfg = _config(repeats=1)
        report = run_experiment(cfg, dataset=ds)
        run_seed = derive_seed(cfg.base_seed, RUN_STREAM, 0)
        direct = auc(score(fit(ds, m=3, h=2, seed=run_seed), ds).scores, ds.labels)
        assert report.aucs == (direct,)
        assert report.seeds == (run_seed,)

    def test_reproducible(self):
        ds = random_dataset(np.random.default_rng(2), 14, 8, anomalies=3)
        a = run_experiment(_config(), dataset=ds)
        b = run_experiment(_config(), dataset=ds)
        assert a.aucs == b.aucs
        assert a.seeds == b.seeds

    def test_report_invariants(self):
        ds = random_dataset(np.random.default_rng(3), 18, 9, anomalies=5)
        report = run_experiment(_config(repeats=6), dataset=ds)
        assert len(report.aucs) == 6
        assert len(set(report.seeds)) == 6
        assert all(0.0 <= a <= 1.0 for a in report.aucs)
        assert min(report.aucs) <= report.mean_auc <= max(report.aucs)

    def test_zero_repeats_rejected(self):
        ds = random_dataset(np.random.default_rng(6), 12, 8, anomalies=2)
        with pytest.raises(ConfigurationError, match="repeats"):
            run_experiment(_config(repeats=0), dataset=ds)

    @pytest.mark.parametrize("base_seed", [1.5, np.float64(9.0)])
    def test_base_seed_that_is_not_an_integer_rejected(self, base_seed):
        ds = random_dataset(np.random.default_rng(3), 12, 8, anomalies=3)
        with pytest.raises(ConfigurationError, match=re.escape(f"got {base_seed!r}")):
            run_experiment(_config(base_seed=base_seed), dataset=ds)

    def test_single_class_labels_rejected(self):
        ds = random_dataset(np.random.default_rng(7), 12, 8, anomalies=0)
        with pytest.raises(MetricError, match="single class"):
            run_experiment(_config(), dataset=ds)

    # the parameters are admitted before the labels: fit refuses m first
    def test_parameters_checked_before_labels(self):
        ds = random_dataset(np.random.default_rng(7), 12, 8, anomalies=0)
        with pytest.raises(ConfigurationError, match=re.escape("got 2.5")):
            run_experiment(ExperimentConfig(m=2.5), dataset=ds)


class TestSweep:
    def test_single_value_matches_run_experiment(self):
        ds = random_dataset(np.random.default_rng(8), 15, 8, anomalies=4)
        cfg = _config(repeats=3)
        [report] = sweep(cfg, "m", [5], dataset=ds)
        alone = run_experiment(_config(repeats=3, m=5), dataset=ds)
        assert report.aucs == alone.aucs

    @staticmethod
    def _random_labels(seed: int) -> LabeledDataset:
        # labels unrelated to the rows, so AUCs vary with m and the run seed
        rng = np.random.default_rng(seed)
        return LabeledDataset(rng.normal(size=(15, 8)), (np.arange(15) % 3 == 0).astype(int))

    def test_m_sweep_equals_run_experiment_per_value(self):
        ds = self._random_labels(14)
        cfg = _config(repeats=3)
        reports = sweep(cfg, "m", [4, 1, 4, 2], dataset=ds)
        assert len({r.aucs for r in reports}) == 3
        for v, report in zip([4, 1, 4, 2], reports):
            alone = run_experiment(replace(cfg, m=v), dataset=ds)
            assert (report.aucs, report.seeds) == (alone.aucs, alone.seeds)

    def test_m_sweep_fits_one_forest_per_run(self, monkeypatch):
        built = []
        build = dlde.forest.build_tstree
        monkeypatch.setattr(
            dlde.forest, "build_tstree", lambda *args: built.append(1) or build(*args)
        )
        sweep(_config(repeats=3), "m", [4, 1, 4, 2], dataset=self._random_labels(15))
        assert len(built) == 3 * 4  # repeats x max(values)

    # AUCs cannot tell a rescaled score vector from the right one, so compare
    # the vectors themselves with each m's own fit
    def test_m_sweep_scores_each_m_as_its_own_fit(self, monkeypatch):
        seen = []
        measure = dlde.evaluation.auc
        monkeypatch.setattr(
            dlde.evaluation, "auc", lambda s, y: seen.append(s.tobytes()) or measure(s, y)
        )
        ds, cfg = self._random_labels(17), _config(repeats=2)
        sweep(cfg, "m", [4, 1, 2], dataset=ds)
        seeds = [derive_seed(cfg.base_seed, RUN_STREAM, i) for i in range(2)]
        assert seen == [score(fit(ds, m=m, h=cfg.h, seed=seed), ds).scores.tobytes()
                        for seed in seeds for m in (1, 2, 4)]

    def test_h_sweep_fits_each_value_once_per_run(self, monkeypatch):
        built = []
        build = dlde.forest.build_tstree
        monkeypatch.setattr(
            dlde.forest, "build_tstree", lambda *args: built.append(1) or build(*args)
        )
        ds, cfg = self._random_labels(16), _config(repeats=3)
        reports = sweep(cfg, "h", [3, 1, 3], dataset=ds)
        assert len(built) == 3 * 2 * 3  # repeats x distinct values x m
        for v, report in zip([3, 1, 3], reports):
            alone = run_experiment(replace(cfg, h=v), dataset=ds)
            assert (report.aucs, report.seeds) == (alone.aucs, alone.seeds)
        three, one, _ = reports
        assert three.aucs != one.aucs

    def test_reports_in_input_order(self):
        ds = self._random_labels(9)
        cfg = _config(repeats=2)
        reports = sweep(cfg, "m", [4, 1, 2], dataset=ds)
        assert [r.aucs for r in reports] == [
            run_experiment(replace(cfg, m=v), dataset=ds).aucs for v in [4, 1, 2]
        ]

    def test_h_sweep(self):
        ds = self._random_labels(10)
        cfg = _config(repeats=2)
        reports = sweep(cfg, "h", [1, 3], dataset=ds)
        assert [r.aucs for r in reports] == [
            run_experiment(replace(cfg, h=v), dataset=ds).aucs for v in [1, 3]
        ]

    def test_unknown_parameter(self):
        ds = random_dataset(np.random.default_rng(11), 12, 8, anomalies=2)
        with pytest.raises(ConfigurationError, match="'m' or 'h'"):
            sweep(_config(), "slimit", [1], dataset=ds)

    def test_empty_values(self):
        ds = random_dataset(np.random.default_rng(12), 12, 8, anomalies=2)
        with pytest.raises(ConfigurationError, match="at least one"):
            sweep(_config(), "m", [], dataset=ds)

    def test_invalid_value(self):
        ds = random_dataset(np.random.default_rng(13), 12, 8, anomalies=2)
        with pytest.raises(ConfigurationError, match="invalid value"):
            sweep(_config(), "m", [0], dataset=ds)
