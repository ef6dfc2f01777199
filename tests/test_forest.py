from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from dlde import (
    ConfigurationError,
    LabeledDataset,
    Segment,
    anomaly_scores,
    fit,
    leaf_point_densities,
    leaves,
    load_forest,
    save_forest,
    score,
)

from conftest import random_dataset
from reference import tree_point_densities


def _constant_dataset(n: int, d: int, value: float = 0.3) -> LabeledDataset:
    return LabeledDataset(np.full((n, d), value), np.zeros(n, int))


class TestFit:
    def test_single_tree_single_leaf(self):
        ds = random_dataset(np.random.default_rng(0), 8, 10)
        forest = fit(ds, m=1, h=2, hlimit=0, seed=0)
        assert len(forest.trees) == 1
        assert leaves(forest.trees[0].tree) == [Segment(1, 10)]

    def test_hlimit_defaults_to_log2_d(self):
        ds = random_dataset(np.random.default_rng(0), 8, 20)
        assert fit(ds, m=1, seed=0).params.hlimit == 4  # floor(log2(20))
        ds2 = random_dataset(np.random.default_rng(0), 8, 64)
        assert fit(ds2, m=1, seed=0).params.hlimit == 6

    def test_every_leaf_has_h_tables_over_all_rows(self):
        ds = random_dataset(np.random.default_rng(1), 9, 16)
        forest = fit(ds, m=3, h=4, seed=7)
        for model in forest.trees:
            assert set(model.leaf_tables) == set(leaves(model.tree))
            for tables in model.leaf_tables.values():
                assert tables.h == 4
                assert tables.n_rows == 9

    def test_too_small_dataset_rejected(self):
        ds = random_dataset(np.random.default_rng(2), 4, 8)
        with pytest.raises(ConfigurationError, match="too small"):
            fit(ds, seed=0)

    @pytest.mark.parametrize("value", [1e19, -1e19])
    def test_keys_beyond_int64_rejected(self, value):
        # the int64 cast used to map every such value to INT64_MIN
        ds = random_dataset(np.random.default_rng(2), 8, 8)
        x = ds.subsequences.copy()
        x[5, 3] = value
        with pytest.raises(ConfigurationError, match="--normalize"):
            fit(LabeledDataset(x, ds.labels), seed=0)

    def test_large_admitted_keys_match_bruteforce(self):
        # |value| 1e17 under widths >= 1/log2(8) gives keys of about 3e17,
        # still exact in int64 and equal to the Python-int reference keys
        x = np.random.default_rng(3).normal(size=(8, 8))
        x[[1, 6]] *= 1e17
        forest = fit(LabeledDataset(x, np.zeros(8, int)), m=2, h=3, seed=0)
        for model in forest.trees:
            fns = {seg: tbl.fns for seg, tbl in model.leaf_tables.items()}
            got = np.concatenate(
                [leaf_point_densities(x, model.leaf_tables[s]) for s in leaves(model.tree)],
                axis=1,
            )
            np.testing.assert_array_equal(got, tree_point_densities(x.tolist(), model.tree, fns))

    @pytest.mark.parametrize(
        "kwargs",
        [{"m": 0}, {"h": 0}, {"slimit": 0}, {"hlimit": -1}, {"seed": -5}],
    )
    def test_parameter_validation(self, kwargs):
        ds = random_dataset(np.random.default_rng(3), 8, 8)
        with pytest.raises(ConfigurationError):
            fit(ds, **kwargs)


class TestDeterminism:
    def test_identical_runs_byte_identical(self):
        ds = random_dataset(np.random.default_rng(4), 12, 14, anomalies=2)
        a = score(fit(ds, m=4, h=3, seed=11), ds)
        b = score(fit(ds, m=4, h=3, seed=11), ds)
        assert a.scores.tobytes() == b.scores.tobytes()
        assert a.anomaly_scores.tobytes() == b.anomaly_scores.tobytes()

    def test_different_seeds_differ(self):
        ds = random_dataset(np.random.default_rng(5), 12, 14)
        a = score(fit(ds, m=4, h=3, seed=11), ds)
        b = score(fit(ds, m=4, h=3, seed=12), ds)
        assert not np.array_equal(a.scores, b.scores)

    def test_growing_m_keeps_earlier_trees(self):
        # per-tree streams depend only on (seed, tree index), so a bigger
        # ensemble extends the smaller one instead of reshuffling it
        ds = random_dataset(np.random.default_rng(6), 10, 12)
        small = fit(ds, m=2, h=2, seed=3)
        large = fit(ds, m=5, h=2, seed=3)
        for i in range(2):
            assert small.trees[i].tree == large.trees[i].tree
            assert small.trees[i].leaf_tables == large.trees[i].leaf_tables


class TestScore:
    def test_constant_dataset_scores_equal(self):
        ds = _constant_dataset(7, 9)
        result = score(fit(ds, m=1, h=1, seed=0), ds)
        np.testing.assert_array_equal(result.scores, np.full(7, 7.0))

    def test_constant_dataset_invariant_to_m(self):
        ds = _constant_dataset(7, 9)
        one = score(fit(ds, m=1, h=1, seed=0), ds)
        many = score(fit(ds, m=6, h=1, seed=0), ds)
        np.testing.assert_array_equal(one.scores, many.scores)

    def test_scores_at_least_one(self):
        ds = random_dataset(np.random.default_rng(7), 15, 10, anomalies=3)
        result = score(fit(ds, m=3, h=2, seed=1), ds)
        assert result.scores.min() >= 1.0

    def test_shape_mismatch_rejected(self):
        ds = random_dataset(np.random.default_rng(8), 10, 12)
        other = random_dataset(np.random.default_rng(8), 10, 13)
        forest = fit(ds, m=1, seed=0)
        with pytest.raises(ValueError, match="does not match fitted"):
            score(forest, other)

    def test_result_arrays_read_only(self):
        ds = random_dataset(np.random.default_rng(9), 8, 8)
        result = score(fit(ds, m=1, seed=0), ds)
        with pytest.raises(ValueError):
            result.scores[0] = 0.0


def _unit_scale_200x96() -> LabeledDataset:
    rng = np.random.default_rng(96)
    return LabeledDataset(rng.uniform(-2.0, 2.0, size=(200, 96)), np.zeros(200, int))


def _adc_scale_300x100() -> LabeledDataset:
    """Triangle waves around 2048 with uniform noise, rounded like ADC counts.

    Not normalized, so tables hold hundreds of keys and the mixed-radix
    key-tuple codes of 10 hash functions exceed int64 before compaction.
    """
    rng = np.random.default_rng(100)
    t = np.arange(100) / 25.0 + rng.uniform(0.0, 4.0, size=(300, 1))
    triangle = np.abs(t % 4.0 - 2.0) - 1.0
    x = np.round(2048.0 + 400.0 * triangle + rng.uniform(-70.0, 70.0, size=(300, 100)))
    return LabeledDataset(x, np.zeros(300, int))


class TestScoreFingerprint:
    # sha256 of the score bytes, recorded before leaf tables became arrays;
    # the data uses only uniform draws and exact arithmetic
    @pytest.mark.parametrize(
        "make, digest",
        [
            (_unit_scale_200x96, "d4247d4df7542208a886b798011eb75c1ed3c133d473a568aae1aa5c5e81e19e"),
            (_adc_scale_300x100, "082b44cc790414bc8ef019526d8450f3bc1bbf186228aea4732eb2bf8960c02b"),
        ],
    )
    def test_scores_byte_identical(self, make, digest):
        ds = make()
        scores = score(fit(ds, seed=0), ds).scores
        assert hashlib.sha256(scores.tobytes()).hexdigest() == digest


class TestAnomalyScores:
    def test_known_values(self):
        np.testing.assert_array_equal(anomaly_scores([2.0, 4.0, 6.0]), [1.0, 0.5, 0.0])

    def test_degenerate_range_is_half(self):
        np.testing.assert_array_equal(anomaly_scores([5.0, 5.0, 5.0]), [0.5, 0.5, 0.5])

    def test_order_reversal(self):
        rng = np.random.default_rng(10)
        scores = rng.uniform(1, 50, size=40)
        out = anomaly_scores(scores)
        assert int(np.argmax(out)) == int(np.argmin(scores))
        assert int(np.argmin(out)) == int(np.argmax(scores))

    def test_strictly_decreasing_and_tie_preserving(self):
        scores = np.array([3.0, 1.0, 3.0, 7.0, 2.0])
        out = anomaly_scores(scores)
        assert out[0] == out[2]  # tie preserved
        order = np.argsort(scores)
        sorted_out = out[order]
        assert all(a >= b for a, b in zip(sorted_out, sorted_out[1:]))

    def test_range_attained(self):
        out = anomaly_scores([4.0, 9.0, 6.0])
        assert out.min() == 0.0 and out.max() == 1.0
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            anomaly_scores([])


class TestEnsembleStability:
    def test_score_spread_shrinks_with_more_trees(self):
        # spread of per-row scores across 30 differently seeded fits must
        # not grow as the ensemble gets larger
        ds = random_dataset(np.random.default_rng(12), 24, 12, anomalies=3)
        spread = []
        for m in (1, 5, 10, 25):
            stack = np.stack(
                [score(fit(ds, m=m, h=3, seed=s), ds).scores for s in range(30)]
            )
            spread.append(stack.std(axis=0).mean())
        for bigger, smaller in zip(spread, spread[1:]):
            assert smaller <= bigger * 1.02


class TestSerialization:
    def test_round_trip_scores_identical(self, tmp_path):
        ds = random_dataset(np.random.default_rng(13), 11, 9, anomalies=2)
        forest = fit(ds, m=3, h=2, seed=21)
        path = tmp_path / "forest.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        assert loaded.params == forest.params
        assert (loaded.n, loaded.d) == (forest.n, forest.d)
        assert loaded.trees == forest.trees
        a = score(forest, ds)
        b = score(loaded, ds)
        assert a.scores.tobytes() == b.scores.tobytes()

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a"):
            load_forest(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"format": "dlde-forest", "version": 99}', encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            load_forest(path)

    @staticmethod
    def _dump(tmp_path):
        ds = random_dataset(np.random.default_rng(14), 10, 8)
        path = tmp_path / "forest.json"
        save_forest(fit(ds, m=2, h=2, seed=3), path)
        return path, json.loads(path.read_text(encoding="utf-8"))

    @staticmethod
    def _assert_rejected(path, payload, match):
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            load_forest(path)

    def test_rejects_missing_fields(self, tmp_path):
        path, payload = self._dump(tmp_path)
        self._assert_rejected(path, {"format": "dlde-forest", "version": 1}, "'params'")
        del payload["trees"][1]["leaves"][0]["fns"]
        self._assert_rejected(path, payload, "'fns'")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: p.update(n="10"),
            lambda p: p["params"].update(m=2.0),
            lambda p: p["params"].update(h=3),
            lambda p: p["trees"][0]["root"].update(end=True),
            lambda p: p["trees"][0]["leaves"][0].update(fns=[["0.5", 0.1]] * 2),
            lambda p: p["trees"][0]["leaves"][0]["tables"][0][0][0].__setitem__(1, 1.5),
            lambda p: p["trees"][0]["leaves"][0]["tables"][1].pop(),
            lambda p: p["trees"].pop(),
            lambda p: p.update(trees={}),
        ],
    )
    def test_rejects_mistyped_fields(self, tmp_path, corrupt):
        path, payload = self._dump(tmp_path)
        corrupt(payload)
        self._assert_rejected(path, payload, "malformed")

    def test_rejects_leaves_that_differ_from_the_tree(self, tmp_path):
        path, payload = self._dump(tmp_path)
        dropped = payload["trees"][0]["leaves"].pop()
        self._assert_rejected(path, payload, "leaves")
        payload["trees"][0]["leaves"].append(dropped)
        root = payload["trees"][0]["root"]
        root["left"]["end"] -= 1  # a gap between the children
        self._assert_rejected(path, payload, "split")

    def test_rejects_counts_not_summing_to_n(self, tmp_path):
        path, payload = self._dump(tmp_path)
        payload["trees"][1]["leaves"][0]["tables"][1][0][0][1] += 1
        self._assert_rejected(path, payload, "sum to n=10")
