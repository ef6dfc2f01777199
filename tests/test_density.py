from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dlde
from dlde import LabeledDataset, fit, score
from dlde.density import leaf_point_densities, row_densities
from dlde.hashing import HashFn, build_leaf_tables, hash_keys
from dlde.tstree import Segment, build_tstree, leaves

from conftest import matrices
from reference import tree_point_densities

hash_fns = st.builds(lambda w, f: HashFn(w, w * f), st.floats(0.05, 0.95), st.floats(0.0, 1.0))


def _identical_rows(n: int, d: int) -> LabeledDataset:
    return LabeledDataset(np.tile(np.linspace(0.0, 1.0, d), (n, 1)), np.zeros(n, int))


def _single_leaf_model(dataset, fns):
    """One tree with one leaf over the whole axis plus its tables."""
    tree = build_tstree(1, dataset.d, 0, 3, np.random.default_rng(0))
    segment = leaves(tree)[0]
    tables = build_leaf_tables(dataset, segment, fns)
    return tree, {segment: tables}


def _point_densities(x, tree, leaf_tables):
    """(N, d) point densities under one tree, leaf blocks in temporal order."""
    return np.concatenate(
        [leaf_point_densities(x, leaf_tables[seg]) for seg in leaves(tree)], axis=1
    )


HAND_DATASET = LabeledDataset(
    [
        [0.1, 1.0, 2.0, 3.0],
        [0.6, 1.0, 2.0, 3.0],
        [0.7, 1.0, 2.0, 3.0],
    ],
    [0, 0, 0],
)


PUBLIC_API = {
    "LabeledDataset", "RawSeries", "parse_labeled_file", "parse_raw_series",
    "window_series", "write_labeled_file", "znormalize",
    "fit", "score", "anomaly_scores", "ScoreVector", "TSForest", "ForestParams",
    "auc", "ExperimentConfig", "ExperimentReport", "run_experiment", "sweep",
    "DldeError", "InputFormatError", "EmptyInputError", "ConfigurationError", "MetricError",
    "__version__",
}


def test_per_point_path_not_exported():
    removed = ["similar_time_points", "true_similar_set", "point_density",
               "subsequence_density", "locate_leaf", "hash_value", "TSTreeNode",
               "save_forest", "load_forest"]
    assert [name for name in removed if hasattr(dlde, name)] == []
    assert len(dlde.__all__) == 24
    assert set(dlde.__all__) == PUBLIC_API
    assert {"save_forest", "load_forest", "TreeModel"}.isdisjoint(dlde.__all__)
    # not exported, but still read as dlde.<name> by the benchmark's oracle check
    assert dlde.leaves is leaves
    assert dlde.leaf_point_densities is leaf_point_densities


def test_readme_names_are_exported():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    used = set(re.findall(r"\bdlde\.(\w+)", "".join(blocks)))
    assert {"fit", "score", "parse_labeled_file", "window_series"} <= used
    assert sorted(used - set(dlde.__all__)) == []
    assert [name for name in dlde.__all__ if not hasattr(dlde, name)] == []


class TestSimilarTimePoints:
    def test_constant_data_full_segment(self):
        # one key in every column: each point is similar to the whole segment
        ds = LabeledDataset(np.full((6, 5), 0.4), np.zeros(6, int))
        tables = build_leaf_tables(ds, Segment(2, 4), [HashFn(0.5, 0.1)])
        np.testing.assert_array_equal(leaf_point_densities(ds.subsequences, tables), 6.0)

    def test_hand_enumerated_example(self):
        # keys at t=1 are {0: 1, 1: 2}, at t=2 {2: 3}; 0.6 and 0.7 hash to 1,
        # present at t=1 only, so they are similar to t=1 alone
        tables = build_leaf_tables(HAND_DATASET, Segment(1, 2), [HashFn(0.5, 0.0)])
        got = leaf_point_densities(HAND_DATASET.subsequences, tables)
        assert got.tolist() == [[1.0, 3.0], [2.0, 3.0], [2.0, 3.0]]

    def test_far_away_query_empty(self):
        # a value no fitted value is near has no similar time points among
        # the fitted rows; scoring it is refused, not answered by its own count
        ds = _identical_rows(6, 5)
        forest = fit(ds, m=1, h=1, hlimit=0, seed=0)
        x = ds.subsequences.copy()
        x[2, 3] = 1e6
        with pytest.raises(ValueError, match="fitted on"):
            score(forest, LabeledDataset(x, ds.labels))


class TestTrueSimilarSet:
    def test_single_hash_equals_candidate_set(self):
        # with one function TN is the candidate set: every column where the
        # point's key occurs, counted from the keys directly
        rng = np.random.default_rng(3)
        ds = LabeledDataset(np.round(rng.normal(size=(10, 8)), 1), np.zeros(10, int))
        fn = HashFn(0.4, 0.1)
        tables = build_leaf_tables(ds, Segment(2, 7), [fn])
        keys = hash_keys(fn, ds.subsequences[:, 1:7])
        got = leaf_point_densities(ds.subsequences, tables)
        for (k, i), key in np.ndenumerate(keys):
            counts = (keys == key).sum(axis=0)
            assert got[k, i] == counts.sum() / np.count_nonzero(counts)

    @pytest.mark.parametrize("seed", range(8))
    def test_subset_of_every_candidate_set_and_self_membership(self, seed):
        # a point's own column is in TN, and every column of TN holds its key
        # under all h functions, so no density falls below h; a TN wider than
        # the intersection would admit columns that miss a key
        rng = np.random.default_rng(seed)
        n, d, h = 10, 8, 3
        ds = LabeledDataset(rng.normal(size=(n, d)), np.zeros(n, int))
        fns = [HashFn(float(w), float(w) / 2) for w in rng.uniform(0.2, 0.8, size=h)]
        tables = build_leaf_tables(ds, Segment(2, 7), fns)
        assert leaf_point_densities(ds.subsequences, tables).min() >= h


class TestPointDensity:
    def test_identical_rows_single_hash(self):
        ds = _identical_rows(9, 6)
        tree, tables = _single_leaf_model(ds, [HashFn(0.5, 0.1)])
        np.testing.assert_array_equal(_point_densities(ds.subsequences, tree, tables), 9.0)

    def test_identical_rows_sums_over_hashes(self):
        ds = _identical_rows(9, 6)
        tree, tables = _single_leaf_model(ds, [HashFn(0.5, 0.1)] * 4)
        np.testing.assert_array_equal(
            _point_densities(ds.subsequences, tree, tables), 4 * 9.0
        )

    def test_single_row_dataset(self):
        ds = LabeledDataset([[0.1, 0.2, 0.3, 0.4]], [0])
        tree, tables = _single_leaf_model(ds, [HashFn(0.5, 0.0), HashFn(0.3, 0.1)])
        np.testing.assert_array_equal(_point_densities(ds.subsequences, tree, tables), 2.0)

    @staticmethod
    def _assert_within_bounds(x, forest, h):
        # at least the point's own count under each function, at most all rows
        for model in forest.trees:
            got = _point_densities(x, model.tree, model.leaf_tables)
            assert h <= got.min() and got.max() <= h * x.shape[0]

    @pytest.mark.parametrize("seed", range(6))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(12, 8))
        forest = fit(LabeledDataset(x, np.zeros(12, int)), m=2, h=3, seed=seed)
        self._assert_within_bounds(x, forest, 3)

    @given(x=matrices(), h=st.integers(1, 6), hlimit=st.integers(0, 4), seed=st.integers(0, 99))
    def test_bounds_hold_on_any_data(self, x, h, hlimit, seed):
        forest = fit(LabeledDataset(x, np.zeros(len(x), int)), m=1, h=h, hlimit=hlimit, seed=seed)
        self._assert_within_bounds(x, forest, h)

    def test_unseen_value_rejected(self):
        ds = _identical_rows(5, 4)
        forest = fit(ds, m=2, h=1, seed=0)
        x = ds.subsequences.copy()
        x[0, 0] = 1e6
        with pytest.raises(ValueError, match="fitted on"):
            score(forest, LabeledDataset(x, ds.labels))

    @given(x=matrices(min_rows=1), fns=st.lists(hash_fns, min_size=1, max_size=4), data=st.data())
    def test_duplicating_a_row_never_lowers_its_density(self, x, fns, data):
        # a copy of row k adds no key to any column, so no similarity set
        # changes, while row k's counts can only grow
        n, d = x.shape
        k = data.draw(st.integers(0, n - 1))
        start = data.draw(st.integers(1, d))
        segment = Segment(start, data.draw(st.integers(start, d)))
        extended = np.vstack([x, x[k]])
        before = leaf_point_densities(
            x, build_leaf_tables(LabeledDataset(x, np.zeros(n, int)), segment, fns)
        )
        after = leaf_point_densities(
            extended,
            build_leaf_tables(LabeledDataset(extended, np.zeros(n + 1, int)), segment, fns),
        )
        assert np.all(after[k] >= before[k])

    def test_displaced_row_scores_strictly_lower(self):
        # one row displaced by far more than any bucket width collides with
        # nobody: its density is the self-count floor, the majority's is not
        d, n = 6, 10
        x = np.tile(np.linspace(0.0, 0.5, d), (n, 1))
        x[4] += 10.0
        ds = LabeledDataset(x, np.zeros(n, int))
        fns = [HashFn(0.5, 0.1), HashFn(0.3, 0.0)]
        tree, tables = _single_leaf_model(ds, fns)
        densities = row_densities(x, tree, tables)
        assert densities[4] == len(fns) * 1.0
        assert densities[0] == len(fns) * (n - 1)
        assert densities[4] < densities[0]


class TestSubsequenceDensity:
    def test_identical_rows(self):
        ds = _identical_rows(7, 5)
        tree, tables = _single_leaf_model(ds, [HashFn(0.5, 0.1)])
        np.testing.assert_array_equal(row_densities(ds.subsequences, tree, tables), 7.0)

    def test_shape_mismatch(self):
        ds = _identical_rows(7, 5)
        tree, tables = _single_leaf_model(ds, [HashFn(0.5, 0.1)])
        with pytest.raises(ValueError, match="matrix width 4 does not match axis length 5"):
            row_densities(np.zeros((7, 4)), tree, tables)

    @pytest.mark.parametrize("seed", range(4))
    def test_self_count_floor(self, seed):
        rng = np.random.default_rng(40 + seed)
        ds = LabeledDataset(rng.normal(size=(9, 7)), np.zeros(9, int))
        model = fit(ds, m=2, h=2, seed=seed).trees[0]
        assert row_densities(ds.subsequences, model.tree, model.leaf_tables).min() >= 1.0


class TestOracleEquivalence:
    @staticmethod
    def _assert_leaves_match_bruteforce(x, model):
        fns_by_leaf = {seg: tbl.fns for seg, tbl in model.leaf_tables.items()}
        expected = tree_point_densities(x.tolist(), model.tree, fns_by_leaf)
        got = _point_densities(x, model.tree, model.leaf_tables)
        np.testing.assert_array_equal(got, np.array(expected))

    @pytest.mark.parametrize("seed", range(12))
    def test_point_densities_match_bruteforce_exactly(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(5, 21))
        d = int(rng.integers(4, 17))
        h = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        if seed % 3 == 0:
            x[: n // 2] = x[0]  # force heavy collisions
        ds = LabeledDataset(x, np.zeros(n, int))
        self._assert_leaves_match_bruteforce(x, fit(ds, m=1, h=h, seed=seed).trees[0])

    def test_batch_equals_per_point_path_exactly(self):
        # the row mean over the brute-force point densities, taken the way
        # row_densities takes it, is bit-identical
        rng = np.random.default_rng(77)
        ds = LabeledDataset(rng.normal(size=(14, 10)), np.zeros(14, int))
        rows = ds.subsequences.tolist()
        for model in fit(ds, m=3, h=3, seed=5).trees:
            fns_by_leaf = {seg: tbl.fns for seg, tbl in model.leaf_tables.items()}
            expected = np.mean(np.array(tree_point_densities(rows, model.tree, fns_by_leaf)), axis=1)
            np.testing.assert_array_equal(
                row_densities(ds.subsequences, model.tree, model.leaf_tables), expected
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_rounded_duplicated_rows_match_bruteforce(self, seed):
        # few distinct key tuples, each shared by many points
        rng = np.random.default_rng(300 + seed)
        x = np.round(rng.normal(size=(8, 12)), 1)[rng.integers(0, 8, size=24)]
        ds = LabeledDataset(x, np.zeros(24, int))
        for model in fit(ds, m=2, h=3, seed=seed).trees:
            self._assert_leaves_match_bruteforce(x, model)

    def test_all_distinct_tuples_match_bruteforce(self):
        # values one apart and widths below one: every point has its own
        # key under every function, so TN is its own column only; with 12
        # functions over up to 77 keys the tuple codes must be compacted
        x = np.random.default_rng(9).permutation(11 * 7).reshape(11, 7).astype(float)
        ds = LabeledDataset(x, np.zeros(11, int))
        model = fit(ds, m=1, h=12, hlimit=0, seed=2).trees[0]
        self._assert_leaves_match_bruteforce(x, model)
        np.testing.assert_array_equal(row_densities(x, model.tree, model.leaf_tables), 12.0)

    def test_single_full_length_leaf_matches_bruteforce(self):
        # hlimit=0: one leaf over all d columns, the widest (U, L) gathers
        rng = np.random.default_rng(88)
        ds = LabeledDataset(rng.normal(size=(20, 40)), np.zeros(20, int))
        model = fit(ds, m=1, h=2, hlimit=0, seed=1).trees[0]
        assert leaves(model.tree) == [Segment(1, 40)]
        self._assert_leaves_match_bruteforce(ds.subsequences, model)

    def test_matrix_not_built_from_rejected(self):
        ds = LabeledDataset(np.tile([0.1, 0.55, 0.1, 0.55], (5, 1)), np.zeros(5, int))
        forest = fit(ds, m=1, h=2, seed=0)
        # every key shifted away from the fitted ones
        with pytest.raises(ValueError, match="fitted on"):
            score(forest, LabeledDataset(ds.subsequences + 100.0, ds.labels))
        # one value moved by 1e-12: another matrix of the same shape
        x = ds.subsequences.copy()
        x[4, 0] = 0.1 + 1e-12
        with pytest.raises(ValueError, match="fitted on"):
            score(forest, LabeledDataset(x, ds.labels))
