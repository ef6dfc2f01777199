from __future__ import annotations

import numpy as np
import pytest

from dlde import (
    HashFn,
    LabeledDataset,
    Segment,
    build_leaf_tables,
    build_tstree,
    fit,
    leaf_point_densities,
    leaves,
    point_density,
    row_densities,
    similar_time_points,
    subsequence_density,
    true_similar_set,
)

from reference import tree_point_densities


def _identical_rows(n: int, d: int) -> LabeledDataset:
    return LabeledDataset(np.tile(np.linspace(0.0, 1.0, d), (n, 1)), np.zeros(n, int))


def _single_leaf_model(dataset, fns):
    """One tree with one leaf over the whole axis plus its tables."""
    tree = build_tstree(1, dataset.d, 0, 3, np.random.default_rng(0))
    segment = leaves(tree)[0]
    tables = build_leaf_tables(dataset, segment, fns)
    return tree, {segment: tables}


HAND_DATASET = LabeledDataset(
    [
        [0.1, 1.0, 2.0, 3.0],
        [0.6, 1.0, 2.0, 3.0],
        [0.7, 1.0, 2.0, 3.0],
    ],
    [0, 0, 0],
)


class TestSimilarTimePoints:
    def test_constant_data_full_segment(self):
        ds = LabeledDataset(np.full((6, 5), 0.4), np.zeros(6, int))
        tables = build_leaf_tables(ds, Segment(2, 4), [HashFn(0.5, 0.1)])
        assert similar_time_points(0.4, tables, 0) == {2, 3, 4}

    def test_hand_enumerated_example(self):
        # keys at t=1 are {0: 1, 1: 2}; q=0.6 hashes to 1, present at t=1 only
        tables = build_leaf_tables(HAND_DATASET, Segment(1, 2), [HashFn(0.5, 0.0)])
        assert similar_time_points(0.6, tables, 0) == {1}
        assert similar_time_points(0.1, tables, 0) == {1}

    def test_far_away_query_empty(self):
        ds = _identical_rows(6, 5)
        tables = build_leaf_tables(ds, Segment(1, 5), [HashFn(0.5, 0.1)])
        assert similar_time_points(1e6, tables, 0) == set()


class TestTrueSimilarSet:
    def test_single_hash_equals_candidate_set(self):
        tables = build_leaf_tables(HAND_DATASET, Segment(1, 2), [HashFn(0.5, 0.0)])
        assert true_similar_set(0.6, tables) == similar_time_points(0.6, tables, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_subset_of_every_candidate_set_and_self_membership(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 10, 8
        ds = LabeledDataset(rng.normal(size=(n, d)), np.zeros(n, int))
        fns = [HashFn(float(w), float(w) / 2) for w in rng.uniform(0.2, 0.8, size=3)]
        tables = build_leaf_tables(ds, Segment(2, 7), fns)
        for k in range(n):
            for t in range(2, 8):
                q = float(ds.subsequences[k, t - 1])
                tn = true_similar_set(q, tables)
                assert t in tn
                for j in range(3):
                    assert tn <= similar_time_points(q, tables, j)


class TestPointDensity:
    def test_identical_rows_single_hash(self):
        ds = _identical_rows(9, 6)
        tree, tables = _single_leaf_model(ds, [HashFn(0.5, 0.1)])
        assert point_density(float(ds.subsequences[0, 0]), 1, tree, tables) == 9.0

    def test_identical_rows_sums_over_hashes(self):
        ds = _identical_rows(9, 6)
        tree, tables = _single_leaf_model(ds, [HashFn(0.5, 0.1)] * 4)
        assert point_density(float(ds.subsequences[0, 2]), 3, tree, tables) == 4 * 9.0

    def test_single_row_dataset(self):
        ds = LabeledDataset([[0.1, 0.2, 0.3, 0.4]], [0])
        tree, tables = _single_leaf_model(ds, [HashFn(0.5, 0.0), HashFn(0.3, 0.1)])
        assert point_density(0.1, 1, tree, tables) == 2.0

    @pytest.mark.parametrize("seed", range(6))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n, d, h = 12, 8, 3
        ds = LabeledDataset(rng.normal(size=(n, d)), np.zeros(n, int))
        fns = [HashFn(float(w), 0.0) for w in rng.uniform(0.2, 0.8, size=h)]
        tree, tables = _single_leaf_model(ds, fns)
        for k in range(n):
            for t in range(1, d + 1):
                pd = point_density(float(ds.subsequences[k, t - 1]), t, tree, tables)
                assert 1.0 <= pd <= h * n

    def test_out_of_range_index(self):
        ds = _identical_rows(5, 4)
        tree, tables = _single_leaf_model(ds, [HashFn(0.5, 0.1)])
        with pytest.raises(IndexError):
            point_density(0.5, 5, tree, tables)

    def test_unseen_value_rejected(self):
        ds = _identical_rows(5, 4)
        tree, tables = _single_leaf_model(ds, [HashFn(0.5, 0.1)])
        with pytest.raises(ValueError, match="empty similarity set"):
            point_density(1e6, 1, tree, tables)

    def test_duplicating_a_row_never_lowers_its_density(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(8, 6))
        fns = [HashFn(0.4, 0.1), HashFn(0.7, 0.2)]
        base = LabeledDataset(x, np.zeros(8, int))
        extended = LabeledDataset(np.vstack([x, x[2]]), np.zeros(9, int))
        tree_a, tables_a = _single_leaf_model(base, fns)
        tree_b, tables_b = _single_leaf_model(extended, fns)
        for t in range(1, 7):
            q = float(x[2, t - 1])
            assert point_density(q, t, tree_b, tables_b) >= point_density(
                q, t, tree_a, tables_a
            )

    def test_displaced_row_scores_strictly_lower(self):
        # one row displaced by far more than any bucket width collides with
        # nobody: its density is the self-count floor, the majority's is not
        d, n = 6, 10
        x = np.tile(np.linspace(0.0, 0.5, d), (n, 1))
        x[4] += 10.0
        ds = LabeledDataset(x, np.zeros(n, int))
        fns = [HashFn(0.5, 0.1), HashFn(0.3, 0.0)]
        tree, tables = _single_leaf_model(ds, fns)
        majority = subsequence_density(x[0], tree, tables)
        displaced = subsequence_density(x[4], tree, tables)
        assert displaced == len(fns) * 1.0
        assert majority == len(fns) * (n - 1)
        assert displaced < majority


class TestSubsequenceDensity:
    def test_identical_rows(self):
        ds = _identical_rows(7, 5)
        tree, tables = _single_leaf_model(ds, [HashFn(0.5, 0.1)])
        for k in range(7):
            assert subsequence_density(ds.subsequences[k], tree, tables) == 7.0

    def test_shape_mismatch(self):
        ds = _identical_rows(7, 5)
        tree, tables = _single_leaf_model(ds, [HashFn(0.5, 0.1)])
        with pytest.raises(ValueError, match="does not match"):
            subsequence_density(np.zeros(4), tree, tables)

    @pytest.mark.parametrize("seed", range(4))
    def test_self_count_floor(self, seed):
        rng = np.random.default_rng(40 + seed)
        ds = LabeledDataset(rng.normal(size=(9, 7)), np.zeros(9, int))
        forest = fit(ds, m=2, h=2, seed=seed)
        model = forest.trees[0]
        for k in range(9):
            assert subsequence_density(ds.subsequences[k], model.tree, model.leaf_tables) >= 1.0


class TestOracleEquivalence:
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
        forest = fit(ds, m=1, h=h, seed=seed)
        model = forest.trees[0]
        fns_by_leaf = {seg: tbl.fns for seg, tbl in model.leaf_tables.items()}
        expected = tree_point_densities(x.tolist(), model.tree, fns_by_leaf)
        # batch path, whole matrix at once
        batch = np.concatenate(
            [leaf_point_densities(x, model.leaf_tables[seg]) for seg in leaves(model.tree)],
            axis=1,
        )
        np.testing.assert_array_equal(batch, np.array(expected))
        # per-point path on a sample of positions
        for k in range(0, n, 3):
            for t in range(1, d + 1, 2):
                got = point_density(float(x[k, t - 1]), t, model.tree, model.leaf_tables)
                assert got == expected[k][t - 1]

    def test_batch_equals_per_point_path_exactly(self):
        rng = np.random.default_rng(77)
        ds = LabeledDataset(rng.normal(size=(14, 10)), np.zeros(14, int))
        forest = fit(ds, m=3, h=3, seed=5)
        for model in forest.trees:
            batch = row_densities(ds.subsequences, model.tree, model.leaf_tables)
            for k in range(ds.n):
                assert batch[k] == subsequence_density(
                    ds.subsequences[k], model.tree, model.leaf_tables
                )

    @staticmethod
    def _assert_leaves_match_bruteforce(x, model):
        fns_by_leaf = {seg: tbl.fns for seg, tbl in model.leaf_tables.items()}
        expected = tree_point_densities(x.tolist(), model.tree, fns_by_leaf)
        got = np.concatenate(
            [leaf_point_densities(x, model.leaf_tables[seg]) for seg in leaves(model.tree)],
            axis=1,
        )
        np.testing.assert_array_equal(got, np.array(expected))

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
        ds = LabeledDataset([[0.1, 0.55, 0.1, 0.55]], [0])
        tables = build_leaf_tables(ds, Segment(1, 2), [HashFn(0.5, 0.0), HashFn(0.3, 0.0)])
        # a key that no table holds
        with pytest.raises(ValueError, match="not built from"):
            leaf_point_densities(ds.subsequences + 100.0, tables)
        # 0.4 shares its first key with column 1 only and its second key
        # with column 2 only, so its similarity set is empty
        with pytest.raises(ValueError, match="not built from"):
            leaf_point_densities(np.array([[0.4, 0.55, 0.1, 0.55]]), tables)
