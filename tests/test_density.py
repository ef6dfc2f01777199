from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

import dlde
from dlde import LabeledDataset, fit, score
from dlde.density import leaf_point_densities, row_densities, sort_columns
from dlde.hashing import LeafTables, build_leaf_tables
from dlde.tstree import Segment, TSTree, build_tstree, leaves

from conftest import draw_fns, hash_fns, hash_keys, matrices
from reference import hash_value, tree_point_densities

# rows of one to four functions (width, width * f)
fn_rows = st.lists(
    st.builds(lambda w, f: (w, w * f), st.floats(0.05, 0.95), st.floats(0.0, 1.0)),
    min_size=1, max_size=4,
).map(lambda pairs: hash_fns(*pairs))


def _identical_rows(n: int, d: int) -> LabeledDataset:
    return LabeledDataset(np.tile(np.linspace(0.0, 1.0, d), (n, 1)), np.zeros(n, int))


def _single_leaf_model(dataset, fns):
    """One tree with one leaf over the whole axis plus its tables."""
    tree = build_tstree(dataset.d, 0, 3, np.random.default_rng(0))
    segment = leaves(tree)[0]
    tables = build_leaf_tables(dataset, segment, fns)
    return tree, {segment: tables}


def _point_densities(x, tree, leaf_tables):
    """(N, d) point densities under one tree, leaf blocks in temporal order."""
    return np.concatenate(
        [leaf_point_densities(x, leaf_tables[seg]) for seg in leaves(tree)], axis=1
    )


def _spy_bucket_keys(monkeypatch) -> list:
    """The arguments of each bucket_keys call the kernel makes."""
    calls = []

    def spy(values, offset, width):
        calls.append((values, offset, width))
        return dlde.hashing.bucket_keys(values, offset, width)

    monkeypatch.setattr(dlde.density, "bucket_keys", spy)
    return calls


# The two ways a leaf finds its key changes, each forced, and the way
# score chooses: (_BLOCK, _BOUNDARY_SHARE, whether the kernel gets the
# sorted columns).  A budget of no elements makes every leaf too large to
# hash in one block, so a leaf given its sorted columns searches them.
SHARE = dlde.density._BOUNDARY_SHARE
WAYS = {
    "column": (0, np.inf, True),
    "full": (dlde.density._BLOCK, -1.0, False),
    "chosen": (dlde.density._BLOCK, SHARE, True),
}


def _force(monkeypatch, way: str, x) -> dict:
    """Force ``way`` on the kernel; the keyword arguments it needs for ``x``."""
    block, share, columns = WAYS[way]
    monkeypatch.setattr(dlde.density, "_BLOCK", block)
    monkeypatch.setattr(dlde.density, "_BOUNDARY_SHARE", share)
    return {"sorted_columns": lambda: sort_columns(x)} if columns else {}


HAND_DATASET = LabeledDataset(
    [
        [0.1, 1.0, 2.0, 3.0],
        [0.6, 1.0, 2.0, 3.0],
        [0.7, 1.0, 2.0, 3.0],
    ],
    [0, 0, 0],
)


PUBLIC_API = {
    "LabeledDataset", "parse_labeled_file", "parse_raw_series", "window_series", "znormalize",
    "fit", "score", "ScoreVector", "TSForest",
    "auc", "ExperimentConfig", "ExperimentReport", "run_experiment", "sweep",
    "DldeError", "InputFormatError", "EmptyInputError", "ConfigurationError", "MetricError",
    "__version__",
}


def test_per_point_path_not_exported():
    removed = ["similar_time_points", "true_similar_set", "point_density",
               "subsequence_density", "locate_leaf", "hash_value", "TSTreeNode",
               "save_forest", "load_forest", "RawSeries", "write_labeled_file",
               "anomaly_scores", "ForestParams"]
    assert [name for name in removed if hasattr(dlde, name)] == []
    # test helpers, kept in tests/conftest.py
    assert not hasattr(dlde.hashing, "hash_keys")
    assert not hasattr(dlde.dataset, "write_labeled_file")
    assert len(dlde.__all__) == 20
    assert set(dlde.__all__) == PUBLIC_API
    assert {"save_forest", "load_forest", "TreeModel"}.isdisjoint(dlde.__all__)
    # not exported, but still read as dlde.<name> by the benchmark's oracle check
    assert dlde.leaves is leaves
    assert dlde.leaf_point_densities is leaf_point_densities


def test_experiment_config_holds_only_the_run_protocol():
    # reading, windowing and normalizing input is the CLI's job
    assert [f.name for f in dataclasses.fields(dlde.ExperimentConfig)] == [
        "m", "h", "slimit", "hlimit", "repeats", "base_seed"
    ]


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
        tables = build_leaf_tables(ds, Segment(2, 4), hash_fns((0.5, 0.1)))
        np.testing.assert_array_equal(leaf_point_densities(ds.subsequences, tables), 6.0)

    def test_hand_enumerated_example(self):
        # keys at t=1 are {0: 1, 1: 2}, at t=2 {2: 3}; 0.6 and 0.7 hash to 1,
        # present at t=1 only, so they are similar to t=1 alone
        tables = build_leaf_tables(HAND_DATASET, Segment(1, 2), hash_fns((0.5, 0.0)))
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
        fns = hash_fns((0.4, 0.1))
        tables = build_leaf_tables(ds, Segment(2, 7), fns)
        keys = hash_keys(fns[0], ds.subsequences[:, 1:7])
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
        fns = hash_fns(*[(float(w), float(w) / 2) for w in rng.uniform(0.2, 0.8, size=h)])
        tables = build_leaf_tables(ds, Segment(2, 7), fns)
        assert leaf_point_densities(ds.subsequences, tables).min() >= h


class TestPointDensity:
    def test_identical_rows_single_hash(self):
        ds = _identical_rows(9, 6)
        tree, tables = _single_leaf_model(ds, hash_fns((0.5, 0.1)))
        np.testing.assert_array_equal(_point_densities(ds.subsequences, tree, tables), 9.0)

    def test_identical_rows_sums_over_hashes(self):
        ds = _identical_rows(9, 6)
        tree, tables = _single_leaf_model(ds, hash_fns(*[(0.5, 0.1)] * 4))
        np.testing.assert_array_equal(
            _point_densities(ds.subsequences, tree, tables), 4 * 9.0
        )

    def test_single_row_dataset(self):
        ds = LabeledDataset([[0.1, 0.2, 0.3, 0.4]], [0])
        tree, tables = _single_leaf_model(ds, hash_fns((0.5, 0.0), (0.3, 0.1)))
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

    @given(x=matrices(min_rows=1), fns=fn_rows, data=st.data())
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
        fns = hash_fns((0.5, 0.1), (0.3, 0.0))
        _, tables = _single_leaf_model(ds, fns)
        densities = row_densities(x, tables.values())
        assert densities[4] == len(fns) * 1.0
        assert densities[0] == len(fns) * (n - 1)
        assert densities[4] < densities[0]


class TestSubsequenceDensity:
    def test_identical_rows(self):
        ds = _identical_rows(7, 5)
        _, tables = _single_leaf_model(ds, hash_fns((0.5, 0.1)))
        np.testing.assert_array_equal(row_densities(ds.subsequences, tables.values()), 7.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_self_count_floor(self, seed):
        rng = np.random.default_rng(40 + seed)
        ds = LabeledDataset(rng.normal(size=(9, 7)), np.zeros(9, int))
        model = fit(ds, m=2, h=2, seed=seed).trees[0]
        assert row_densities(ds.subsequences, model.leaf_tables.values()).min() >= 1.0


# Offset 0, offset equal to the width, and one in between.
EDGE_FNS = hash_fns((0.3, 0.1), (0.25, 0.0), (0.7, 0.7))


def _on_bucket_edges():
    # k * width - offset under each function, and the next float either side
    edges = np.array([k * fn.width - fn.offset for fn in EDGE_FNS for k in range(-3, 4)])
    values = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
    return np.random.default_rng(0).permutation(values).reshape(9, 7), EDGE_FNS


def _signed_zeros():
    values = np.array([-0.0, 0.0] * 12 + [5e-324, -5e-324, 0.25, -0.25])
    return np.random.default_rng(1).permutation(values).reshape(7, 4), EDGE_FNS


def _adc_ties():
    # integer counts around 2048: each integer its own key, repeated often
    rng = np.random.default_rng(2)
    return np.round(2048.0 + 40.0 * rng.normal(size=(16, 10))), draw_fns(16, rng, 4)


SORTED_CELL_CASES = {
    "on_bucket_edges": _on_bucket_edges,
    "signed_zeros": _signed_zeros,
    "all_equal": lambda: (np.full((6, 5), 0.4), EDGE_FNS),
    "all_equal_on_an_edge": lambda: (np.full((5, 4), 2 * 0.3 - 0.1), EDGE_FNS),
    "one_row": lambda: (np.random.default_rng(3).normal(size=(1, 9)), EDGE_FNS),
    "one_column": lambda: (np.round(np.random.default_rng(4).normal(size=(12, 1)), 1), EDGE_FNS),
    "one_value": lambda: (np.array([[0.6]]), EDGE_FNS),
    "adc_ties": _adc_ties,
}


class TestOracleEquivalence:
    @staticmethod
    def _assert_leaves_match_bruteforce(x, model):
        fns_by_leaf = {seg: tbl.fns for seg, tbl in model.leaf_tables.items()}
        expected = tree_point_densities(x.tolist(), model.tree, fns_by_leaf)
        got = _point_densities(x, model.tree, model.leaf_tables)
        np.testing.assert_array_equal(got, np.array(expected))

    # A key never decreases as the value grows, so each key tuple is one
    # run of a leaf's sorted values.  These inputs sit where that could
    # break: on bucket edges and one float either side, at signed zeros,
    # in blocks of one value, one row or one column, and in heavy ties.
    @pytest.mark.parametrize("case", SORTED_CELL_CASES)
    def test_sorted_cells_match_bruteforce(self, case):
        x, fns = SORTED_CELL_CASES[case]()
        segment = Segment(1, x.shape[1])
        tree = TSTree((segment,), (0,))
        expected = tree_point_densities(x.tolist(), tree, {segment: fns})
        got = leaf_point_densities(x, LeafTables(segment, fns))
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
                row_densities(ds.subsequences, model.leaf_tables.values()), expected
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
        # key under every function, so TN is its own column only, and
        # every sorted value is a cell of its own
        x = np.random.default_rng(9).permutation(11 * 7).reshape(11, 7).astype(float)
        ds = LabeledDataset(x, np.zeros(11, int))
        model = fit(ds, m=1, h=12, hlimit=0, seed=2).trees[0]
        self._assert_leaves_match_bruteforce(x, model)
        np.testing.assert_array_equal(row_densities(x, model.leaf_tables.values()), 12.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_column_search_matches_bruteforce(self, monkeypatch, seed):
        # every leaf of a tree searches its sorted columns, and none gives up
        rng = np.random.default_rng(600 + seed)
        x = np.round(rng.normal(size=(30, 12)), 1)
        model = fit(LabeledDataset(x, np.zeros(30, int)), m=1, h=3, seed=seed).trees[0]
        columns = _force(monkeypatch, "column", x)
        calls = _spy_bucket_keys(monkeypatch)
        got = np.concatenate(
            [leaf_point_densities(x, model.leaf_tables[s], **columns) for s in leaves(model.tree)],
            axis=1,
        )
        assert [v.ndim for v, _, _ in calls] == [1, 3] * len(model.leaf_tables)
        fns_by_leaf = {seg: tbl.fns for seg, tbl in model.leaf_tables.items()}
        expected = tree_point_densities(x.tolist(), model.tree, fns_by_leaf)
        np.testing.assert_array_equal(got, np.array(expected))

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

    # On the full-hash path the kernel takes a leaf's h functions in blocks
    # of g, as many as fit dlde.density._BLOCK elements: g rows of the n * L
    # sorted values when hashing, g blocks of (cells + 1) * L counts when
    # reading runs.  Budgets set from the leaf force each block shape: g = 1;
    # g = 3 of h = 10, so the last block is short; g = h; h = 1; cells * L
    # over the budget.  Without its sorted columns the leaf takes that path.
    @pytest.mark.parametrize(
        "h, budget, hashed, counted",
        [
            pytest.param(10, lambda p, c: 1, [1] * 10, 1, id="one_per_block"),
            pytest.param(10, lambda p, c: 3 * p, [3, 3, 3, 1], 1, id="three_hashed"),
            pytest.param(10, lambda p, c: 3 * c, [10], 3, id="three_counted"),
            pytest.param(10, lambda p, c: 10 * c, [10], 10, id="all_in_one_block"),
            pytest.param(1, lambda p, c: dlde.density._BLOCK, [1], 1, id="one_function"),
            pytest.param(10, lambda p, c: 2 * p, [2] * 5, 1, id="cells_over_budget"),
        ],
    )
    def test_function_blocks_match_bruteforce(self, monkeypatch, h, budget, hashed, counted):
        x, fns = self._ties(h)
        keys = np.stack([hash_keys(fn, x) for fn in fns], axis=-1).reshape(-1, h)
        values, counts = x.size, (len(np.unique(keys, axis=0)) + 1) * x.shape[1]
        monkeypatch.setattr(dlde.density, "_BLOCK", budget(values, counts))
        calls = _spy_bucket_keys(monkeypatch)
        segment = Segment(1, x.shape[1])
        expected = tree_point_densities(x.tolist(), TSTree((segment,), (0,)), {segment: fns})
        got = leaf_point_densities(x, LeafTables(segment, fns))
        shapes = [(v.shape, o.shape) for v, o, _ in calls]
        assert shapes == [((values,), (g, 1)) for g in hashed]
        assert min(h, max(1, budget(values, counts) // counts)) == counted
        np.testing.assert_array_equal(got, np.array(expected))

    # On a search one call hashes the extremes, and one more hashes, for each
    # k in (lo_j, hi_j] of each function j in order, the values either side
    # of where function j's key first reaches k in each of the leaf's sorted
    # columns between -inf and inf.
    @pytest.mark.parametrize("h", [1, 10])
    def test_boundary_path_hashes_each_boundary_once(self, monkeypatch, h):
        x, fns = self._ties(h)
        segment = Segment(1, x.shape[1])
        expected = tree_point_densities(x.tolist(), TSTree((segment,), (0,)), {segment: fns})
        ordered = np.sort(x, axis=None)
        bounds = [(fn, k) for fn in fns for k in range(hash_value(fn, ordered[0]) + 1,
                                                         hash_value(fn, ordered[-1]) + 1)]
        columns = _force(monkeypatch, "column", x)
        calls = _spy_bucket_keys(monkeypatch)
        got = leaf_point_densities(x, LeafTables(segment, fns), **columns)
        shapes = [(v.shape, o.shape) for v, o, _ in calls]
        assert shapes == [((2,), (h, 1)), ((2, x.shape[1], len(bounds)), (len(bounds),))]
        pairs, offsets, widths = calls[1]
        assert list(zip(offsets.tolist(), widths.tolist())) == [
            (fn.offset, fn.width) for fn, _ in bounds
        ]
        for column, found in zip(np.sort(x, axis=0).T, pairs.transpose(1, 2, 0)):
            values = [-np.inf, *column.tolist(), np.inf]
            for (before, after), (fn, k) in zip(found.tolist(), bounds):
                below = 1 + sum(hash_value(fn, v) < k for v in values[1:-1])
                assert (before, after) == (values[below - 1], values[below])
        np.testing.assert_array_equal(got, np.array(expected))

    @staticmethod
    def _ties(h):
        rng = np.random.default_rng(400)
        x = np.round(3 * rng.normal(size=(24, 6)), 1)  # ties among many cells
        return x, draw_fns(x.shape[0], rng, h)

    # Counts and their sums are kept in the narrowest integer type holding
    # -h*n to h*n.  Equal values put every point in one cell whose sums reach
    # h*n, the density, at the edges of int8 and int16.
    @pytest.mark.parametrize(
        "n, h", [(127, 1), (128, 1), (12, 10), (13, 10), (3276, 10), (3277, 10), (32767, 1), (32768, 1)]
    )
    def test_count_type_edges_exact(self, n, h):
        x = np.full((n, 2), 0.25)
        fns = draw_fns(n, np.random.default_rng(n), h)
        got = leaf_point_densities(x, LeafTables(Segment(1, 2), fns))
        np.testing.assert_array_equal(got, float(h * n))


@st.composite
def boundary_leaves(draw) -> tuple[np.ndarray, np.ndarray]:
    """A leaf's (N, L) values and functions, placed where finding key
    boundaries by search could go wrong: on a function's bucket edges
    k * w - o and one float either side, in ties, in one bucket of every
    function, and at keys near 2**52."""
    fns = draw(fn_rows)
    first = fns[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 6)))
    if draw(st.booleans()):
        # the first function's keys reach to either side of +-2**52
        sign, edge = draw(st.sampled_from([1.0, -1.0])), draw(st.integers(-3, 3))
        base = sign * (2.0**52 + edge) * first.width - first.offset
        values = base + first.width * rng.integers(-3, 4, size=shape)
    else:
        base = draw(st.sampled_from([0.0, -3.7, 1e3]))
        values = base + draw(st.sampled_from([0.0, 1e-12, 0.1, 1.0, 10.0])) * rng.normal(size=shape)
    if draw(st.booleans()):
        fn = fns[draw(st.integers(0, len(fns) - 1))]
        edges = np.floor((values + fn.offset) / fn.width) * fn.width - fn.offset
        values = np.where(rng.random(shape) < 0.7, edges, values)
        step = rng.integers(-1, 2, size=shape)
        values = np.select([step < 0, step > 0], [np.nextafter(values, -np.inf),
                                                  np.nextafter(values, np.inf)], values)
    if draw(st.booleans()):
        values = rng.choice(values.ravel()[:3], size=shape)
    return values, fns


@st.composite
def spread_leaves(draw) -> tuple[np.ndarray, np.ndarray]:
    """A leaf's (N, L) values and functions, spread over up to 40 buckets
    of one function, each value on one of its bucket edges k * w - o, one
    float either side, or inside the bucket."""
    fns = draw(fn_rows)
    fn = fns[draw(st.integers(0, len(fns) - 1))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 6)))
    edges = rng.integers(-20, 21, size=shape) * fn.width - fn.offset
    inside = edges + rng.random(shape) * fn.width
    step = rng.integers(-1, 3, size=shape)
    values = np.select([step < 0, step == 1, step > 1],
                       [np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), inside], edges)
    return values, fns


def _two_values(a: float, b: float, each: int = 8) -> np.ndarray:
    """``each`` each of ``a`` and ``b``, in a leaf of four columns."""
    return np.array([a, b] * each).reshape(-1, 4)


def _path(calls, h: int) -> str:
    """The path the kernel's bucket_keys calls took through a leaf of ``h``
    functions, named by the call that decided its key changes.
    ``"column"`` ends with one (2, L, K) block of the values either side of
    K boundaries in each of its L sorted columns, after a call that hashes
    the extremes.  ``"skipped"`` hashes only every value, each function
    once, the spread having ruled the search out; and ``"gave_up"`` hashes
    the extremes first, then every value."""
    if calls[-1][0].ndim == 3:
        return "column"
    return "skipped" if sum(len(offset) for _, offset, _ in calls) == h else "gave_up"


class TestBoundaryHashing:
    """Boundary hashing finds the same key changes as hashing every value."""

    @given(leaf=boundary_leaves())
    def test_matches_full_hash(self, leaf):
        x, fns = leaf
        tables = LeafTables(Segment(1, x.shape[1]), fns)
        got = {}
        # a value one float from the edge 0 is subnormal, and its key's
        # division underflows on every path; nothing else may warn
        with np.errstate(all="raise", under="ignore"), pytest.MonkeyPatch.context() as mp:
            for way in WAYS:
                columns = _force(mp, way, x)
                calls = _spy_bucket_keys(mp)
                got[way] = leaf_point_densities(x, tables, **columns).tobytes()
                note(f"{way}: path {_path(calls, len(fns))}")
        assert len(set(got.values())) == 1

    # The spread bound may skip only a search that would give up on its
    # count: then the keys of the extremes span more boundaries than the
    # share allows.  That holds at every share once it holds where the
    # limit is the span count itself, the share drawn here; there the
    # bound's slack alone keeps the search.
    @settings(max_examples=150)
    @given(leaf=boundary_leaves() | spread_leaves())
    def test_spread_bound_skips_only_hopeless_searches(self, leaf):
        x, fns = leaf
        low, high = float(x.min()), float(x.max())
        spans = sum(hash_value(fn, high) - hash_value(fn, low) for fn in fns)
        tables = LeafTables(Segment(1, x.shape[1]), fns)
        with np.errstate(all="raise", under="ignore"), pytest.MonkeyPatch.context() as mp:
            columns = _force(mp, "column", x)
            mp.setattr(dlde.density, "_BOUNDARY_SHARE", spans / x.size)
            calls = _spy_bucket_keys(mp)
            leaf_point_densities(x, tables, **columns)
            limit = dlde.density._BOUNDARY_SHARE * x.shape[0] * x.shape[1]
        note(f"path {_path(calls, len(fns))}, spans {spans}, limit {limit}")
        if _path(calls, len(fns)) == "skipped":
            assert spans > limit

    # (values, functions, the path taken) of a leaf given its sorted columns
    # and too large for one block, at the share score uses; each column of
    # values is one leaf column.  Under width 0.5 and offset 0 the key is 2v.
    HALF = hash_fns((0.5, 0.0))
    PATHS = {
        "all_equal": (np.full((6, 5), 0.4), EDGE_FNS, "column"),
        "one_key_each": (0.4 + 1e-9 * np.arange(12.0).reshape(4, 3), EDGE_FNS, "column"),
        # 16 values of two keys each: 1 or 2 boundaries, within 1/8 of them
        "keys_below_2**52": (_two_values(2.0**51 - 1, 2.0**51 - 2), HALF, "column"),
        "keys_at_2**52": (_two_values(2.0**51, 2.0**51 - 1), HALF, "gave_up"),
        "keys_above_-2**52": (_two_values(-(2.0**51) + 1, -(2.0**51) + 0.5), HALF, "column"),
        "keys_at_-2**52": (_two_values(-(2.0**51), -(2.0**51) + 1), HALF, "gave_up"),
        # 16 values: 2 boundaries are within 1/8 of them, 3 are not
        "share_met": (_two_values(0.0, 1.0), HALF, "column"),
        "share_exceeded": (_two_values(0.0, 1.5), HALF, "gave_up"),
        # a spread of s crosses more than 2s - 1 boundaries: less a slack of
        # one, that bound alone is over 2 at s = 2.5, and not at s = 2
        "spread_over_share": (_two_values(0.0, 2.5), HALF, "skipped"),
        "spread_within_slack": (_two_values(0.0, 2.0), HALF, "gave_up"),
        # on the edges of keys -11 and -2 under width and offset 0.1, the
        # upper key rounds down to -3: 8 boundaries, which 64 values allow.
        # The spread bound reads 8 and an ulp; its slack keeps the search.
        "edge_key_rounds_down": (
            _two_values(-11 * 0.1 - 0.1, -2 * 0.1 - 0.1, 32), hash_fns((0.1, 0.1)), "column"
        ),
    }

    @pytest.mark.parametrize("case", PATHS)
    def test_path_and_densities(self, monkeypatch, case):
        x, fns, path = self.PATHS[case]
        segment = Segment(1, x.shape[1])
        columns = _force(monkeypatch, "column", x)
        monkeypatch.setattr(dlde.density, "_BOUNDARY_SHARE", SHARE)
        calls = _spy_bucket_keys(monkeypatch)
        with np.errstate(all="raise"):
            got = leaf_point_densities(x, LeafTables(segment, fns), **columns)
        assert _path(calls, len(fns)) == path
        expected = tree_point_densities(x.tolist(), TSTree((segment,), (0,)), {segment: fns})
        np.testing.assert_array_equal(got, np.array(expected))

    def test_unproved_position_falls_back(self, monkeypatch):
        # values on bucket edges and one float either side: the search lands
        # a float off the key change at some boundary, the proof fails there,
        # and the leaf is hashed in full, with the same densities.  A budget
        # of no elements hashes the 3 functions one a call.
        x, fns = _on_bucket_edges()
        segment = Segment(1, x.shape[1])
        expected = tree_point_densities(x.tolist(), TSTree((segment,), (0,)), {segment: fns})
        columns = _force(monkeypatch, "column", x)
        calls = _spy_bucket_keys(monkeypatch)
        got = leaf_point_densities(x, LeafTables(segment, fns), **columns)
        assert [v.ndim for v, _, _ in calls] == [1, 3, 1, 1, 1]
        np.testing.assert_array_equal(got, np.array(expected))

    # (values, functions, the share) of a leaf given its sorted columns and
    # too large for one block; each takes the column search.  The bucket
    # edges of EXACT are binary fractions, at least 0.0125 from every value
    # of one decimal, so no proof fails on a rounded key.
    EXACT = hash_fns((0.25, 0.0), (0.5, 0.125))
    COLUMN_PATHS = {
        "equal_in_adjacent_columns": (
            np.round(np.random.default_rng(5).normal(size=(9, 2)), 1)[:, [0, 0, 1]], EXACT, np.inf
        ),
        "ties_across_columns": (
            np.random.default_rng(6).choice([-0.4, 0.1, 0.35, 0.9], size=(10, 4)), EXACT, np.inf
        ),
        "one_column": (np.round(np.random.default_rng(7).normal(size=(12, 1)), 1), EXACT, np.inf),
        "all_equal": (np.full((6, 5), 0.4), EXACT, np.inf),
        # 4 rows, 16 values, 2 boundaries: the share counts boundaries a
        # value, within 1/8 of the values though not of the rows
        "share_per_row": (_two_values(0.0, 1.0), HALF, SHARE),
    }

    @pytest.mark.parametrize("case", COLUMN_PATHS)
    def test_column_path_and_densities(self, monkeypatch, case):
        x, fns, share = self.COLUMN_PATHS[case]
        segment = Segment(1, x.shape[1])
        columns = _force(monkeypatch, "column", x)
        monkeypatch.setattr(dlde.density, "_BOUNDARY_SHARE", share)
        calls = _spy_bucket_keys(monkeypatch)
        with np.errstate(all="raise"):
            got = leaf_point_densities(x, LeafTables(segment, fns), **columns)
        assert _path(calls, len(fns)) == "column"
        expected = tree_point_densities(x.tolist(), TSTree((segment,), (0,)), {segment: fns})
        np.testing.assert_array_equal(got, np.array(expected))

    def test_unproved_in_one_column_falls_back(self, monkeypatch):
        # Under width 0.3 and offset 0.1 the search looks for key 2 at
        # 2 * 0.3 - 0.1 = 0.5, but the float below it already has key 2.
        # Only column 0 holds that float, the other columns hold values
        # inside buckets, so the proof fails in column 0 alone.
        fns = hash_fns((0.3, 0.1))
        edge = np.nextafter(0.5, 0.0)
        assert edge < 2 * 0.3 - 0.1 and hash_value(fns[0], edge) == 2
        inside = np.array([0.05, 0.35, 0.65, 0.95])  # keys 0 to 3
        x = np.stack([[0.05, 0.35, edge, 0.95], inside, inside[::-1]], axis=1)
        segment = Segment(1, 3)
        columns = _force(monkeypatch, "column", x)
        calls = _spy_bucket_keys(monkeypatch)
        got = leaf_point_densities(x, LeafTables(segment, fns), **columns)
        assert [v.ndim for v, _, _ in calls] == [1, 3, 1]
        before, after = dlde.hashing.bucket_keys(*calls[1])
        k = np.arange(1, 4)  # the boundaries between keys 0 and 3
        proved = (before < k) & (k <= after)
        assert proved.tolist() == [[True, False, True], [True] * 3, [True] * 3]
        expected = tree_point_densities(x.tolist(), TSTree((segment,), (0,)), {segment: fns})
        np.testing.assert_array_equal(got, np.array(expected))


class TestMemoryOrder:
    @pytest.mark.parametrize("seed", range(3))
    def test_column_major_matrix_gives_the_same_bytes(self, seed):
        rng = np.random.default_rng(500 + seed)
        x = np.round(rng.normal(size=(30, 12)), 1 + seed)
        model = fit(LabeledDataset(x, np.zeros(30, int)), m=1, h=4, seed=seed).trees[0]
        f = np.asfortranarray(x)
        assert f.flags.f_contiguous and not f.flags.c_contiguous
        for seg in model.tree.segments:
            tables = model.leaf_tables[seg]
            assert leaf_point_densities(f, tables).tobytes() == leaf_point_densities(x, tables).tobytes()
        rows = row_densities(f, model.leaf_tables.values())
        assert rows.tobytes() == row_densities(x, model.leaf_tables.values()).tobytes()
