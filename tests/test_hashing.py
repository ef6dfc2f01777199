from __future__ import annotations

import math

import numpy as np
import pytest

from dlde import ConfigurationError, LabeledDataset
from dlde.density import leaf_point_densities
from dlde.hashing import HashFn, build_leaf_tables, hash_keys, sample_hash_fn
from dlde.tstree import Segment

from reference import hash_value


class TestSampleHashFn:
    def test_width_range_n16(self):
        rng = np.random.default_rng(0)
        widths = [sample_hash_fn(16, rng).width for _ in range(500)]
        assert min(widths) >= 0.25 and max(widths) <= 0.75

    def test_width_range_n5(self):
        rng = np.random.default_rng(1)
        lo = 1.0 / math.log2(5)
        assert lo == pytest.approx(0.430676558, abs=1e-9)
        for _ in range(200):
            fn = sample_hash_fn(5, rng)
            assert lo <= fn.width <= 1.0 - lo

    def test_offset_within_width(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            fn = sample_hash_fn(32, rng)
            assert 0.0 <= fn.offset <= fn.width

    @pytest.mark.parametrize("n", [4, 3, 2, 1, 0])
    def test_small_datasets_rejected(self, n):
        with pytest.raises(ConfigurationError, match="too small"):
            sample_hash_fn(n, np.random.default_rng(0))

    def test_deterministic_under_seed(self):
        a = sample_hash_fn(20, np.random.default_rng(7))
        b = sample_hash_fn(20, np.random.default_rng(7))
        assert a == b


class TestHashValue:
    def test_examples(self):
        fn = HashFn(width=0.5, offset=0.25)
        assert hash_keys(fn, np.array([2.5, -0.3, 0.0])).tolist() == [5, -1, 0]

    def test_monotone_non_decreasing(self):
        rng = np.random.default_rng(3)
        fn = sample_hash_fn(50, rng)
        values = np.sort(rng.normal(size=300) * 5)
        assert np.all(np.diff(hash_keys(fn, values)) >= 0)

    def test_separation_beyond_width(self):
        # values more than one bucket width apart never share a key
        rng = np.random.default_rng(4)
        fn = sample_hash_fn(50, rng)
        a = rng.normal(size=300) * 3
        b = a + fn.width * (1.0 + rng.random(size=300) * 4)
        assert np.all(hash_keys(fn, a) != hash_keys(fn, b))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        fn = sample_hash_fn(24, rng)
        values = rng.normal(size=(6, 7)) * 10
        keys = hash_keys(fn, values)
        for (i, j), v in np.ndenumerate(values):
            assert keys[i, j] == hash_value(fn, float(v))

    # Under width 0.5 the key is 2 * value.  Keys are floats until the int64
    # cast, spaced 1024 apart just below 2**63: 2**63 - 1024 is the largest
    # admitted key and -2**63 the smallest.
    @pytest.mark.parametrize("value", [2.0**62 - 512, -(2.0**62), 1e17, -1e17])
    def test_vectorized_matches_scalar_at_int64_boundary(self, value):
        fn = HashFn(width=0.5, offset=0.0)
        keys = hash_keys(fn, np.array([value, 0.25]))
        assert keys.dtype == np.int64
        assert keys.tolist() == [hash_value(fn, value), 0]

    # 1.7e308 is finite but its key overflows to infinity: still a scale problem
    @pytest.mark.parametrize("value", [2.0**62, -(2.0**62 + 1024), 1e19, -1e19, 1e300, 1.7e308])
    def test_keys_beyond_int64_rejected(self, value):
        with pytest.raises(ConfigurationError, match="outside the int64 range.*--normalize"):
            hash_keys(HashFn(width=0.5, offset=0.0), np.array([0.25, value]))

    # Datasets reject non-finite values before hashing; hash_keys must not
    # cast them to int64 garbage if one gets through, nor blame the scale.
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="NaN or infinite") as exc:
            hash_keys(HashFn(0.5, 0.25), np.array([0.25, bad, 1e19]))
        assert "normalize" not in str(exc.value)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HashFn(width=0.0, offset=0.0)
        with pytest.raises(ValueError):
            HashFn(width=1.0, offset=0.0)
        with pytest.raises(ValueError):
            HashFn(width=0.5, offset=-0.1)
        with pytest.raises(ValueError):
            HashFn(width=0.5, offset=0.6)


def _identical_rows(n: int, d: int) -> LabeledDataset:
    return LabeledDataset(np.tile(np.linspace(0, 1, d), (n, 1)), np.zeros(n, int))


def _column_counts(ds: LabeledDataset, t: int, fn: HashFn) -> np.ndarray:
    """Each row's density in a one-column leaf at ``t`` under ``fn`` alone.

    That is the number of rows whose key at ``t`` equals its own.
    """
    tables = build_leaf_tables(ds, Segment(t, t), [fn])
    return leaf_point_densities(ds.subsequences, tables)[:, 0]


class TestBuildLeafTables:
    # Counts are taken where densities are read; these tests observe them
    # through densities.
    def test_identical_rows_collapse_to_one_key(self):
        # one key per column under each function: every row counts all 8
        # rows in every column of the segment, under both functions
        ds = _identical_rows(8, 6)
        tables = build_leaf_tables(ds, Segment(2, 5), [HashFn(0.5, 0.1), HashFn(0.3, 0.2)])
        np.testing.assert_array_equal(leaf_point_densities(ds.subsequences, tables), 2 * 8.0)

    def test_single_row(self):
        ds = LabeledDataset([[0.1, 0.2, 0.3, 0.4]], [0])
        tables = build_leaf_tables(ds, Segment(1, 4), [HashFn(0.5, 0.0)])
        np.testing.assert_array_equal(leaf_point_densities(ds.subsequences, tables), 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_column_mass_is_row_count(self, seed):
        # one count per distinct key of a column sums to N
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 30)), int(rng.integers(4, 12))
        ds = LabeledDataset(rng.normal(size=(n, d)), np.zeros(n, int))
        for w in rng.uniform(0.1, 0.9, size=3):
            fn = HashFn(float(w), float(w) / 3)
            for t in range(1, d + 1):
                keys = hash_keys(fn, ds.subsequences[:, t - 1])
                _, first = np.unique(keys, return_index=True)
                assert _column_counts(ds, t, fn)[first].sum() == n

    def test_count_matrix_matches_bruteforce(self):
        rng = np.random.default_rng(42)
        ds = LabeledDataset(rng.normal(size=(12, 8)), np.zeros(12, int))
        rows = ds.subsequences.tolist()
        for fn in [HashFn(0.4, 0.1), HashFn(0.6, 0.0)]:
            for t in range(3, 8):
                column_keys = [hash_value(fn, row[t - 1]) for row in rows]
                expected = [column_keys.count(key) for key in column_keys]
                assert _column_counts(ds, t, fn).tolist() == expected

    def test_hand_enumerated_counts(self):
        # keys (w 0.5 | w 0.25, offset 0.125) of the segment's two columns:
        #   column 1: 0.1 -> (0, 0), 0.6 -> (1, 2), 0.7 -> (1, 3)
        #   column 2: 0.9 -> (1, 4), 0.9 -> (1, 4), 0.6 -> (1, 2)
        # 0.9 shares its first key with column 1 but not its second, so its
        # similarity set is column 2 alone: 3 + 2.  0.6 matches both columns:
        # (2 + 1 + 3 + 1) / 2.
        ds = LabeledDataset(
            [
                [0.1, 0.9, 2.0, 3.0],
                [0.6, 0.9, 2.0, 3.0],
                [0.7, 0.6, 2.0, 3.0],
            ],
            [0, 0, 0],
        )
        tables = build_leaf_tables(ds, Segment(1, 2), [HashFn(0.5, 0.0), HashFn(0.25, 0.125)])
        got = leaf_point_densities(ds.subsequences, tables)
        assert got.tolist() == [[2.0, 5.0], [3.5, 5.0], [3.0, 3.5]]

    def test_keys_beyond_int64_rejected(self):
        ds = LabeledDataset([[0.1, 0.2, 2.0**62, 0.3]], [0])
        with pytest.raises(ConfigurationError, match="--normalize"):
            build_leaf_tables(ds, Segment(2, 4), [HashFn(0.5, 0.0)])
        build_leaf_tables(ds, Segment(1, 2), [HashFn(0.5, 0.0)])
        # the block minimum overflows under width 0.25 (key -2**64); under
        # width 0.5 its key is -2**63, the smallest int64, and is admitted
        low = LabeledDataset([[0.1, -(2.0**62), 0.2, 0.3]], [0])
        with pytest.raises(ConfigurationError, match="--normalize"):
            build_leaf_tables(low, Segment(1, 3), [HashFn(0.5, 0.0), HashFn(0.25, 0.0)])
        build_leaf_tables(low, Segment(1, 3), [HashFn(0.5, 0.0)])

    def test_segment_outside_axis_rejected(self):
        ds = _identical_rows(5, 6)
        with pytest.raises(ValueError, match="exceeds"):
            build_leaf_tables(ds, Segment(4, 7), [HashFn(0.5, 0.0)])

    def test_requires_hash_functions(self):
        ds = _identical_rows(5, 6)
        with pytest.raises(ValueError, match="at least one"):
            build_leaf_tables(ds, Segment(1, 6), [])
