from __future__ import annotations

import math

import numpy as np
import pytest

from dlde import ConfigurationError, LabeledDataset
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


class TestBuildLeafTables:
    def test_identical_rows_collapse_to_one_key(self):
        ds = _identical_rows(8, 6)
        fns = [HashFn(0.5, 0.1), HashFn(0.3, 0.2)]
        tables = build_leaf_tables(ds, Segment(2, 5), fns)
        for matrix in tables.counts:
            assert np.count_nonzero(matrix, axis=0).tolist() == [1, 1, 1, 1]
            assert matrix.max(axis=0).tolist() == [8, 8, 8, 8]

    def test_single_row(self):
        ds = LabeledDataset([[0.1, 0.2, 0.3, 0.4]], [0])
        tables = build_leaf_tables(ds, Segment(1, 4), [HashFn(0.5, 0.0)])
        matrix = tables.counts[0]
        assert np.count_nonzero(matrix, axis=0).tolist() == [1, 1, 1, 1]
        assert matrix.sum(axis=0).tolist() == [1, 1, 1, 1]

    def test_hand_enumerated_counts(self):
        # column 1 values 0.1, 0.6, 0.7 under floor(v / 0.5): keys 0, 1, 1
        ds = LabeledDataset(
            [
                [0.1, 1.0, 2.0, 3.0],
                [0.6, 1.0, 2.0, 3.0],
                [0.7, 1.0, 2.0, 3.0],
            ],
            [0, 0, 0],
        )
        tables = build_leaf_tables(ds, Segment(1, 2), [HashFn(0.5, 0.0)])
        assert tables.keys[0].tolist() == [0, 1, 2]
        assert tables.counts[0].tolist() == [[1, 0], [2, 0], [0, 3]]

    @pytest.mark.parametrize("seed", range(10))
    def test_column_mass_is_row_count(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 30)), int(rng.integers(4, 12))
        ds = LabeledDataset(rng.normal(size=(n, d)), np.zeros(n, int))
        fns = [HashFn(float(w), float(w) / 3) for w in rng.uniform(0.1, 0.9, size=3)]
        start = int(rng.integers(1, d))
        end = int(rng.integers(start, d + 1))
        tables = build_leaf_tables(ds, Segment(start, end), fns)
        for keys, matrix in zip(tables.keys, tables.counts):
            assert matrix.dtype == np.int64
            assert matrix.sum(axis=0).tolist() == [n] * tables.segment.length
            assert matrix.min() >= 0 and np.all(matrix.max(axis=1) >= 1)  # no unused key
            assert np.all(np.diff(keys) > 0)

    def test_count_matrix_matches_bruteforce(self):
        rng = np.random.default_rng(42)
        ds = LabeledDataset(rng.normal(size=(12, 8)), np.zeros(12, int))
        fns = [HashFn(0.4, 0.1), HashFn(0.6, 0.0)]
        tables = build_leaf_tables(ds, Segment(3, 7), fns)
        rows = ds.subsequences.tolist()
        for fn, keys, matrix in zip(fns, tables.keys, tables.counts):
            for c, t in enumerate(range(3, 8)):
                column_keys = [hash_value(fn, row[t - 1]) for row in rows]
                assert sorted(set(column_keys)) == keys[matrix[:, c] > 0].tolist()
                for key, count in zip(keys.tolist(), matrix[:, c].tolist()):
                    assert column_keys.count(key) == count

    def test_keys_beyond_int64_rejected(self):
        ds = LabeledDataset([[0.1, 0.2, 2.0**62, 0.3]], [0])
        with pytest.raises(ConfigurationError, match="--normalize"):
            build_leaf_tables(ds, Segment(2, 4), [HashFn(0.5, 0.0)])
        tables = build_leaf_tables(ds, Segment(1, 2), [HashFn(0.5, 0.0)])
        assert tables.keys[0].tolist() == [0]

    def test_segment_outside_axis_rejected(self):
        ds = _identical_rows(5, 6)
        with pytest.raises(ValueError, match="exceeds"):
            build_leaf_tables(ds, Segment(4, 7), [HashFn(0.5, 0.0)])

    def test_requires_hash_functions(self):
        ds = _identical_rows(5, 6)
        with pytest.raises(ValueError, match="at least one"):
            build_leaf_tables(ds, Segment(1, 6), [])
