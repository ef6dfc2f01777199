from __future__ import annotations

import math

import numpy as np
import pytest

import dlde.forest
from dlde import ConfigurationError, LabeledDataset, fit
from dlde.density import leaf_point_densities
from dlde.hashing import HashFn, build_leaf_tables, check_dataset, sample_hash_fn
from dlde.seeding import HASH_STREAM, spawn_rng
from dlde.tstree import Segment

from conftest import hash_keys, random_dataset
from reference import hash_value


class TestSampleHashFn:
    def test_width_range_n16(self):
        rng = np.random.default_rng(0)
        widths = [fn.width for fn in sample_hash_fn(16, rng, 500)]
        assert min(widths) >= 0.25 and max(widths) <= 0.75

    def test_width_range_n5(self):
        rng = np.random.default_rng(1)
        lo = 1.0 / math.log2(5)
        assert lo == pytest.approx(0.430676558, abs=1e-9)
        for fn in sample_hash_fn(5, rng, 200):
            assert lo <= fn.width <= 1.0 - lo

    def test_offset_within_width(self):
        rng = np.random.default_rng(2)
        for fn in sample_hash_fn(32, rng, 200):
            assert 0.0 <= fn.offset <= fn.width

    # the width range is empty or degenerate for n <= 4; fit refuses such a
    # dataset once, before any leaf samples its functions
    @pytest.mark.parametrize("n", [4, 3, 2, 1, 0])
    def test_small_datasets_rejected(self, n):
        with pytest.raises(ConfigurationError, match="too small"):
            check_dataset(n, 0.0)

    def test_deterministic_under_seed(self):
        a = sample_hash_fn(20, np.random.default_rng(7), 10)
        b = sample_hash_fn(20, np.random.default_rng(7), 10)
        assert len(a) == 10 and a == b

    # One block of uniforms must give the functions, and leave the stream,
    # exactly as h sequential pairs of scalar rng.uniform draws do.
    @pytest.mark.parametrize("n", [5, 16, 1272, 5000])
    @pytest.mark.parametrize("h", [1, 10, 64])
    def test_bits_match_sequential_uniform_draws(self, n, h):
        lo = 1.0 / math.log2(n)
        for leaf in range(20):
            batched = spawn_rng(3, HASH_STREAM, n, leaf)
            scalar = spawn_rng(3, HASH_STREAM, n, leaf)
            fns = sample_hash_fn(n, batched, h)
            expected = []
            for _ in range(h):
                width = scalar.uniform(lo, 1.0 - lo)
                expected.append((width.hex(), scalar.uniform(0.0, width).hex()))
            assert [(fn.width.hex(), fn.offset.hex()) for fn in fns] == expected
            assert batched.random() == scalar.random()


class TestHashValue:
    def test_examples(self):
        fn = HashFn(width=0.5, offset=0.25)
        assert hash_keys(fn, np.array([2.5, -0.3, 0.0])).tolist() == [5, -1, 0]

    def test_monotone_non_decreasing(self):
        rng = np.random.default_rng(3)
        fn = sample_hash_fn(50, rng, 1)[0]
        values = np.sort(rng.normal(size=300) * 5)
        assert np.all(np.diff(hash_keys(fn, values)) >= 0)

    def test_separation_beyond_width(self):
        # values more than one bucket width apart never share a key
        rng = np.random.default_rng(4)
        fn = sample_hash_fn(50, rng, 1)[0]
        a = rng.normal(size=300) * 3
        b = a + fn.width * (1.0 + rng.random(size=300) * 4)
        assert np.all(hash_keys(fn, a) != hash_keys(fn, b))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        fn = sample_hash_fn(24, rng, 1)[0]
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

    # The helper refuses what it cannot cast exactly; fit refuses such data
    # first (test_forest.py).  1.7e308 is finite but its key overflows.
    @pytest.mark.parametrize("value", [2.0**62, -(2.0**62 + 1024), 1e19, -1e19, 1e300, 1.7e308])
    def test_keys_beyond_int64_rejected(self, value):
        with pytest.raises(ValueError, match="outside the int64 range"):
            hash_keys(HashFn(width=0.5, offset=0.0), np.array([0.25, value]))

    # Datasets reject non-finite values before hashing; hash_keys must not
    # cast them to int64 garbage if one gets through.
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="outside the int64 range"):
            hash_keys(HashFn(0.5, 0.25), np.array([0.25, bad]))

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


class TestRangeProof:
    """fit admits a dataset once, by one rule on N and its largest
    magnitude: (peak + 1) / lo < 2**63, where lo = 1/log2(N) is the
    narrowest width any draw can give."""

    def test_peak_is_largest_magnitude(self):
        ds = LabeledDataset([[0.5, -3.0, 2.0, 1.0], [0.0, 2.5, -0.25, 1.5]], [0, 0])
        assert ds.peak == 3.0
        assert LabeledDataset(-ds.subsequences, ds.labels).peak == 3.0

    def test_unit_scale_fits_are_proved(self, monkeypatch):
        # one spy: the dataset is checked once per fit, however many trees
        calls = []
        monkeypatch.setattr(
            dlde.forest, "check_dataset", lambda *args: calls.append(args) or check_dataset(*args)
        )
        ds = random_dataset(np.random.default_rng(0), 30, 24, anomalies=3)
        for m in (1, 3, 10):
            fit(ds, m=m, seed=m)
        assert calls == [(30, ds.peak)] * 3

    # At N = 16, lo = 0.25 exactly, so the rule needs peak + 1 < 2**61.
    # Floats just below 2**61 are 256 apart: the one below it is the
    # largest admitted peak, whose keys under width lo reach 2**63 - 1024,
    # and 2**61 is refused.  The peak's sign does not matter.
    @pytest.mark.parametrize(
        "peak, refused",
        [(2.0**61 - 256, False), (2.0**61, True), (-(2.0**61 - 256), False), (-(2.0**61), True)],
    )
    def test_peak_either_side_of_the_threshold(self, peak, refused):
        x = np.random.default_rng(9).normal(size=(16, 6))
        x[11, 4] = peak
        ds = LabeledDataset(x, np.zeros(16, int))
        assert ds.peak == abs(peak)
        if refused:
            for seed, m in [(0, 1), (1, 1), (0, 10)]:
                with pytest.raises(ConfigurationError, match="--normalize"):
                    fit(ds, m=m, h=2, seed=seed)
            return
        for seed in range(8):
            fit(ds, m=1, h=2, seed=seed)
        fit(ds, m=10, h=2, seed=0)
        for offset in (0.0, 0.125, 0.25):
            fn = HashFn(0.25, offset)
            assert hash_keys(fn, x).tolist() == [[hash_value(fn, v) for v in row] for row in x.tolist()]
