from __future__ import annotations

import dataclasses
import hashlib
import math
import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dlde.density
import dlde.forest
import dlde.hashing
from dlde import ConfigurationError, ExperimentConfig, LabeledDataset, fit, score, sweep
from dlde.density import leaf_point_densities, sort_columns
from dlde.forest import TreeModel, TSForest, _tree_sums, anomaly_scores
from dlde.hashing import HASH_FN, LeafTables, bucket_keys, sample_hash_fn
from dlde.tstree import Segment, leaves

from conftest import hash_fns, hash_keys, matrices, random_dataset, tree_model_state
from reference import hash_value, leaf_hash_fns, tree_hash_fns, tree_point_densities


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
        assert fit(ds, m=1, seed=0).hlimit == 4  # floor(log2(20))
        ds2 = random_dataset(np.random.default_rng(0), 8, 64)
        assert fit(ds2, m=1, seed=0).hlimit == 6

    def test_every_leaf_has_h_tables_over_all_rows(self):
        ds = random_dataset(np.random.default_rng(1), 9, 16)
        forest = fit(ds, m=3, h=4, seed=7)
        for model in forest.trees:
            assert list(model.leaf_tables) == leaves(model.tree)
            covered = []
            for segment, tables in model.leaf_tables.items():
                assert tables.segment == segment and len(tables.fns) == 4
                covered += range(16)[segment.columns]
            assert covered == list(range(16))

    # the ranges Segment and HASH_FN do not check, on the model fit returns
    @pytest.mark.parametrize("n", [5, 16, 200])
    @pytest.mark.parametrize("seed", range(8))
    def test_fitted_segments_widths_and_offsets_in_range(self, n, seed):
        d = 24
        forest = fit(random_dataset(np.random.default_rng(seed), n, d), m=3, h=5, slimit=1, seed=seed)
        lo = 1.0 / math.log2(n)
        for model in forest.trees:
            for segment, tables in model.leaf_tables.items():
                assert 1 <= segment.start <= segment.end <= d
                for fn in tables.fns:
                    assert lo <= fn.width <= 1.0 - lo
                    assert 0.0 <= fn.offset <= fn.width

    def test_each_leaf_block_hashed_once(self, monkeypatch):
        # fit proves the key range from the dataset's peak and hashes
        # nothing.  score, leaf by leaf, hashes on one of two paths.  Full
        # hashing hashes the leaf's sorted values under each function
        # exactly once, in order, in blocks of (g, 1) offset and width
        # columns.  A leaf over the budget searches its sorted columns: one
        # call hashes its two extremes under all its functions, and one more
        # the two values around every key boundary between them in each of
        # its columns.  Nothing else is hashed.
        calls = []

        def counting(values, offset, width):
            calls.append((np.array(values), offset, width))
            return bucket_keys(values, offset, width)

        monkeypatch.setattr(dlde.hashing, "bucket_keys", counting)
        monkeypatch.setattr(dlde.density, "bucket_keys", counting)
        ds = random_dataset(np.random.default_rng(1), 9, 16)
        forest = fit(ds, m=3, h=10, seed=7)
        assert calls == []
        x = ds.subsequences
        tables = [model.leaf_tables[s] for model in forest.trees for s in model.tree.segments]
        blocks = [np.sort(x[:, t.segment.columns], axis=None) for t in tables]

        # a leaf of at most 9 * 16 values takes its 10 functions in one call;
        # over a budget of one element, a negative share rules the column
        # search out by the leaf's spread alone, and each function takes a call
        default = dlde.density._BLOCK
        monkeypatch.setattr(dlde.density, "_BOUNDARY_SHARE", -1.0)
        for budget, per_leaf in ((default, 1), (1, 10)):
            monkeypatch.setattr(dlde.density, "_BLOCK", budget)
            calls.clear()
            score(forest, ds)
            assert len(calls) == len(tables) * per_leaf
            for i, (leaf, block) in enumerate(zip(tables, blocks)):
                hashed = calls[per_leaf * i : per_leaf * (i + 1)]
                assert [
                    (o, w)
                    for _, offset, width in hashed
                    for o, w in zip(offset[:, 0].tolist(), width[:, 0].tolist())
                ] == [(fn.offset, fn.width) for fn in leaf.fns]
                for values, offset, width in hashed:
                    assert offset.shape == width.shape == (10 // per_leaf, 1)
                    np.testing.assert_array_equal(values, block)

        # over a budget of one, every leaf searches its sorted columns
        monkeypatch.setattr(dlde.density, "_BOUNDARY_SHARE", np.inf)
        calls.clear()
        score(forest, ds)
        assert len(calls) == 2 * len(tables)
        for i, (leaf, block) in enumerate(zip(tables, blocks)):
            extremes, offset, width = calls[2 * i]
            assert extremes.tolist() == [block[0], block[-1]]
            assert offset.shape == width.shape == (10, 1)
            assert list(zip(offset[:, 0].tolist(), width[:, 0].tolist())) == [
                (fn.offset, fn.width) for fn in leaf.fns
            ]
            pairs, offset, width = calls[2 * i + 1]
            spans = [hash_value(fn, block[-1]) - hash_value(fn, block[0]) for fn in leaf.fns]
            assert pairs.shape == (2, leaf.segment.length, sum(spans))
            assert list(zip(offset.tolist(), width.tolist())) == [
                (fn.offset, fn.width) for fn, span in zip(leaf.fns, spans) for _ in range(span)
            ]

    def test_too_small_dataset_rejected(self):
        ds = random_dataset(np.random.default_rng(2), 4, 8)
        with pytest.raises(ConfigurationError, match="too small"):
            fit(ds, seed=0)

    # 1.7e308 is finite, but its keys overflow float64 too
    @pytest.mark.parametrize("value", [1e19, -1e19, 1e300, 1.7e308])
    def test_keys_beyond_int64_rejected(self, value):
        # the int64 cast used to map every such value to INT64_MIN
        ds = random_dataset(np.random.default_rng(2), 8, 8)
        x = ds.subsequences.copy()
        x[5, 3] = value
        with pytest.raises(ConfigurationError, match="--normalize"):
            fit(LabeledDataset(x, ds.labels), seed=0)

    def test_off_scale_message(self):
        # exact text: it names the narrowest width any draw can give, not
        # the width one draw gave
        ds = random_dataset(np.random.default_rng(2), 8, 8)
        x = ds.subsequences.copy()
        x[5, 3] = -1e19
        with pytest.raises(ConfigurationError) as exc:
            fit(LabeledDataset(x, ds.labels), seed=0)
        assert str(exc.value) == (
            "values up to 1e+19 can give bucket keys that reach 2**63 in magnitude under "
            "widths down to 1/log2(8) = 0.333 (the bound kept from int64 keys); the data "
            "must be near unit scale, so z-normalize the rows (--normalize)"
        )

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

    # the first five below the bound; then floats, integral or not, which
    # slimit and hlimit used to take and m refused with a TypeError
    @pytest.mark.parametrize(
        "kwargs",
        [{"m": 0}, {"h": 0}, {"slimit": 0}, {"hlimit": -1}, {"seed": -5},
         {"m": 2.0}, {"h": np.float64(3.0)}, {"slimit": 2.5}, {"hlimit": 1.5},
         {"hlimit": np.int64(-1)}],
    )
    def test_parameter_validation(self, kwargs):
        ds = random_dataset(np.random.default_rng(3), 8, 8)
        (value,) = kwargs.values()
        with pytest.raises(ConfigurationError, match=re.escape(f"got {value!r}")):
            fit(ds, **kwargs)

    # operator.index decides; truncating would let 1.5 score exactly as 1
    @pytest.mark.parametrize(
        "seed", [1.5, np.float64(2.7), 2.0, "3", None, np.float64(3.0), np.int8(-1)]
    )
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        ds = random_dataset(np.random.default_rng(3), 8, 8)
        with pytest.raises(ConfigurationError, match=re.escape(f"got {seed!r}")):
            fit(ds, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        ds = random_dataset(np.random.default_rng(3), 8, 8)
        a, b = fit(ds, m=2, h=2, seed=np.uint64(5)), fit(ds, m=2, h=2, seed=5)
        assert list(map(tree_model_state, a.trees)) == list(map(tree_model_state, b.trees))

    # fit draws each tree's functions as one block of uniforms; each leaf must
    # hold, bit for bit, the scalar draws of the generator that grew its tree
    @settings(max_examples=25)
    @example(m=30, h=37, seed=2**64 + 5)
    @given(
        m=st.integers(1, 30),
        h=st.sampled_from([1, 10, 37]),
        seed=st.sampled_from([0, 2**32, 2**64 + 5, 2**200]) | st.integers(0, 2**130),
    )
    def test_leaf_functions_match_per_leaf_generators(self, m, h, seed):
        ds = random_dataset(np.random.default_rng(9), 12, 24)
        forest = fit(ds, m=m, h=h, slimit=1, seed=seed)
        for i, model in enumerate(forest.trees):
            got = [[(fn.width.hex(), fn.offset.hex()) for fn in model.leaf_tables[s].fns]
                   for s in model.tree.segments]
            expected = tree_hash_fns(seed, i, ds.d, ds.n, h, forest.hlimit, 1)
            assert got == [[(w.hex(), x.hex()) for w, x in leaf] for leaf in expected]

    # fit draws every leaf's functions as one read-only (leaves, h) HASH_FN
    # table, and each leaf holds a row view of it, in tree then leaf order
    @pytest.mark.parametrize("h", [1, 10])
    def test_leaves_hold_rows_of_one_read_only_table(self, h):
        forest = fit(random_dataset(np.random.default_rng(h), 30, 24), m=3, h=h, seed=h)
        rows = [model.leaf_tables[s].fns for model in forest.trees for s in model.tree.segments]
        table = rows[0].base
        assert table.shape == (len(rows), h) and not table.flags.writeable
        for k, fns in enumerate(rows):
            assert fns.dtype == HASH_FN and fns.shape == (h,)
            assert fns.base is table and not fns.flags.writeable
            assert fns.tobytes() == table[k].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            rows[-1]["width"][0] = 0.5
        drawn = sample_hash_fn(30, np.random.default_rng(h).random((2, 2 * h)))
        assert drawn.dtype == HASH_FN and not drawn.flags.writeable


def _scaled_8x8(peak: float) -> LabeledDataset:
    """8 x 8 Gaussian rows scaled so that their largest magnitude is ``peak``."""
    ds = random_dataset(np.random.default_rng(6), 8, 8)
    return LabeledDataset(ds.subsequences / np.abs(ds.subsequences).max() * peak, ds.labels)


# lo = 1/log2(8) rounds to just below 1/3; (peak + 1) / lo < 2**63 admits
# peaks up to this float, about 3.07e18, and refuses the next one up
LARGEST_PEAK_8 = float.fromhex("0x1.5555555555554p+61")


class TestKeyRange:
    """What fit accepts depends on N and the largest magnitude alone, not on
    the widths that a seed or the number of trees happens to draw."""

    # at peak 3.5e18 the drawn widths used to decide: fit(m=2) accepted it
    # for seed 0 and refused it for seed 1, and fit(m=5) refused both
    @pytest.mark.parametrize("m", [1, 2, 10])
    def test_band_refused_for_every_seed(self, m):
        ds = _scaled_8x8(3.5e18)
        assert ds.peak == 3.5e18
        for seed in range(8):
            with pytest.raises(ConfigurationError, match="--normalize"):
                fit(ds, m=m, seed=seed)

    def test_largest_admitted_peak_fits_for_every_seed_and_m(self):
        ds = _scaled_8x8(LARGEST_PEAK_8)
        x = ds.subsequences
        assert ds.peak == LARGEST_PEAK_8
        for m in (1, 10):
            for seed in range(8):
                fit(ds, m=m, seed=seed)
        # a width of exactly lo is the narrowest a draw can give (u = 0)
        lo = 1.0 / math.log2(8)
        for offset in (0.0, lo / 2, lo):
            fn = hash_fns((lo, offset))[0]
            assert hash_keys(fn, x).tolist() == [[hash_value(fn, v) for v in row] for row in x.tolist()]
        model = fit(ds, m=1, h=3, seed=0).trees[0]
        got = np.concatenate(
            [leaf_point_densities(x, model.leaf_tables[s]) for s in leaves(model.tree)], axis=1
        )
        fns = {seg: tbl.fns for seg, tbl in model.leaf_tables.items()}
        np.testing.assert_array_equal(got, tree_point_densities(x.tolist(), model.tree, fns))
        with pytest.raises(ConfigurationError, match="--normalize"):
            fit(_scaled_8x8(float(np.nextafter(LARGEST_PEAK_8, np.inf))), m=1, seed=0)

    def test_errors_in_order(self):
        # parameters first, then too few rows, then the key range
        ds = random_dataset(np.random.default_rng(2), 4, 8)
        huge = LabeledDataset(ds.subsequences * 1e19, ds.labels)
        with pytest.raises(ConfigurationError, match="tree count"):
            fit(huge, m=0, seed=0)
        with pytest.raises(ConfigurationError, match="too small"):
            fit(huge, seed=0)


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
            assert tree_model_state(small.trees[i]) == tree_model_state(large.trees[i])

    # what lets a sweep over m fit once per run at the largest m: the running
    # sum after k trees of the larger forest gives the smaller forest's scores
    @given(x=matrices(), k=st.integers(1, 3), extra=st.integers(0, 3), h=st.integers(1, 6),
           seed=st.integers(0, 99))
    def test_forest_prefix(self, x, k, extra, h, seed):
        ds = LabeledDataset(x, np.zeros(len(x), int))
        small, large = fit(ds, m=k, h=h, seed=seed), fit(ds, m=k + extra, h=h, seed=seed)
        assert list(map(tree_model_state, small.trees)) == list(
            map(tree_model_state, large.trees[:k])
        )
        acc = next(islice(_tree_sums(large), k - 1, None))
        assert (acc / k).tobytes() == score(small, ds).scores.tobytes()

    # what lets a sweep over h fit once per run at the largest h: the trees do
    # not depend on h, and every leaf's first k functions under h = K are its
    # functions under h = k
    @given(x=matrices(), m=st.integers(1, 3), k=st.integers(1, 6), extra=st.integers(1, 6),
           seed=st.integers(0, 99))
    def test_hash_prefix(self, x, m, k, extra, seed):
        ds = LabeledDataset(x, np.zeros(len(x), int))
        small, large = fit(ds, m=m, h=k, seed=seed), fit(ds, m=m, h=k + extra, seed=seed)
        assert [model.tree for model in small.trees] == [model.tree for model in large.trees]
        for a, b in zip(small.trees, large.trees):
            for segment, tables in a.leaf_tables.items():
                assert tables.fns.tobytes() == b.leaf_tables[segment].fns[:k].tobytes()


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

    def test_other_matrix_of_same_shape_rejected(self):
        # densities are counted over the scored matrix itself, so a matrix the
        # forest was not fitted on would score without a word; it is refused
        ds = random_dataset(np.random.default_rng(8), 10, 12)
        forest = fit(ds, m=2, seed=0)
        assert forest.dataset is ds
        nudged = LabeledDataset(ds.subsequences + 1e-12, ds.labels)
        with pytest.raises(ValueError, match="fitted on"):
            score(forest, nudged)
        copy = LabeledDataset(ds.subsequences.copy(), ds.labels)
        assert score(forest, copy).scores.tobytes() == score(forest, ds).scores.tobytes()
        # equal values in other bytes are the same matrix: every 0.0 of a
        # rounded matrix turned into -0.0 scores as if it had been fitted
        rounded = LabeledDataset(np.round(ds.subsequences) + 0.0, ds.labels)  # no -0.0 left
        zeros = rounded.subsequences == 0.0
        signed = LabeledDataset(np.where(zeros, -0.0, rounded.subsequences), ds.labels)
        assert zeros.any() and signed.subsequences.tobytes() != rounded.subsequences.tobytes()
        for seed in range(3):
            got = score(fit(rounded, m=2, seed=seed), signed).scores
            assert got.tobytes() == score(fit(signed, m=2, seed=seed), signed).scores.tobytes()

    # hash widths depend only on N and trees only on d, and tables are
    # counts, so reordering the rows reorders the scores bit for bit
    @given(x=matrices(), m=st.integers(1, 3), h=st.integers(1, 11), seed=st.integers(0, 99),
           data=st.data())
    def test_scores_permutation_equivariant(self, x, m, h, seed, data):
        p = np.array(data.draw(st.permutations(range(len(x)))))
        labels = np.zeros(len(x), int)
        ds, shuffled = LabeledDataset(x, labels), LabeledDataset(x[p], labels)
        np.testing.assert_array_equal(
            score(fit(shuffled, m=m, h=h, seed=seed), shuffled).scores,
            score(fit(ds, m=m, h=h, seed=seed), ds).scores[p],
        )

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

    Not normalized, so tables hold hundreds of keys, and the many ties
    make a leaf's sorted values share key tuples in long runs.
    """
    rng = np.random.default_rng(100)
    t = np.arange(100) / 25.0 + rng.uniform(0.0, 4.0, size=(300, 1))
    triangle = np.abs(t % 4.0 - 2.0) - 1.0
    x = np.round(2048.0 + 400.0 * triangle + rng.uniform(-70.0, 70.0, size=(300, 100)))
    return LabeledDataset(x, np.zeros(300, int))


class TestColumnSort:
    """A score, or an m sweep, sorts the fitted columns once, and only when
    some leaf searches them."""

    @staticmethod
    def _spy(monkeypatch) -> tuple[list, list]:
        """The matrices sorted, and the ndim of every value block hashed."""
        built, hashed = [], []

        def sorting(x):
            built.append(x.shape)
            return sort_columns(x)

        def hashing(values, offset, width):
            hashed.append(np.ndim(values))
            return bucket_keys(values, offset, width)

        monkeypatch.setattr(dlde.forest, "sort_columns", sorting)
        monkeypatch.setattr(dlde.density, "bucket_keys", hashing)
        return built, hashed

    def test_sorted_once_when_a_leaf_searches_columns(self, monkeypatch):
        # 2000 unit-scale rows and h = 10: every leaf is over the budget, and
        # some span few key boundaries for their rows
        ds = random_dataset(np.random.default_rng(3), 2000, 16, anomalies=20)
        forest = fit(ds, m=3, h=10, seed=0)
        built, hashed = self._spy(monkeypatch)
        scores = score(forest, ds).scores
        assert built == [(2000, 16)] and 3 in hashed
        built.clear()
        sweep(ExperimentConfig(m=3, h=10, repeats=1), "m", [1, 2, 3], ds)
        assert built == [(2000, 16)]
        # over a budget no leaf reaches, no leaf searches its columns
        built.clear()
        monkeypatch.setattr(dlde.density, "_BLOCK", 2**62)
        assert score(forest, ds).scores.tobytes() == scores.tobytes()
        assert built == []

    def test_never_sorted_at_adc_scale(self, monkeypatch):
        # 2048 + 40 N(0, 1): the spread of every leaf crosses far more key
        # boundaries than it has rows, so no leaf searches its columns
        x = 2048.0 + 40.0 * np.random.default_rng(4).normal(size=(2000, 16))
        ds = LabeledDataset(x, np.zeros(2000, int))
        forest = fit(ds, m=3, h=10, seed=0)
        built, hashed = self._spy(monkeypatch)
        score(forest, ds)
        assert built == [] and 3 not in hashed


def _per_leaf_fns(forest: TSForest, seed: int, h: int = 10) -> TSForest:
    """``forest``, fitted with ``seed`` and ``h``, with every leaf's functions
    replaced by the ones :func:`reference.leaf_hash_fns` draws from a stream
    of the leaf's own."""
    models = []
    for i, model in enumerate(forest.trees):
        segments = model.tree.segments
        fns = np.array([leaf_hash_fns(seed, i, o, forest.dataset.n, h)
                        for o in range(len(segments))], HASH_FN)
        tables = {s: LeafTables(s, row) for s, row in zip(segments, fns)}
        models.append(TreeModel(model.tree, tables))
    return dataclasses.replace(forest, trees=tuple(models))


class TestScoreFingerprint:
    # sha256 of the score bytes, recorded before leaf tables became arrays.
    # They pin the scoring path: fit's trees, with every leaf's functions
    # drawn from a stream of its own (_per_leaf_fns); the data uses only
    # uniform draws and exact arithmetic
    @pytest.mark.parametrize(
        "make, digest",
        [
            (_unit_scale_200x96, "d4247d4df7542208a886b798011eb75c1ed3c133d473a568aae1aa5c5e81e19e"),
            (_adc_scale_300x100, "082b44cc790414bc8ef019526d8450f3bc1bbf186228aea4732eb2bf8960c02b"),
        ],
    )
    def test_scores_byte_identical(self, make, digest):
        ds = make()
        scores = score(_per_leaf_fns(fit(ds, seed=0), 0), ds).scores
        assert hashlib.sha256(scores.tobytes()).hexdigest() == digest

    def test_long_leaves_byte_identical(self):
        # hlimit=1: each tree is two leaves spanning all 96 columns
        ds = _unit_scale_200x96()
        forest = _per_leaf_fns(fit(ds, hlimit=1, seed=0), 0)
        assert all(len(model.tree.segments) == 2 for model in forest.trees)
        digest = hashlib.sha256(score(forest, ds).scores.tobytes()).hexdigest()
        assert digest == "19701b839425d4f300a439722a178f2250ca2cf1b8dfaa70610dadfab4ebcd27"

    # the same data under the functions fit draws from each tree's generator
    def test_fit_scores_byte_identical(self):
        ds = _unit_scale_200x96()
        digest = hashlib.sha256(score(fit(ds, seed=0), ds).scores.tobytes()).hexdigest()
        assert digest == "1b5ccc5120c8990f83ff4fe74595614eb52a5c0c857b5b76493cce1968b37781"


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

