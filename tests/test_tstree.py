from __future__ import annotations

import numpy as np
import pytest

from dlde.tstree import Segment, build_tstree, leaves

from reference import is_full_binary


class ScriptedRNG:
    """Feeds a fixed sequence of split points to the tree builder."""

    def __init__(self, values):
        self._values = list(values)

    def integers(self, low, high):
        value = self._values.pop(0)
        assert low <= value < high, f"scripted split {value} outside [{low}, {high})"
        return value


def test_root_split_sends_split_point_right():
    # split at 9 on a 20-point axis: left covers 1..8, right covers 9..20
    tree = build_tstree(20, 1, 3, ScriptedRNG([9]))
    assert tree.segments == (Segment(1, 8), Segment(9, 20))
    assert tree.depths == (1, 1)


def test_length_at_slimit_is_leaf():
    tree = build_tstree(3, 10, 3, np.random.default_rng(0))
    assert tree.depths == (0,)
    assert leaves(tree) == [Segment(1, 3)]


def test_hlimit_zero_single_leaf():
    tree = build_tstree(10, 0, 3, np.random.default_rng(0))
    assert leaves(tree) == [Segment(1, 10)]


def test_length_one_segment_is_leaf():
    tree = build_tstree(1, 10, 1, np.random.default_rng(0))
    assert tree.segments == (Segment(1, 1),)
    assert tree.depths == (0,)


@pytest.mark.parametrize("seed", range(25))
def test_partition_covers_axis(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 80))
    hlimit = int(rng.integers(0, 9))
    slimit = int(rng.integers(1, 6))
    tree = build_tstree(d, hlimit, slimit, rng)
    segs = leaves(tree)
    assert segs[0].start == 1 and segs[-1].end == d
    for a, b in zip(segs, segs[1:]):
        assert b.start == a.end + 1  # contiguous and disjoint
    assert sum(s.length for s in segs) == d


@pytest.mark.parametrize("seed", range(25))
def test_stop_conditions_and_depth_bound(seed):
    rng = np.random.default_rng(100 + seed)
    d = int(rng.integers(2, 100))
    hlimit = int(rng.integers(0, 8))
    slimit = int(rng.integers(1, 5))
    tree = build_tstree(d, hlimit, slimit, rng)
    for segment, depth in zip(tree.segments, tree.depths, strict=True):
        assert depth <= hlimit
        assert segment.length <= slimit or depth == hlimit


def test_deterministic_under_seed():
    one = build_tstree(64, 6, 3, np.random.default_rng(99))
    two = build_tstree(64, 6, 3, np.random.default_rng(99))
    assert one == two
    three = build_tstree(64, 6, 3, np.random.default_rng(100))
    assert one != three  # d=64 at depth 6 leaves room for different splits


def test_internal_children_non_empty():
    # leaves are non-empty segments, so every internal node has two
    # non-empty children exactly when the depths form a full binary tree
    rng = np.random.default_rng(7)
    for _ in range(200):
        tree = build_tstree(int(rng.integers(1, 80)), int(rng.integers(0, 9)), 1, rng)
        assert is_full_binary(tree.depths)


@pytest.mark.parametrize(
    "depths, full",
    [((0,), True), ((1, 1), True), ((1, 2, 2), True), ((2, 2, 1), True),
     ((2, 1, 2), False), ((1,), False), ((0, 0), False), ((1, 1, 1), False),
     ((), False), ((-1,), False), ((2, 2, 2, 2), True), ((1, 2, 3, 3), True)],
)
def test_full_binary_depth_sequences(depths, full):
    assert is_full_binary(depths) is full
