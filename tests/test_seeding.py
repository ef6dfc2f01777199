"""The lanes of ``spawn_uniforms`` against the installed numpy.

They rebuild numpy's ``SeedSequence`` and PCG64 by hand, so a change to
either algorithm in a future numpy must fail here, not move scores
silently.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dlde.seeding import HASH_STREAM, spawn_rng, spawn_uniforms

# seeds of 1 to 7 uint32 words; the last three have more words than the pool
PINNED = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**200]
WORD = st.integers(0, 2**32 - 1)


def _expected(seed: int, keys, count: int) -> list[bytes]:
    return [spawn_rng(seed, *key).random(count).tobytes() for key in keys]


@given(
    seed=st.sampled_from(PINNED) | st.integers(0, 2**64 - 1),
    keys=st.lists(st.tuples(WORD, WORD), min_size=1, max_size=8),
    count=st.sampled_from([1, 2, 20]),
)
def test_lanes_match_spawn_rng(seed, keys, count):
    keys = [(HASH_STREAM, i, o) for i, o in keys]
    got = spawn_uniforms(seed, keys, count)
    assert got.shape == (len(keys), count)
    assert [lane.tobytes() for lane in got] == _expected(seed, keys, count)


@pytest.mark.parametrize("seed", PINNED)
def test_pinned_seeds_at_the_word_edges(seed):
    keys = [(HASH_STREAM, i, o) for i in (0, 1, 2**32 - 1) for o in (0, 2**31, 2**32 - 1)]
    assert [lane.tobytes() for lane in spawn_uniforms(seed, keys, 20)] == _expected(seed, keys, 20)


# keys of other lengths, one word and more words than the pool holds
@pytest.mark.parametrize("keys", [[(0,), (5,)], [(1, 2, 3, 4, 5), (0, 0, 0, 0, 2**32 - 1)]])
def test_other_key_lengths(keys):
    got = spawn_uniforms(7, np.array(keys, dtype=np.uint64), 3)
    assert [lane.tobytes() for lane in got] == _expected(7, keys, 3)


# numpy splits a word of 2**32 or more into several, which the lanes do not
@pytest.mark.parametrize(
    "keys", [[(1, 2**32, 0)], [(1, 0, 2**32)], [(1, 0, 2**64)], [(1, 0, -1)], [(1.0, 0, 0)], [1, 2]]
)
def test_keys_outside_uint32_words_refused(keys):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        spawn_uniforms(0, keys, 1)
