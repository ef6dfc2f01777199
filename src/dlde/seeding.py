"""Hierarchical derivation of independent random streams from one seed.

Every source of randomness gets its own namespaced spawn key, so the
stream feeding tree ``i`` never depends on how many trees are requested,
and per-run experiment seeds never collide with the streams used inside
a fit.  A tree's stream grows the tree and then draws the hash functions
of its leaves (see :func:`dlde.forest.fit`).
"""

from __future__ import annotations

import numpy as np

from .errors import require_int

TREE_STREAM = 0  # one tree's split points, then its leaves' hash functions
RUN_STREAM = 2  # per-run seeds in repeated experiments (2 keeps their bits)


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by ``path`` under ``seed``, a
    seed that :func:`dlde.errors.require_int` has admitted."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def derive_seed(seed: int, *path: int) -> int:
    """A 64-bit integer seed for the stream addressed by ``path``.

    Raises:
        ConfigurationError: ``seed`` is not an integer >= 0.
    """
    ss = np.random.SeedSequence(require_int(seed, 0, "seed"), spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])
