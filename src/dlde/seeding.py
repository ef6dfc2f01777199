"""Hierarchical derivation of independent random streams from one seed.

Every source of randomness gets its own namespaced spawn key, so the
stream feeding tree ``i`` never depends on how many trees are requested,
and per-run experiment seeds never collide with the streams used inside
a fit.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

TREE_STREAM = 0  # split-point draws while growing one tree
HASH_STREAM = 1  # per-leaf hash parameter sampling
RUN_STREAM = 2  # per-run seeds in repeated experiments


def validate_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by ``path`` under ``seed``, a
    seed that :func:`validate_seed` has returned."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def derive_seed(seed: int, *path: int) -> int:
    """A 64-bit integer seed for the stream addressed by ``path``."""
    ss = np.random.SeedSequence(validate_seed(seed), spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])
