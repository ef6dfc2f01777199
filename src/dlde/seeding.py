"""Hierarchical derivation of independent random streams from one seed.

Every source of randomness gets its own namespaced spawn key, so the
stream feeding tree ``i`` never depends on how many trees are requested,
and per-run experiment seeds never collide with the streams used inside
a fit.

numpy's ``SeedSequence`` and PCG64 are also rebuilt in numpy lanes, so that
one call draws the first doubles of many streams, bit for bit.  Every word of
their spawn keys must be below 2**32; numpy splits a larger one.
"""

from __future__ import annotations

import numpy as np

from .errors import require_int

TREE_STREAM = 0  # split-point draws while growing one tree
HASH_STREAM = 1  # per-leaf hash parameter sampling
RUN_STREAM = 2  # per-run seeds in repeated experiments

# numpy's SeedSequence and PCG64 constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 2549297995355413924, 4865540595714422341
_PCG_LO0, _PCG_LO1 = _PCG_LO & _MASK32, _PCG_LO >> 32


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


def _hash_consts(value: int, mult: int):
    """SeedSequence's hash constants, in pairs: each hash XORs the current
    one and multiplies by the next."""
    while True:
        following = value * mult & _MASK32
        yield value, following
        value = following


def _hashmix(value, consts):
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> 16


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One 128-bit LCG step of PCG64 in uint64 halves; the high half of
    ``lo`` times the multiplier's low half is built from 32-bit limbs."""
    a0, a1 = lo & _MASK32, lo >> 32
    p00, p01, p10 = a0 * _PCG_LO0, a0 * _PCG_LO1, a1 * _PCG_LO0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = hi * _PCG_LO + lo * _PCG_HI + a1 * _PCG_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    lo = lo * _PCG_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def spawn_uniforms(seed: int, keys, count: int) -> np.ndarray:
    """Row k holds the first ``count`` doubles of
    ``spawn_rng(seed, *keys[k]).random()``, for a (lanes, words) block of
    spawn ``keys`` and a seed that :func:`dlde.errors.require_int` has admitted.

    Raises:
        ValueError: ``keys`` is not a 2-D block of integers in [0, 2**32).
    """
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.dtype.kind not in "iu" or (
        keys.size and (keys.min() < 0 or keys.max() >= 2**32)
    ):
        raise ValueError("spawn keys must be a (lanes, words) block of integers in [0, 2**32)")
    # uint32 words: the seed's, padded to the pool size as under a spawn key
    # (a (1,) array each, the same in every lane), then the key's
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    entropy = [np.array([w], np.uint32) for w in words] + list(keys.astype(np.uint32).T)

    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))

    consts = _hash_consts(_INIT_B, _MULT_B)  # generate_state(4, np.uint64)
    state = [_hashmix(pool[i % 4], consts).astype(np.uint64) for i in range(8)]
    s_hi, s_lo, i_hi, i_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo = inc_lo + s_lo  # srandom: one step from 0 gives inc, then add the seed
    hi, lo = _pcg_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)

    out = np.empty((len(keys), count))
    for k in range(count):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58  # XSL-RR output
        x = x >> rot | x << (64 - rot & 63)
        np.multiply(x >> 11, 2.0**-53, out=out[:, k])
    return out
