"""Deterministic seed-stream derivation.

One root seed fans out into independent per-trial / per-purpose streams via
``SeedSequence(entropy=root, spawn_key=path)``.  Every consumer derives its
generator from the path alone, so results cannot depend on execution order
and parallel runs reproduce serial ones bit for bit.

Stream path layout used by the simulators::

    (trial, STREAM_SOURCE,   block)                  source/side-info draws
    (trial, STREAM_BINS,     terminal)               bin assignment map
    (trial, STREAM_CODEBOOK, level, copy, *cond)     channel codeword slices
    (trial, STREAM_CHANNEL,  block)                  channel noise
and the rate engine uses ``(STREAM_OPTIMIZER, salt, restart)``.

:func:`uniforms` reads the same uniforms from many of these streams at once:
it reproduces ``child_rng(...).random`` bit for bit (numpy's ``SeedSequence``
pool mix and ``PCG64`` jump-ahead, redone on arrays), and
``tests/test_seeds.py`` pins it against the installed numpy with ``==``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import SchemaError
from .network import whole_number

STREAM_SOURCE = 0
STREAM_BINS = 1
STREAM_CODEBOOK = 2
STREAM_CHANNEL = 3
STREAM_OPTIMIZER = 4


def check_seed(seed: Any, what: str = "seed") -> int:
    """``seed`` as a root seed.  numpy's ``SeedSequence`` takes only whole
    numbers >= 0, so anything else raises :class:`SchemaError` here, before
    any stream is derived."""
    value = whole_number(seed, what)
    if value < 0:
        raise SchemaError(f"{what} must be non-negative, got {seed!r}")
    return value


def child_rng(root_seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by ``path`` under ``root_seed``."""
    ss = np.random.SeedSequence(entropy=int(root_seed),
                                spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 constants
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _words(value: int) -> list[int]:
    """``value`` as SeedSequence's little-endian uint32 entropy words."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed words must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix(x, y):
    """SeedSequence's ``mix`` on uint32 words (Python ints or uint32 arrays)."""
    r = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) \
        & _MASK32
    return r ^ (r >> 16)


def _seed_pool(entropy: list) -> list:
    """``SeedSequence.mix_entropy`` over ``entropy``: Python ints, and
    uint32 arrays only past the first pool-size words.  Words before the
    first array stay Python ints; from it on the pool holds arrays."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _pcg_seed(pool: list) -> tuple[np.ndarray, ...]:
    """``generate_state(4, uint64)`` and ``PCG64`` seeding: the (hi, lo)
    words of the increment ``inc`` and of ``x = init + inc``, the state
    one LCG step before the seeded state."""
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append((value ^ (value >> 16)).astype(np.uint64))
    init_hi, init_lo, seq_hi, seq_lo = (words[i] | (words[i + 1] << 32)
                                        for i in range(0, 8, 2))
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    x_lo = init_lo + inc_lo
    x_hi = init_hi + inc_hi + (x_lo < init_lo)
    return x_hi, x_lo, inc_hi, inc_lo


def _lcg_jump(steps: int) -> tuple[int, int]:
    """(A, B) with PCG64's state after ``steps`` steps equal to
    ``A * state + B * inc`` mod 2^128, by square-and-multiply."""
    acc_mult, acc_plus = 1, 0
    cur_mult, cur_plus = _PCG_MULT, 1
    while steps:
        if steps & 1:
            acc_mult = (acc_mult * cur_mult) & _MASK128
            acc_plus = (acc_plus * cur_mult + cur_plus) & _MASK128
        cur_plus = ((cur_mult + 1) * cur_plus) & _MASK128
        cur_mult = (cur_mult * cur_mult) & _MASK128
        steps >>= 1
    return acc_mult, acc_plus


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, on 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _mul128(c_hi, c_lo, x_hi, x_lo):
    """(hi, lo) words of c * x mod 2^128."""
    return _mulhi(c_lo, x_lo) + c_lo * x_hi + c_hi * x_lo, c_lo * x_lo


def uniforms(root_seed: int, path: tuple, start: int,
             count: int) -> np.ndarray:
    """Uniforms ``start .. start+count-1`` of many sibling streams at once.

    Exactly one entry of ``path`` is an integer array of C keys, each below
    2^32 so that it is one entropy word and every key's entropy has the
    same layout; the others are ints.  Row k of the (C, count) float64 result
    equals ``child_rng(root_seed, *path_k).random(start + count)[start:]``,
    ``path_k`` being ``path`` with key k in the array's place.
    """
    keys = [i for i, p in enumerate(path) if isinstance(p, np.ndarray)]
    if len(keys) != 1:
        raise ValueError("path needs exactly one array entry")
    pos = keys[0]
    key = path[pos]
    if key.ndim != 1 or not np.issubdtype(key.dtype, np.integer):
        raise ValueError("the varying path entry must be a 1-D integer array")
    if key.size and (key.min() < 0 or key.max() > _MASK32):
        raise ValueError("varying path keys must lie in [0, 2^32)")
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    # run entropy is zero-padded to the pool size when a spawn key follows
    entropy = _words(root_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for p in path[:pos]:
        entropy += _words(p)
    entropy.append(key.astype(np.uint32))
    for p in path[pos + 1:]:
        entropy += _words(p)
    x_hi, x_lo, inc_hi, inc_lo = (w[:, None]
                                  for w in _pcg_seed(_seed_pool(entropy)))
    # output j is taken from the state j + 1 steps past the seeded state,
    # which is itself one step past x: A_t x + B_t inc with t = j + 2
    a, b = _lcg_jump(start + 2)
    coeffs = np.empty((4, count), dtype=np.uint64)
    for j in range(count):
        coeffs[:, j] = a >> 64, a & _MASK64, b >> 64, b & _MASK64
        a, b = (a * _PCG_MULT) & _MASK128, (b * _PCG_MULT + 1) & _MASK128
    a_hi, a_lo, b_hi, b_lo = coeffs
    s1_hi, s1_lo = _mul128(a_hi, a_lo, x_hi, x_lo)
    s2_hi, s2_lo = _mul128(b_hi, b_lo, inc_hi, inc_lo)
    lo = s1_lo + s2_lo
    hi = s1_hi + s2_hi + (lo < s1_lo)
    # XSL-RR output, then numpy's 53-bit double
    v = hi ^ lo
    rot = hi >> 58
    out = (v >> rot) | (v << ((64 - rot) & 63))
    return (out >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)
