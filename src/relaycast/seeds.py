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

The rate engine draws no random numbers: its solver is deterministic and
reads no seed.

:func:`uniforms` reads the same uniforms from many of these streams at once:
it reproduces ``child_rng(...).random`` bit for bit (numpy's ``SeedSequence``
pool mix and ``PCG64`` jump-ahead, redone on arrays), and
``tests/test_seeds.py`` pins it against the installed numpy with ``==``.

The simulators run chunks of trials in lockstep and read each short stream
for the whole chunk in one gather keyed by trial: source blocks, channel
noise and the partial reads of lower codebook levels and large tables.
Whole codeword slices (``random``) and bin maps (``random_raw`` words, cut
by :func:`~relaycast.typicality.draw_bin_maps`) are drawn natively from one
reused generator: :func:`pcg_states` seeds every such stream a chunk's call
reads, one call per kind of stream (and level), and each draw first assigns
its stream's state.  On a 2-vCPU Xeon VM (Python 3.11, numpy 2.4) a
``child_rng`` set-up took about 30 us, a :func:`pcg_states` call about 230
us plus 1.3 us per stream, a state assignment about 3 us, a native value
about 0.004 us and a gathered value 0.07-0.45 us.  So a gather loses beyond a few hundred values
per stream, and the top codebook level, which every trial reads, is seeded
for a whole chunk at once and, when small, read whole.
"""

from __future__ import annotations

import functools
from typing import Any

import numpy as np

from .errors import SchemaError
from .network import whole_number

STREAM_SOURCE = 0
STREAM_BINS = 1
STREAM_CODEBOOK = 2
STREAM_CHANNEL = 3


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


def _hashmix(value, consts: tuple, i: int, count: int = 1, ndim: int = 1):
    """SeedSequence's ``hashmix`` calls i .. i+count-1 of a run of hash
    constants (from :func:`_hash_consts`): Python ints when count is 1,
    else ``value`` against a column of constants, one call per row of a
    (count, 1, ..) uint32 array with ``ndim`` axes after the first."""
    if count == 1:
        value = ((value ^ consts[0][i]) * consts[0][i + 1]) & _MASK32
    else:
        column = consts[1][i:i + count + 1].reshape((-1,) + (1,) * ndim)
        value = (value ^ column[:-1]) * column[1:]
    return value ^ (value >> 16)


@functools.lru_cache(maxsize=64)
def _hash_consts(init: int, mult: int, calls: int
                 ) -> tuple[tuple[int, ...], np.ndarray]:
    """The hash constant before each of ``calls`` hashmix calls, and after
    the last, as Python ints and as a uint32 array."""
    consts = [init]
    for _ in range(calls):
        consts.append((consts[-1] * mult) & _MASK32)
    column = np.array(consts, dtype=np.uint32)
    column.flags.writeable = False
    return tuple(consts), column


def _seed_pool(entropy: list, ndim: int = 1) -> np.ndarray:
    """``SeedSequence.mix_entropy`` over ``entropy``: Python ints, and
    uint32 arrays of ``ndim`` broadcasting axes only past the first
    pool-size words.  The pool's words mix with each later word
    independently, so they are mixed as the rows of one (pool size, ..)
    uint32 array, which grows to the broadcast shape of the words."""
    size = _POOL_SIZE
    consts = _hash_consts(_INIT_A, _MULT_A, size * (len(entropy) + 3))
    pool = [_hashmix(word, consts, i) for i, word in enumerate(entropy[:size])]
    i = size
    for src in range(size):
        for dst in range(size):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, i))
                i += 1
    rows = np.array(pool, dtype=np.uint32).reshape((size,) + (1,) * ndim)
    for word in entropy[size:]:
        rows = _mix(rows, _hashmix(word, consts, i, size, ndim))
        i += size
    return rows


def _pcg_seed(pool: np.ndarray) -> tuple[np.ndarray, ...]:
    """``generate_state(4, uint64)`` and ``PCG64`` seeding: the (hi, lo)
    words of the increment ``inc`` and of ``x = init + inc``, the state
    one LCG step before the seeded state."""
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    words = _hashmix(np.concatenate([pool, pool]), consts, 0,
                     2 * _POOL_SIZE, pool.ndim - 1).astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = (words[i] | (words[i + 1] << 32)
                                        for i in range(0, 8, 2))
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    x_lo = init_lo + inc_lo
    x_hi = init_hi + inc_hi + (x_lo < init_lo)
    return x_hi, x_lo, inc_hi, inc_lo


def _powers() -> list[tuple[int, int]]:
    """(A, B) of 2^i PCG64 steps for i < 128: the state after them is
    ``A * state + B * inc`` mod 2^128."""
    out, mult, plus = [], _PCG_MULT, 1
    for _ in range(128):
        out.append((mult, plus))
        plus = ((mult + 1) * plus) & _MASK128
        mult = (mult * mult) & _MASK128
    return out


_POWERS = _powers()


def _lcg_jump(steps: int) -> tuple[int, int]:
    """(A, B) with PCG64's state after ``steps`` steps equal to
    ``A * state + B * inc`` mod 2^128: the powers of two in ``steps``
    composed.  The LCG's period is 2^128, so steps count mod 2^128."""
    acc_mult, acc_plus = 1, 0
    steps &= _MASK128
    while steps:
        low = steps & -steps
        mult, plus = _POWERS[low.bit_length() - 1]
        acc_mult = (acc_mult * mult) & _MASK128
        acc_plus = (acc_plus * mult + plus) & _MASK128
        steps ^= low
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


def _split(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The (hi, lo) uint64 words of 128-bit Python ints."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(hi, lo) words of a + b mod 2^128."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _seeded(root_seed: int, path: tuple, *shapes: tuple
            ) -> tuple[tuple, tuple[np.ndarray, ...]]:
    """The broadcast shape of the streams that ``path`` addresses (with
    ``shapes``), and their words from :func:`_pcg_seed`, in that shape or
    broadcasting to it.  ``path`` is checked as :func:`uniforms` says."""
    keys = [p for p in path if isinstance(p, np.ndarray)]
    if not keys:
        raise ValueError("path needs an array entry")
    if not all(np.issubdtype(key.dtype, np.integer) for key in keys):
        raise ValueError("varying path entries must be integers")
    shape = np.broadcast_shapes(*(key.shape for key in keys), *shapes)
    if any(key.size and (key.min() < 0 or key.max() > _MASK32)
           for key in keys):
        raise ValueError("varying path keys must lie in [0, 2^32)")
    # run entropy is zero-padded to the pool size when a spawn key follows
    entropy = _words(root_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for p in path:
        if isinstance(p, np.ndarray):
            entropy.append(p.astype(np.uint32))
        else:
            entropy += _words(p)
    return shape, _pcg_seed(_seed_pool(entropy, len(shape)))


def pcg_states(root_seed: int, path: tuple) -> list[dict]:
    """The freshly seeded ``PCG64`` state of many streams at once.

    ``path`` is as in :func:`uniforms`.  Item k of the list, streams in C
    order of the broadcast shape, is a ``bit_generator.state`` dict: a
    ``Generator`` whose ``PCG64`` is given it draws exactly what
    ``child_rng(root_seed, *path_k)`` draws, with any method.  The state is
    ``x * MULT + inc`` mod 2^128, the one seeding leaves, with the 32-bit
    buffer cleared, so a generator may be reassigned after any draw.
    """
    shape, (x_hi, x_lo, inc_hi, inc_lo) = _seeded(root_seed, path)
    s_hi, s_lo = _add128(*_mul128(_PCG_MULT >> 64, _PCG_MULT & _MASK64,
                                  x_hi, x_lo), inc_hi, inc_lo)
    words = (np.broadcast_to(w, shape).reshape(-1).tolist()
             for w in (s_hi, s_lo, inc_hi, inc_lo))
    return [{"bit_generator": "PCG64",
             "state": {"state": sh << 64 | sl, "inc": ih << 64 | il},
             "has_uint32": 0, "uinteger": 0}
            for sh, sl, ih, il in zip(*words)]


def uniforms(root_seed: int, path: tuple, start, count: int) -> np.ndarray:
    """Uniforms ``start .. start+count-1`` of many streams at once.

    One or more entries of ``path`` are integer arrays, which broadcast
    against each other (equal-length 1-D arrays are zipped): stream k takes
    element k of each.  Every array key lies below 2^32, so that it is one
    entropy word and every stream's entropy has the same layout; the other
    entries are ints.  ``start`` is one int for every stream or an integer
    array broadcasting with the keys, one start per stream.  Element k of
    the (*streams, count) float64 result equals
    ``child_rng(root_seed, *path_k).random(start_k + count)[start_k:]``.
    """
    starts = np.asarray(start)
    if not np.issubdtype(starts.dtype, np.integer):
        raise ValueError("starts must be integers")
    if (starts.size and starts.min() < 0) or count < 0:
        raise ValueError("start and count must be non-negative")
    shape, (x_hi, x_lo, inc_hi, inc_lo) = _seeded(root_seed, path,
                                                  starts.shape)
    # output j is taken from the state j + 1 steps past the seeded state,
    # which is itself one step past x: A_t x + B_t inc with t = start + 2 + j;
    # row 0 jumps each stream to its own t = start + 2 ...
    size = int(np.prod(shape))
    hi = np.empty((count, size), dtype=np.uint64)
    lo = np.empty((count, size), dtype=np.uint64)
    if count:
        first, which = np.unique(starts, return_inverse=True)
        a, b = zip(*(_lcg_jump(s + 2) for s in first.tolist()))
        a_hi, a_lo, b_hi, b_lo = (w[which.reshape(starts.shape)]
                                  for w in _split(a) + _split(b))
        s_hi, s_lo = _add128(*_mul128(a_hi, a_lo, x_hi, x_lo),
                             *_mul128(b_hi, b_lo, inc_hi, inc_lo))
        hi[0], lo[0] = (np.broadcast_to(w, shape).reshape(-1)
                        for w in (s_hi, s_lo))
    inc_hi, inc_lo = (np.broadcast_to(w, shape).reshape(-1)
                      for w in (inc_hi, inc_lo))
    # ... then rows d.. are the rows ..d jumped d steps on, d = 1, 2, 4, ..
    # (one step adds inc itself)
    d = 1
    while d < count:
        a, b = _POWERS[d.bit_length() - 1]
        k = min(d, count - d)
        add = (inc_hi, inc_lo) if b == 1 else _mul128(
            b >> 64, b & _MASK64, inc_hi, inc_lo)
        hi[d:d + k], lo[d:d + k] = _add128(
            *_mul128(a >> 64, a & _MASK64, hi[:k], lo[:k]), *add)
        d *= 2
    # XSL-RR output (v = hi ^ lo rotated right by hi >> 58), then numpy's
    # 53-bit double, in place where it can be
    lo ^= hi
    hi >>= 58
    out = lo >> hi
    np.subtract(64, hi, out=hi)
    hi &= 63
    lo <<= hi
    out |= lo
    out >>= 11
    result = np.empty((size, count))
    np.multiply(out.T, 1.0 / 9007199254740992.0, out=result)
    return result.reshape(shape + (count,))
