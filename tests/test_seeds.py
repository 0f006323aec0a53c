"""The vectorized stream kernel against numpy's own generators.

``uniforms`` redoes numpy's SeedSequence mix and PCG64 jump-ahead on arrays,
and ``pcg_states`` the seeded PCG64 states; every case here compares them
with ``child_rng(...)`` draws by ``==``, so an installed numpy that changes
either algorithm fails this file.
"""

import numpy as np
import pytest

from relaycast.seeds import child_rng, pcg_states, uniforms

KEYS = np.array([0, 1, 2, 77, 65_536, 2**32 - 1])
BIG_ROOT = 2**64 + 12_345
BIG_WORD = 2**33 + 7            # two entropy words
N = 24


def reference(root, path, start, count):
    """``child_rng(root, *path).random(start + count)[start:]``, drawing the
    skipped prefix in blocks so that large offsets stay small in memory."""
    rng = child_rng(root, *path)
    skip = start
    while skip:
        skip -= rng.random(min(skip, 2**20)).size
    return rng.random(count)


def assert_matches(root, path, start, count, keys=KEYS):
    slot = path.index(None)
    got = uniforms(root, path[:slot] + (keys,) + path[slot + 1:], start,
                   count)
    assert got.shape == (keys.size, count)
    assert got.dtype == np.float64
    for row, key in zip(got, keys):
        full = path[:slot] + (int(key),) + path[slot + 1:]
        want = reference(root, full, start, count)
        assert (row == want).all(), (root, full, start, count)


@pytest.mark.parametrize("root", [0, 9, BIG_ROOT])
@pytest.mark.parametrize("slot", range(5))
def test_varying_entry_at_each_position(root, slot):
    base = [3, 2, BIG_WORD, 1]
    path = tuple(base[:slot] + [None] + base[slot:])
    for start, count in [(0, 1), (0, N), (5 * N, N), (217, 1)]:
        assert_matches(root, path, start, count)


def test_lone_path_entry():
    for root in (0, BIG_ROOT):
        assert_matches(root, (None,), 0, N)
        assert_matches(root, (None,), 7, 1)


def test_offset_near_the_largest_row():
    # rows reach 2^20 codewords of n = 24 symbols
    start = 2**20 * N - 3
    assert_matches(7, (1, 2, 0, 0, None), start, N,
                   keys=np.array([0, 2**32 - 1]))


def test_zero_count_and_single_key():
    assert uniforms(0, (1, np.arange(3)), 4, 0).shape == (3, 0)
    assert_matches(5, (1, None, 2), 3, N, keys=np.array([42]))


def assert_zipped(root, path, starts, count):
    """``uniforms`` on a path with several zipped array entries and one
    start per stream, row by row against ``child_rng``."""
    got = uniforms(root, path, starts, count)
    size = len(starts)
    assert got.shape == (size, count)
    for k in range(size):
        full = tuple(int(p[k]) if isinstance(p, np.ndarray) else p
                     for p in path)
        want = reference(root, full, int(starts[k]), count)
        assert (got[k] == want).all(), (root, full, starts[k], count)


# (trial, sibling) pairs: trial keys 0 and 2^32 - 1 among them
TRIALS = np.array([0, 0, 5, 2**32 - 1, 2**32 - 1, 77])
SIBLINGS = np.array([3, 0, 9, 0, 2**32 - 1, 1])


@pytest.mark.parametrize("root", [0, BIG_ROOT])
@pytest.mark.parametrize("path", [
    (TRIALS, 2, 0, 1, SIBLINGS),         # a codeword gather's layout
    (TRIALS, 3, SIBLINGS),               # arrays adjacent
    (SIBLINGS, BIG_WORD, TRIALS),
    (4, TRIALS, SIBLINGS, 2),            # arrays inside the path
], ids=["codeword", "adjacent", "big-word-between", "inside"])
def test_zipped_entries_with_per_stream_starts(root, path):
    # each stream from its own start, near the largest row's among them
    starts = np.array([0, 5 * N, 217, 2**20 * N - 3, 3, 5 * N])
    assert_zipped(root, path, starts, N)
    assert_zipped(root, path, starts, 1)
    assert_zipped(root, path, np.zeros(TRIALS.size, dtype=np.int64), N)


@pytest.mark.parametrize("root", [0, BIG_ROOT])
def test_broadcast_entries_trial_by_sibling(root):
    """A column of trials against a row of siblings, each trial from its own
    start, as the codebook gathers read them: element (i, j) is trial i's
    sibling j."""
    trials = np.array([0, 9, 2**32 - 1])
    siblings = np.array([0, 1, 77, 2**32 - 1])
    starts = np.array([0, 7 * N, 2**20 * N - 3])
    got = uniforms(root, (trials[:, None], 2, 0, 1, siblings), starts[:, None],
                   N)
    assert got.shape == (trials.size, siblings.size, N)
    for i, trial in enumerate(trials):
        for j, sibling in enumerate(siblings):
            path = (int(trial), 2, 0, 1, int(sibling))
            want = reference(root, path, int(starts[i]), N)
            assert (got[i, j] == want).all(), (root, path)


def test_per_stream_starts_with_one_array():
    assert_matches(7, (1, None), 0, N)
    assert_zipped(9, (1, np.array([4, 4, 4])), np.array([N, 0, 3 * N]), N)


def test_rejects_bad_paths():
    with pytest.raises(ValueError):
        uniforms(0, (1, np.array([2**32])), 0, N)
    with pytest.raises(ValueError):
        uniforms(0, (1, np.array([3, 2**40])), 0, N)
    with pytest.raises(ValueError):
        uniforms(0, (1, np.array([-1])), 0, N)
    with pytest.raises(ValueError):
        uniforms(0, (1, 2), 0, N)
    # zipped entries must share one length, and their keys the key range
    with pytest.raises(ValueError):
        uniforms(0, (np.arange(2), np.arange(3)), 0, N)
    with pytest.raises(ValueError):
        uniforms(0, (np.arange(2), np.array([1, 2**32])), 0, N)
    with pytest.raises(ValueError):
        uniforms(0, (np.array([-1, 0]), np.arange(2)), 0, N)
    # one start per stream, none negative
    with pytest.raises(ValueError):
        uniforms(0, (1, np.arange(2)), np.array([0, 1, 2]), N)
    with pytest.raises(ValueError):
        uniforms(0, (1, np.arange(2)), np.array([0, -1]), N)


def test_zipped_pair_of_equal_entries():
    """Two equal-length array entries are zipped, not rejected: stream k
    is the path (k, k)."""
    assert_zipped(0, (np.arange(2), np.arange(2)), np.zeros(2, dtype=int), N)


def fresh_generator():
    return np.random.Generator(np.random.PCG64(0))


def assert_states(root, path, draw):
    """Each state ``pcg_states`` returns makes one reused generator draw,
    by ``draw(generator)``, what the stream's own ``child_rng`` draws."""
    states = pcg_states(root, path)
    size = np.broadcast_shapes(*(p.shape for p in path
                                 if isinstance(p, np.ndarray)))
    assert len(states) == int(np.prod(size))
    keys = np.broadcast_arrays(*(p for p in path if isinstance(p, np.ndarray)))
    rng = fresh_generator()
    for k, state in enumerate(states):
        at = np.unravel_index(k, size)
        values = iter(int(key[at]) for key in keys)
        full = tuple(next(values) if isinstance(p, np.ndarray) else p
                     for p in path)
        rng.bit_generator.state = state
        got, want = draw(rng), draw(child_rng(root, *full))
        assert got.dtype == want.dtype
        assert (got == want).all(), (root, full)


@pytest.mark.parametrize("root", [0, 2**32 + 5, BIG_ROOT])
@pytest.mark.parametrize("count", [1, 7, 224])
def test_states_draw_each_streams_uniforms(root, count):
    assert_states(root, (KEYS, 2, 0, 1), lambda g: g.random(count))
    assert_states(root, (TRIALS, 2, 0, 1, SIBLINGS),
                  lambda g: g.random(count))


@pytest.mark.parametrize("root", [0, 2**32 + 5])
@pytest.mark.parametrize("k", [0, 1, 5, 12])
def test_states_draw_each_streams_bounded_integers(root, k):
    """``integers(0, 2^k, size=M)`` as a bin map draws it; at k = 0 numpy
    draws nothing from the stream."""
    assert_states(root, (TRIALS, 1, 2), lambda g: g.integers(0, 2**k,
                                                             size=27))
    assert_states(root, (TRIALS, 2, 0, 1, SIBLINGS),
                  lambda g: g.integers(0, 2**k, size=6))


@pytest.mark.parametrize("root", [0, 2**32 + 5])
def test_states_of_zipped_trial_and_upper_entries(root):
    """(trial, upper) pairs zipped, trial keys 0 and 2^32 - 1 among them,
    and a trial column against a row of uppers, in C order."""
    assert_states(root, (TRIALS, 2, 1, 0, SIBLINGS, TRIALS),
                  lambda g: g.random(N))
    assert_states(root, (TRIALS[:, None], 2, 0, 1, SIBLINGS[None, :3]),
                  lambda g: g.random(3))


def test_state_clears_a_buffered_half_word():
    """An odd-length 32-bit ``integers`` draw leaves half of a 64-bit output
    in PCG64's buffer; a state assigned right after it is drawn from as a
    fresh stream."""
    states = pcg_states(3, (np.arange(3), 1, 2))
    rng = fresh_generator()
    for k, state in enumerate(states):
        rng.bit_generator.state = state
        first = rng.integers(0, 32, size=5)
        assert rng.bit_generator.state["has_uint32"] == 1
        rng.bit_generator.state = state
        assert (rng.integers(0, 32, size=5) == first).all()
        assert (first == child_rng(3, k, 1, 2).integers(0, 32, size=5)).all()
        rng.bit_generator.state = state
        assert (rng.random(4) == child_rng(3, k, 1, 2).random(4)).all()


def test_states_reject_bad_paths():
    with pytest.raises(ValueError):
        pcg_states(0, (1, 2))
    with pytest.raises(ValueError):
        pcg_states(0, (1, np.array([2**32])))
    with pytest.raises(ValueError):
        pcg_states(0, (np.arange(2), np.arange(3)))
