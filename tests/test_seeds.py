"""The vectorized stream kernel against numpy's own generators.

``uniforms`` redoes numpy's SeedSequence mix and PCG64 jump-ahead on arrays;
every case here compares it with ``child_rng(...).random`` by ``==``, so an
installed numpy that changes either algorithm fails this file.
"""

import numpy as np
import pytest

from relaycast.seeds import child_rng, uniforms

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


def test_rejects_bad_paths():
    with pytest.raises(ValueError):
        uniforms(0, (1, np.array([2**32])), 0, N)
    with pytest.raises(ValueError):
        uniforms(0, (1, np.array([3, 2**40])), 0, N)
    with pytest.raises(ValueError):
        uniforms(0, (1, np.array([-1])), 0, N)
    with pytest.raises(ValueError):
        uniforms(0, (1, 2), 0, N)
    with pytest.raises(ValueError):
        uniforms(0, (np.arange(2), np.arange(2)), 0, N)
