"""Superposition codebook stack: laws, determinism, lazy row access."""

import functools

import numpy as np
import pytest

import relaycast as rc
from relaycast import codebooks
from relaycast.codebooks import (
    ChannelCodebookStack,
    conditional_input_laws,
    inverse_cdf,
)
from relaycast.network import input_label
from relaycast.seeds import (
    STREAM_CHANNEL,
    STREAM_CODEBOOK,
    child_rng,
    pcg_states,
    uniforms,
)
from relaycast.simulate import _ChannelSampler


def reference_inverse_cdf(u, cum):
    """The (C, n, A) compare-and-sum the codebook kernels replaced."""
    return (u[:, :, None] > cum).sum(axis=2)


def test_conditional_laws_factorize_joint():
    rng = np.random.default_rng(8)
    joint = rc.random_pmf(("X0", "X1", "X2"), (2, 3, 2), rng, positive=True)
    laws = conditional_input_laws(joint, ("X0", "X1", "X2"))
    # reassemble p(x0, x1, x2) = p(x2) p(x1|x2) p(x0|x1,x2)
    rebuilt = np.zeros((2, 3, 2))
    for x0 in range(2):
        for x1 in range(3):
            for x2 in range(2):
                rebuilt[x0, x1, x2] = (laws[2][x2] * laws[1][x2, x1]
                                       * laws[0][x1, x2, x0])
    np.testing.assert_allclose(rebuilt, joint.probs, atol=1e-12)


def test_same_address_same_codeword():
    joint = rc.uniform_pmf(("X0", "X1"), (2, 2))
    laws = conditional_input_laws(joint, ("X0", "X1"))
    a = ChannelCodebookStack(9, [16, 8], laws, 2, 7, 0)
    b = ChannelCodebookStack(9, [16, 8], laws, 2, 7, 0)
    np.testing.assert_array_equal(a.rows(0, 1, (3,)), b.rows(0, 1, (3,)))
    # different copy, cond, or trial give different draws
    assert not np.array_equal(a.rows(0, 0, (3,)), a.rows(0, 1, (3,)))
    c = ChannelCodebookStack(9, [16, 8], laws, 2, 7, 1)
    assert not np.array_equal(a.rows(0, 1, (3,)), c.rows(0, 1, (3,)))


def test_row_fetch_matches_materialized_slice():
    """A row read from a fresh stack is the row of the slice's materialized
    table, at any index of a large slice (the simulators rely on it)."""
    joint = rc.uniform_pmf(("X0", "X1"), (2, 2))
    laws = conditional_input_laws(joint, ("X0", "X1"))
    for sizes, n in [([700, 9], 17), ([1500, 4], 6)]:
        whole = ChannelCodebookStack(n, sizes, laws, 1, 99, 3)
        lazy = ChannelCodebookStack(n, sizes, laws, 1, 99, 3)
        table = whole.rows(0, 0, (2,))
        for idx in [0, 1, 5, 299, sizes[0] - 1]:
            np.testing.assert_array_equal(table[idx],
                                          lazy.row(0, 0, (2,), idx)[0])


def test_marginal_statistics_follow_law():
    # empirical symbol frequencies of a large slice track the declared law
    rng = np.random.default_rng(0)
    joint = rc.random_pmf(("X0", "X1"), (3, 2), rng, positive=True)
    laws = conditional_input_laws(joint, ("X0", "X1"))
    stack = ChannelCodebookStack(400, [512, 4], laws, 1, 1, 0)
    upper = stack.rows(1, 0, ())
    table = stack.rows(0, 0, (1,))
    cond = laws[0][upper[1]]                # (n, 3) law per position
    for sym in range(3):
        freq = (table == sym).mean(axis=0)  # across 512 codewords
        np.testing.assert_allclose(freq, cond[:, sym], atol=0.08)


def test_copy_cycling():
    joint = rc.uniform_pmf(("X0",), (2,))
    laws = conditional_input_laws(joint, ("X0",))
    stack = ChannelCodebookStack(5, [4], laws, 3, 0, 0)
    assert [stack.copy_for_block(b) for b in range(1, 8)] == \
        [0, 1, 2, 0, 1, 2, 0]


def test_inverse_cdf_matches_reference():
    rng = np.random.default_rng(5)
    # a law whose cumulative sum ends just under 1.0: uniforms above the
    # last entry must count past the last symbol, as the reference does
    tenths = np.cumsum(np.full(10, 0.1))
    assert tenths[-1] < 1.0
    u_edge = np.array([[0.0, tenths[-1], np.nextafter(tenths[-1], 1.0)]])
    cum_edge = np.broadcast_to(tenths, (3, 10))
    np.testing.assert_array_equal(inverse_cdf(u_edge, cum_edge),
                                  reference_inverse_cdf(u_edge, cum_edge))
    assert inverse_cdf(u_edge, cum_edge).tolist() == [[0, 9, 10]]
    for symbols in (2, 3, 4, 130):
        law = rng.dirichlet(np.ones(symbols), size=24)    # per position
        cum = np.cumsum(law, axis=-1)
        u = rng.random((4096, 24))
        u[0] = cum[:, -1]                 # ties sit at or below the entry
        got = inverse_cdf(u, cum)
        np.testing.assert_array_equal(got, reference_inverse_cdf(u, cum))
        np.testing.assert_array_equal(inverse_cdf(u[7], cum),
                                      reference_inverse_cdf(u[7:8], cum)[0])


def test_stack_and_channel_draw_the_reference_symbols():
    """``rows``, ``row`` and the channel sampler give the reference
    compare-and-sum of their own uniform streams."""
    rng = np.random.default_rng(3)
    for symbols in (2, 3, 4):
        joint = rc.random_pmf(("X0", "X1"), (symbols, 2), rng,
                              positive=True)
        laws = conditional_input_laws(joint, ("X0", "X1"))
        n, seed, trial = 24, 11, 2
        stack = ChannelCodebookStack(n, [4096, 2], laws, 1, seed, trial)
        table = stack.rows(0, 0, (1,))
        cum = np.cumsum(laws[0][stack.rows(1, 0, ())[1]], axis=-1)
        u = child_rng(seed, trial, STREAM_CODEBOOK, 0, 0, 1).random((4096, n))
        want = reference_inverse_cdf(u, cum).astype(np.int8)
        assert table.dtype == np.int8
        np.testing.assert_array_equal(table, want)
        lazy = ChannelCodebookStack(n, [4096, 2], laws, 1, seed, trial)
        for idx in (0, 17, 4095):
            np.testing.assert_array_equal(lazy.row(0, 0, (1,), idx)[0],
                                          want[idx])

    spec = rc.bundled_network("net-c")
    sampler = _ChannelSampler(spec)
    in_idx = rng.integers(0, int(np.prod(spec.input_sizes)), 500)
    u = child_rng(4, 0, STREAM_CHANNEL, 1).random(in_idx.size)
    out = sampler.sample(in_idx, u)
    flat = reference_inverse_cdf(u[None, :], sampler.cum[in_idx])[0]
    for axis in range(len(sampler.out_sizes) - 1, -1, -1):
        np.testing.assert_array_equal(out[axis],
                                      flat % sampler.out_sizes[axis])
        flat //= sampler.out_sizes[axis]


def test_rows_drawn_in_blocks_equal_one_draw(monkeypatch):
    """The capped uniform draw of ``rows`` yields the unchunked table."""
    rng = np.random.default_rng(6)
    joint = rc.random_pmf(("X0", "X1"), (3, 2), rng, positive=True)
    laws = conditional_input_laws(joint, ("X0", "X1"))
    n, sizes = 24, [1000, 2]
    monkeypatch.setattr(codebooks, "ROWS_DRAW_BYTES", 2**40)
    whole = ChannelCodebookStack(n, sizes, laws, 1, 4, 1).rows(0, 0, (1,))
    for cap in (8 * n, 8 * n * 333, 8 * n * 999 - 1):
        monkeypatch.setattr(codebooks, "ROWS_DRAW_BYTES", cap)
        chunked = ChannelCodebookStack(n, sizes, laws, 1, 4, 1)
        np.testing.assert_array_equal(chunked.rows(0, 0, (1,)), whole)


def _net_laws(net, dependent):
    """Conditional laws on a bundled net's input alphabets: its own input
    law, or a random one under which every level depends on those above."""
    spec = rc.bundled_network(net)
    labels = tuple(input_label(t) for t in range(spec.K + 1))
    sizes = spec.input_sizes[:spec.K + 1]
    joint = rc.random_pmf(labels, sizes, np.random.default_rng(2),
                          positive=True) if dependent \
        else spec.extend_input(None, labels).marginalize(labels)
    return conditional_input_laws(joint, labels)


def _pairs(entries, C, trials):
    """A ``row`` read of every (trial, candidate) pair: per trial of
    ``trials``, candidates w = 0..C-1 fill each ``None`` of ``entries``,
    whose other values are one int or one per trial; returns the zipped
    per-pair entries and trial keys."""
    trials = np.atleast_1d(trials)
    per_trial = [np.broadcast_to(np.arange(C) if e is None
                                 else np.asarray(e)[..., None],
                                 (trials.size, C)).reshape(-1)
                 for e in entries]
    return per_trial, np.repeat(trials, C)


def _whole(level_sizes, level, upper, index):
    """How many reads a case makes: a ``None`` index reads the level's
    whole table, and a ``None`` upper entry ranges over the whole level it
    addresses; 0 for one read per trial."""
    if index is None:
        return level_sizes[level]
    if None in upper:
        return level_sizes[level + 1 + upper.index(None)]
    return 0


@pytest.mark.parametrize("dependent", [False, True])
@pytest.mark.parametrize("net, level_sizes, n, cases", [
    # (level, upper, index): candidates 0..C-1 fill the None entry, one
    # read per candidate, with C the size of the level it addresses; a
    # None index reads the whole table
    ("net-c", [700, 48], 7, [(0, (None,), 3), (0, (None,), 4),
                             (0, (None,), 699), (1, (), None),
                             (0, (3,), None)]),
    ("net-c", [16, 32], 3, [(0, (None,), 15)]),
    ("net-d", [600, 40, 24], 9,
     [(0, (None, 5), 17), (0, (11, None), 599), (0, (None, 0), 0),
      (1, (None,), 39), (1, (7,), None), (0, (None, 23), 2)]),
])
def test_row_across_equals_row_loop(net, level_sizes, n, cases, dependent):
    """``row`` with each candidate as an explicit entry returns, for each
    index w in that entry, the row of the materialized table that w
    addresses; a ``None`` index reads the whole table."""
    laws = _net_laws(net, dependent)
    across = ChannelCodebookStack(n, level_sizes, laws, 2, 5, 3)
    for level, upper, index in cases:
        C = _whole(level_sizes, level, upper, index)
        tables = ChannelCodebookStack(n, level_sizes, laws, 2, 5, 3)
        # a large table is drawn again on each read: read each once
        read = functools.cache(lambda above: tables.rows(level, 1, above))
        want = []
        for w in range(C):
            own, *above = (w if a is None else a for a in (index,) + upper)
            want.append(read(tuple(above))[own])
        if index is None:
            got = across.row(level, 1, upper, index)
            assert got.shape == (1, C, n)
            got = got[0]
        else:
            (own, *above), keys = _pairs((index,) + upper, C, 3)
            got = across.row(level, 1, tuple(tuple(a.tolist())
                                             for a in above), own, keys)
            assert got.shape == (C, n)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, np.stack(want))


def test_small_tables_are_cached_large_ones_drawn_again():
    """Tables up to ``CACHED_TABLE_BYTES`` are served from the cache; a
    larger one is drawn again on each read, with the same bytes."""
    laws = _net_laws("net-c", False)
    stack = ChannelCodebookStack(5, [1000, 8], laws, 1, 0, 0)
    assert stack.rows(1, 0, ()) is stack.rows(1, 0, ())
    big = stack.rows(0, 0, (3,))
    assert big.nbytes > codebooks.CACHED_TABLE_BYTES
    again = stack.rows(0, 0, (3,))
    assert again is not big
    np.testing.assert_array_equal(again, big)


def test_large_top_tables_are_seeded_once(monkeypatch):
    """A top-level table too large to cache is drawn again when read
    again, from the state its stack seeded the first time: the stack's
    trials are seeded in one ``pcg_states`` call, and never again."""
    calls = []

    def counted(root, path):
        calls.append(np.atleast_1d(path[0]).size)
        return pcg_states(root, path)
    monkeypatch.setattr(codebooks, "pcg_states", counted)
    laws = _net_laws("net-c", False)[-1:]
    stack = ChannelCodebookStack(24, [4096], laws, 1, 0, np.arange(16))
    tables = [stack.rows(0, 0, (), trial) for trial in range(16)]
    assert tables[3].nbytes > codebooks.CACHED_TABLE_BYTES
    again = stack.rows(0, 0, (), 3)
    assert calls == [16]
    assert again is not tables[3]
    np.testing.assert_array_equal(again, tables[3])
    np.testing.assert_array_equal(
        again, ChannelCodebookStack(24, [4096], laws, 1, 0, 3).rows(0, 0))


def test_chunk_tables_are_seeded_together(monkeypatch):
    """Every table is drawn from a state that ``pcg_states`` seeded, never
    from a ``child_rng``: a read seeds each level it needs in one call, and
    the first read of the top level seeds it for every trial of the
    stack."""
    laws = _net_laws("net-d", False)

    def refuse(*path):
        raise AssertionError(f"child_rng{path}")
    calls = []

    def counted(root, path):
        keys = (path[0],) + path[4:]
        calls.append((path[2], sorted(zip(*(np.atleast_1d(key).tolist()
                                            for key in keys)))))
        return pcg_states(root, path)
    monkeypatch.setattr(codebooks, "child_rng", refuse)
    monkeypatch.setattr(codebooks, "pcg_states", counted)
    trials = np.arange(6)
    chunk = ChannelCodebookStack(5, [60, 8, 4], laws, 1, 0, trials)
    got = chunk.row(0, 0, ((1, 2), (0, 1)), None, trials[:2])
    assert sorted(calls) == [(0, [(0, 1, 0), (1, 2, 1)]),
                             (1, [(0, 0), (1, 1)]),
                             (2, [(t,) for t in range(6)])]
    # trial 4's top table is seeded already; its lower tables are not
    calls.clear()
    got = np.concatenate([got, chunk.row(0, 0, (3, 2), None, trials[4:5])])
    assert sorted(calls) == [(0, [(4, 3, 2)]), (1, [(4, 2)])]
    calls.clear()
    chunk.row(0, 0, (3, 2), None, trials[4:5])
    assert calls == []      # a cached table is not seeded again
    for k, (trial, upper) in enumerate([(0, (1, 0)), (1, (2, 1)),
                                        (4, (3, 2))]):
        alone = ChannelCodebookStack(5, [60, 8, 4], laws, 1, 0, trial)
        np.testing.assert_array_equal(got[k], alone.rows(0, 0, upper))


def test_row_across_rejects_bad_ranges():
    """An upper entry must give indices: a ``None`` entry, which once
    ranged over sibling slices, is rejected; with explicit entries an index
    reads the table's row and a ``None`` index the whole table."""
    laws = _net_laws("net-c", False)
    stack = ChannelCodebookStack(5, [8, 4], laws, 1, 0, 0)
    for index in (1, None):
        with pytest.raises(ValueError):
            stack.row(0, 0, (None,), index)
    np.testing.assert_array_equal(stack.row(0, 0, (2,), 1)[0],
                                  stack.rows(0, 0, (2,))[1])
    np.testing.assert_array_equal(stack.row(0, 0, (2,), None)[0],
                                  stack.rows(0, 0, (2,)))


#: The trials of the chunk-wide reads below, the largest trial key included.
TRIALS = (3, 0, 2**32 - 1)


@pytest.mark.parametrize("dependent", [False, True])
@pytest.mark.parametrize("net, level_sizes, n, cases", [
    # (level, upper, index) with per-trial values as tuples, one per trial
    # of TRIALS; candidates 0..C-1 fill a None entry, with C the size of
    # the level it addresses, one read per (trial, candidate) pair, and a
    # None index reads the whole table
    # each first case reads tables under upper tables not yet drawn
    ("net-c", [700, 48], 7, [(0, ((3, 0, 47),), None),
                             (0, (None,), (3, 699, 0)),
                             (0, ((5, 47, 0),), (3, 699, 0)),
                             (1, (), (0, 47, 9)),
                             (1, (), None),
                             (0, ((3, 0, 47),), None)]),
    ("net-d", [600, 40, 24], 9,
     [(0, ((1, 2, 39), (4, 23, 0)), None),
      (0, (None, (5, 23, 0)), (17, 0, 599)),
      (0, ((11, 0, 39), None), (599, 2, 0)),
      (0, ((1, 2, 3), (4, 5, 6)), (7, 8, 9)),
      (1, (None,), (39, 0, 5))]),
])
def test_row_across_trials_equals_each_trials_tables(net, level_sizes, n,
                                                     cases, dependent):
    """With a trial axis, ``row`` returns for each trial the rows that the
    trial's own materialized tables hold: one gather keyed by trial (and
    candidate) reads the same codewords as each trial's own streams."""
    laws = _net_laws(net, dependent)
    trials = np.array(TRIALS)
    chunk = ChannelCodebookStack(n, level_sizes, laws, 2, 5, trials)
    for level, upper, index in cases:
        C = _whole(level_sizes, level, upper, index)
        if index is None or None not in upper:
            got = chunk.row(level, 1, upper, index)
        else:
            (own, *above), keys = _pairs((index,) + upper, C, trials)
            got = chunk.row(level, 1, tuple(tuple(a.tolist())
                                            for a in above), own, keys)
            got = got.reshape(trials.size, C, n)
        assert got.dtype == np.int8
        for k, trial in enumerate(TRIALS):
            tables = ChannelCodebookStack(n, level_sizes, laws, 2, 5, trial)
            read = functools.cache(lambda above: tables.rows(level, 1, above))
            mine = [u if u is None else u[k] for u in upper]
            own = None if index is None else index[k]
            want = []
            for w in range(C or 1):
                own_w, *above = (w if a is None else a
                                 for a in [own] + mine)
                want.append(read(tuple(above))[own_w])
            np.testing.assert_array_equal(
                got[k], np.stack(want) if C else want[0])


@pytest.mark.parametrize("dependent", [False, True])
@pytest.mark.parametrize("small_cap", [False, True])
def test_batched_tables_equal_per_table_rows(dependent, small_cap,
                                             monkeypatch):
    """A whole-table ``row`` read over many trials gives each trial the
    table that ``rows`` draws on a fresh one-trial stack: with repeated
    trials and repeated keys, with some tables cached before the read,
    under distinct upper tuples (in one trial too), and for tables too
    large to cache, which are not cached.  Under a small
    ``ROWS_DRAW_BYTES`` the batch is drawn in blocks of whole tables, and
    a table over the cap in blocks of rows."""
    laws = _net_laws("net-d", dependent)
    sizes, n, seed = [1000, 24, 6], 5, 9
    draws = []

    def spy(u, cum, out=None, at=()):
        draws.append(u.shape)
        return inverse_cdf(u, cum, out, at)
    monkeypatch.setattr(codebooks, "inverse_cdf", spy)
    # the oracles draw each table whole, under the default cap
    whole, cap = codebooks.ROWS_DRAW_BYTES, 2 * 8 * 24 * n
    trials = np.array([4, 0, 4, 7, 2**32 - 1, 0, 4])
    # per level, the upper tuple of each read, one column per level above
    cases = [(2, ()),
             (1, ((3, 3, 5, 5, 0, 1, 3),)),
             (0, ((1, 2, 7, 23, 0, 2, 1), (3, 3, 5, 5, 0, 1, 3)))]
    stack = ChannelCodebookStack(n, sizes, laws, 2, seed, np.unique(trials))
    # (upper, trial, table) of a table read before the batch
    cached = {level: (upper, trial, stack.rows(level, 1, upper, trial))
              for level, upper, trial in [(1, (3,), 4), (2, (), 7)]}
    for level, upper in cases:
        draws.clear()
        monkeypatch.setattr(codebooks, "ROWS_DRAW_BYTES",
                            cap if small_cap else whole)
        got = stack.row(level, 1, upper, None, trials)
        drawn = draws[:]
        monkeypatch.setattr(codebooks, "ROWS_DRAW_BYTES", whole)
        assert got.shape == (trials.size, sizes[level], n)
        for k, trial in enumerate(trials.tolist()):
            mine = tuple(u[k] for u in upper)
            alone = ChannelCodebookStack(n, sizes, laws, 2, seed, trial)
            np.testing.assert_array_equal(got[k],
                                          alone.rows(level, 1, mine))
        if level in cached:     # the table read first is served again
            first, at, table = cached[level]
            assert stack.rows(level, 1, first, at) is table
        if small_cap and level == 1:
            # five new tables of 960 B, two to a block
            assert drawn == [(2, 24, n), (2, 24, n), (1, 24, n)]
        if small_cap and level == 0:
            # six new 40 KB tables, each in 21 blocks of rows
            assert drawn == ([(1, 48, n)] * 20 + [(1, 40, n)]) * 6
    # a table over CACHED_TABLE_BYTES is drawn again on each read
    again = stack.rows(0, 1, (1, 3), 4)
    assert again.nbytes > codebooks.CACHED_TABLE_BYTES
    assert stack.rows(0, 1, (1, 3), 4) is not again


@pytest.mark.parametrize("sizes, gathered", [([60, 8], False),
                                             ([60, 1000], True)])
def test_top_rows_come_from_small_tables(sizes, gathered, monkeypatch):
    """An indexed read of the top level, which has no upper indices, takes
    its rows from the whole tables when they fit ``CACHED_TABLE_BYTES``,
    with no gather, and else gathers them; either way each row equals the
    ``uniforms`` gather of that row under the top level's law."""
    laws = _net_laws("net-c", True)
    n, seed, trials = 5, 3, np.array([2, 0, 2, 9])
    index = np.array([7, 0, 3, sizes[1] - 1])
    u = uniforms(seed, (trials, STREAM_CODEBOOK, 1, 0), index * n, n)
    want = inverse_cdf(u, np.cumsum(laws[1], axis=-1))
    calls = []

    def spy(*args):
        calls.append(args)
        return uniforms(*args)
    monkeypatch.setattr(codebooks, "uniforms", spy)
    stack = ChannelCodebookStack(n, sizes, laws, 1, seed, np.unique(trials))
    got = stack.row(1, 0, (), index, trials)
    assert got.dtype == np.int8
    np.testing.assert_array_equal(got, want)
    assert bool(calls) == gathered
    assert bool(stack._cache.get((1, 0))) != gathered
