"""Nested superposition channel codebooks, materialized lazily.

Level P-1 (the last cooperating relay) owns the top codebook x(w); each
lower level p owns conditionally i.i.d. codewords x(w | upper indices) drawn
per symbol from its conditional input law given the realized upper-level
codeword symbols.  ``copies`` independent regenerations of the whole stack
are cycled by block index.

Codewords are pure functions of (root seed, trial, level, copy, upper
indices), so any access order and any parallel schedule reproduce the same
codebooks.  One stack serves a chunk of trials run in lockstep and caches
its small tables.  Every slice is the stream ``child_rng(root seed, trial,
STREAM_CODEBOOK, level, copy, *upper)``, read in only two ways.  ``rows``
draws it whole from its start, one trial at a time, with numpy's own
``random``, from the state that :func:`~relaycast.seeds.pcg_states` seeded
for it: one call per level seeds every uncached table a read needs, and
the first read of the top level, which every trial reads, seeds it for
every trial of the stack.  ``row`` reads one row from each of many slices
at once, one per (trial, upper indices) pair: a chunk's trials, or a
decoder's (trial, candidate) pairs, through
:func:`~relaycast.seeds.uniforms`, which reproduces those streams bit for
bit (pinned against the installed numpy by ``tests/test_seeds.py``), so a
gathered row is exactly the row of the materialized table.
"""

from __future__ import annotations

import numpy as np

from .pmf import JointPmf
# child_rng is unused here but stays bound: perfbench's tracer patches it
from .seeds import STREAM_CODEBOOK, child_rng, pcg_states, uniforms  # noqa

#: Largest uniform block :meth:`ChannelCodebookStack.rows` draws at once, in
#: bytes (float64).  Blocks of whole rows come from the slice's one
#: generator in order, so the table does not depend on this cap.  Criterion
#: 6's 2^12 x 24 table (786 KB of uniforms) stays one draw: splitting it
#: into 256 KB blocks cost 2% per table serially but slowed the two-thread
#: point-to-point pass by a fifth (2-vCPU x86 VM, numpy 2.4).
ROWS_DRAW_BYTES = 2 ** 20

#: Cap, in bytes, on what a lockstep chunk of trials holds for all its
#: trials (bin maps, cached tables, source and noise uniforms) and on the
#: candidates one decoding group holds at once, charged C x n cells per
#: trial, one byte each where a window's candidate indices fit in int8
#: (else eight).  A window holds its top level's C x n int8 rows per trial,
#: and the indices of the candidates its screens keep, at most as many.  A
#: group's gathers are drawn in pieces under ``GATHER_CELLS`` and its
#: checks run in chunks under ``typicality.CHECK_BATCH_BYTES``, so its
#: candidates are what it keeps.  Backward decoding at criterion 5's points
#: (C=128, n=7 at the destination) decodes a whole chunk per group;
#: criterion 6's 4096 x 24 candidates are decoded one trial at a time.
CHUNK_BYTES = 2 ** 17

#: Largest slice table a stack keeps for later reads, in bytes.  Small
#: tables are read again across a trial's decodes and cost mostly the
#: stream's set-up to draw again; criterion 6's 98 KB tables are read once.
CACHED_TABLE_BYTES = 2 ** 12

#: Largest uniform block one :meth:`ChannelCodebookStack.row` gather draws
#: at once, in float64 cells.  :func:`~relaycast.seeds.uniforms` holds
#: several arrays of its output's size while it works, so a chunk-wide
#: gather is drawn in blocks of whole trials under this cap.
GATHER_CELLS = 2 ** 13


def inverse_cdf(u: np.ndarray, cum: np.ndarray,
                out: np.ndarray | None = None, at: tuple = ()) -> np.ndarray:
    """Symbol drawn by each uniform in ``u`` from its cumulative law: the
    number of entries of ``cum[at]`` (symbols along the last axis, the other
    axes broadcast against ``u``) that the uniform exceeds.

    One compare per symbol is added into a small-integer accumulator, so no
    (..., symbols) temporary is built; ``at``, index arrays into the leading
    axes of ``cum``, picks each uniform's law one symbol at a time.  The
    last ``cum`` entry stays in the loop: it can round to just under 1, and
    a uniform above it then counts past the last symbol, exactly as
    ``(u[..., None] > cum).sum(-1)`` does.  ``out``, of ``u``'s shape,
    receives the symbols in place of a new array.
    """
    symbols = cum.shape[-1]
    if out is None:
        out = np.zeros(u.shape, dtype=np.int8 if symbols < 128 else np.int64)
    else:
        out[...] = 0
    for a in range(symbols):
        out += u > cum[..., a][at]
    return out


def conditional_input_laws(joint: JointPmf,
                           labels_bottom_up: tuple[str, ...]) -> list[np.ndarray]:
    """Per level p, p(x_p | x_{p+1}, .., x_{P-1}) as an array indexed
    (upper symbols in level order p+1..P-1, own symbol).

    Zero-mass conditioning cells get a uniform law; they are never reached
    by transmissions drawn from the joint itself.
    """
    laws = []
    P = len(labels_bottom_up)
    for p in range(P):
        labels = labels_bottom_up[p:]
        marg = joint.marginalize(labels)
        # axes ordered (upper levels p+1..P-1, own)
        order = [marg.variables.index(v) for v in labels[1:] + (labels[0],)]
        probs = np.transpose(marg.probs, order)
        denom = probs.sum(axis=-1, keepdims=True)
        own = probs.shape[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            law = np.where(denom > 0.0, probs / denom, 1.0 / own)
        laws.append(np.ascontiguousarray(law))
    return laws


class ChannelCodebookStack:
    """Lazily generated codeword tables for a chunk of trials.

    ``level_sizes[p]`` is the number of codeword indices at level p and
    ``laws[p]`` the conditional symbol law from
    :func:`conditional_input_laws`; ``trials`` are the trial numbers the
    stack serves (one int for a single trial).  ``rows(p, copy, upper,
    trial)`` returns one trial's full (level_sizes[p], n) int8 table for
    one tuple of upper indices; ``row`` serves every partial read, for many
    trials at once.
    """

    def __init__(self, n: int, level_sizes: list[int],
                 laws: list[np.ndarray], copies: int, root_seed: int,
                 trials: int | np.ndarray):
        self.n = int(n)
        self.level_sizes = [int(s) for s in level_sizes]
        # per level, the cumulative symbol law under each upper tuple
        self.cum = [np.cumsum(law, axis=-1) for law in laws]
        self.copies = max(1, int(copies))
        self.root_seed = int(root_seed)
        self.trials = np.atleast_1d(np.asarray(trials, dtype=np.int64))
        self._cache: dict[tuple, np.ndarray] = {}
        # the one generator of the stack's seeded draws: each draw assigns
        # it the state of its stream (see _seed_tables) first
        self.rng = np.random.Generator(np.random.PCG64(0))
        self._states: dict[tuple, dict] = {}

    def copy_for_block(self, block: int) -> int:
        return (block - 1) % self.copies

    def rows(self, level: int, copy: int, upper: tuple[int, ...] = (),
             trial: int | None = None) -> np.ndarray:
        """All codewords of ``level`` under the given upper-level indices,
        in ``trial`` (default: the stack's first).

        Tables up to ``CACHED_TABLE_BYTES`` are cached; a larger one is
        drawn again if read again, with the same bytes.  Each draw uses up
        the state :meth:`_seed_tables` seeded for it.
        """
        trial = int(self.trials[0] if trial is None else trial)
        key = (trial, level, copy, upper)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self._seed_tables(level, copy, [upper], [trial])
        above = tuple(
            self.rows(level + 1 + d, copy, upper[d + 1:], trial)[upper[d]]
            for d in range(len(upper)))
        rng = self.rng
        rng.bit_generator.state = self._states.pop(key)
        size = self.level_sizes[level]
        table = np.empty((size, self.n), dtype=np.int8)
        blocks = max(1, -(-size * self.n * 8 // ROWS_DRAW_BYTES))
        step = -(-size // blocks)
        for i in range(0, size, step):
            block = table[i:i + step]
            inverse_cdf(rng.random(block.shape), self.cum[level], block, above)
        if table.nbytes <= CACHED_TABLE_BYTES:
            self._cache[key] = table
        return table

    def _seed_tables(self, level: int, copy: int, uppers: list[tuple],
                     trials: list[int]) -> None:
        """Seed, for the next :meth:`rows` calls, every table neither cached
        nor seeded that the tables of ``level`` under ``uppers[k]`` in
        ``trials[k]`` read: their own and those of the levels above.  One
        :func:`~relaycast.seeds.pcg_states` call seeds a level's tables,
        and a read that wants a table of the top level, which every trial
        reads, seeds it for every trial of the stack.
        """
        wanted: dict[int, dict[tuple, None]] = {}

        def want(key: tuple) -> None:
            if key not in self._cache and key not in self._states:
                wanted.setdefault(key[1], {})[key] = None
        for upper, trial in zip(uppers, trials):
            for d in range(len(upper) + 1):
                want((trial, level + d, copy, upper[d:]))
        top = len(self.level_sizes) - 1
        if top in wanted:
            for trial in self.trials.tolist():
                want((trial, top, copy, ()))
        for at, keys in wanted.items():
            cols = np.array([[k[0], *k[3]] for k in keys], dtype=np.int64)
            self._states.update(zip(keys, pcg_states(
                self.root_seed,
                (cols[:, 0], STREAM_CODEBOOK, at, copy, *cols[:, 1:].T))))

    def row(self, level: int, copy: int, upper: tuple, index,
            trials: np.ndarray | None = None, above: tuple = ()) -> np.ndarray:
        """Codeword ``index`` of the slice under ``upper`` in each of
        ``trials`` (default: the stack's), as (T, n) int8.

        ``index`` and each ``upper`` entry give one value per trial: an int
        for all of them or a sequence of T ints; ``trials`` may repeat a
        trial, one read per (trial, candidate) pair.  A ``None`` index
        reads each trial's whole table, as (T, C, n).  Every other read is
        drawn from the slices' streams by :func:`uniforms` gathers keyed by
        trial, each from its own row's start.  The rows of the levels
        above, which the symbols are drawn under, are read the same way,
        but for the first ones that ``above`` gives: (T, n) rows the caller
        already holds, of the codewords ``upper`` addresses.
        """
        trials = self.trials if trials is None else np.asarray(trials)
        T = trials.size
        if any(u is None for u in upper):
            raise ValueError("upper entries must be indices, not None")
        cols = [np.broadcast_to(np.asarray(u, dtype=np.int64), (T,))
                for u in upper]
        if index is None:
            uppers = list(zip(*(c.tolist() for c in cols))) if cols \
                else [()] * T
            self._seed_tables(level, copy, uppers, trials.tolist())
            tables = [self.rows(level, copy, key, trial)
                      for key, trial in zip(uppers, trials.tolist())]
            # one trial's table is handed over as it is, not copied
            return tables[0][None] if T == 1 else np.stack(tables)
        index = np.broadcast_to(np.asarray(index, dtype=np.int64), (T,))
        out = np.empty((T, self.n), dtype=np.int8)
        step = max(1, GATHER_CELLS // self.n)
        for i in range(0, T, step):
            part = slice(i, i + step)
            # the part's rows of the levels above, (size, n): those given,
            # then those read here
            rows = tuple(a[part] for a in above) + tuple(
                self.row(level + 1 + d, copy,
                         tuple(c[part] for c in cols[d + 1:]), cols[d][part],
                         trials[part])
                for d in range(len(above), len(upper)))
            u = uniforms(self.root_seed,
                         (trials[part], STREAM_CODEBOOK, level, copy,
                          *(c[part] for c in cols)),
                         index[part] * self.n, self.n)
            inverse_cdf(u, self.cum[level], out[part], rows)
        return out
