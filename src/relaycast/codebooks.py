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
STREAM_CODEBOOK, level, copy, *upper)``, read in only two ways.  A
whole-table read (``row`` with no index; ``rows`` is its one-trial case)
draws every table it lacks from its start with numpy's own ``random``, from
states that :func:`~relaycast.seeds.pcg_states` seeds, one call per level,
into one buffer; the first read of the top level, which every trial reads,
seeds it for every trial of the stack.  ``row`` with indices reads one row
from each of many slices at once, one per (trial, upper indices) pair: a
chunk's trials, or a decoder's (trial, candidate) pairs, through
:func:`~relaycast.seeds.uniforms`, which reproduces those streams bit for
bit (pinned against the installed numpy by ``tests/test_seeds.py``), so a
gathered row is exactly the row of the materialized table.  A small top
level serves its rows from its tables.
"""

from __future__ import annotations

import numpy as np

from .errors import whole_number
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

#: Cap, in bytes, on what a lockstep chunk holds for all its trials for
#: its whole run: ``simulate._Engine.trial_bytes`` per trial (bin maps,
#: cached tables, source blocks and estimates, every block's channel
#: outputs, error flags, and the source and one block's noise uniforms).
#: The per-chunk cost (stream set-up, one check per stage) does not depend
#: on the trial count, so fewer chunks pay it fewer times.  Criterion 5's
#: two 300-trial points (about 1.5 KB and 0.9 KB a trial) each run as one
#: chunk; criterion 6's binned point, 8.6 KB a trial for its 4096-entry
#: bin maps, as 7 chunks of 57-58 trials.
CHUNK_BYTES = 2 ** 19

#: Cap, in bytes, on the candidates one decoding group holds at once,
#: charged C x n cells per trial, one byte each where a window's candidate
#: indices fit in int8 (else eight), and on the C surviving-bin flags per
#: trial of one settle span.  A window holds its top level's C x n int8
#: rows per trial, and the indices of the candidates its screens keep, at
#: most as many.  A group's gathers are drawn in pieces under
#: ``GATHER_CELLS`` and its checks run in chunks under
#: ``typicality.CHECK_BATCH_BYTES``, so its candidates are what it keeps.
#: Groups and spans run inside a chunk, so this decode working set does
#: not grow with ``CHUNK_BYTES``: backward decoding at criterion 5's points
#: (C=128, n=7 at the destination) decodes up to 146 trials per group, and
#: criterion 6's 4096 x 24 candidates are tested one trial at a time and
#: settled 32 trials per span.
GROUP_BYTES = 2 ** 17

#: Largest slice table a stack keeps for later reads, in bytes.  Small
#: tables are read again across a trial's decodes and cost mostly the
#: stream's set-up to draw again; criterion 6's 98 KB tables are read once.
#: A top-level table this small also serves its rows to indexed reads.
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
    for p in range(len(labels_bottom_up)):
        # axes ordered (upper levels p+1..P-1, own)
        probs = joint.marginal_array(labels_bottom_up[p + 1:]
                                     + labels_bottom_up[p:p + 1])
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
        self.n = whole_number(n, "n", 1)
        self.level_sizes = [whole_number(s, "a level size", 1)
                            for s in level_sizes]
        # per level, the cumulative symbol law under each upper tuple
        self.cum = [np.cumsum(law, axis=-1) for law in laws]
        self.copies = whole_number(copies, "copies", 1)
        self.root_seed = whole_number(root_seed, "root_seed", 0)
        self.trials = np.array([whole_number(t, "a trial", 0)
                                for t in np.atleast_1d(trials).tolist()],
                               dtype=np.int64)
        # per (level, copy), the small tables drawn, by (trial, *upper)
        self._cache: dict[tuple, dict[tuple, np.ndarray]] = {}
        # the one generator of the stack's seeded draws: each draw assigns
        # it the state of its stream (see _tables) first
        self.rng = np.random.Generator(np.random.PCG64(0))
        # per copy, the top level's seeded states, kept for later draws
        self._states: dict[int, dict[tuple, dict]] = {}

    def copy_for_block(self, block: int) -> int:
        return (block - 1) % self.copies

    def rows(self, level: int, copy: int, upper: tuple[int, ...] = (),
             trial: int | None = None) -> np.ndarray:
        """All codewords of ``level`` under the given upper-level indices,
        in ``trial`` (default: the stack's first): a one-trial read of
        :meth:`row`'s whole tables."""
        trial = self.trials[0] if trial is None else trial
        return self._tables(level, copy, np.array([trial], dtype=np.int64),
                            [np.array([u], dtype=np.int64) for u in upper])[0]

    def _tables(self, level: int, copy: int, trials: np.ndarray,
                cols: list[np.ndarray]) -> list[np.ndarray]:
        """The (C, n) table of ``level`` under the upper indices ``cols``
        (one (T,) column per level above) in each of ``trials``.

        The distinct tables not cached are seeded by one ``pcg_states``
        call (at the top level, for every trial of the stack, once: the
        states are kept) and drawn by ``random`` into one buffer, with
        one :func:`inverse_cdf` per block of whole tables under
        ``ROWS_DRAW_BYTES`` (or of rows of a table over it).  Tables up to
        ``CACHED_TABLE_BYTES`` are kept; a larger one is drawn again if
        read again, with the same bytes.
        """
        keys = list(zip(trials.tolist(), *(c.tolist() for c in cols)))
        cache = self._cache.setdefault((level, copy), {})
        new = [k for k in dict.fromkeys(keys) if k not in cache]
        if not new:
            return [cache[k] for k in keys]
        top = level == len(self.level_sizes) - 1
        seeded = self._states.setdefault(copy, {}) if top else {}
        if any(k not in seeded for k in new):
            fresh = [k for k in dict.fromkeys(
                new + [(t,) for t in self.trials.tolist() if top])
                if k not in seeded]
            at = np.array(fresh, dtype=np.int64).reshape(len(fresh), -1)
            seeded.update(zip(fresh, pcg_states(
                self.root_seed,
                (at[:, 0], STREAM_CODEBOOK, level, copy, *at[:, 1:].T))))
        states = [seeded[k] for k in new]
        # each table's rows of the levels above, as (K, 1, n) symbols
        at = np.array(new, dtype=np.int64).reshape(len(new), -1)
        above = tuple(np.array([table[w] for table, w in zip(
            self._tables(level + 1 + d, copy, at[:, 0], list(at[:, d + 2:].T)),
            at[:, d + 1].tolist())])[:, None] for d in range(len(cols)))
        K, size, n = len(new), self.level_sizes[level], self.n
        tables = np.empty((K, size, n), dtype=np.int8)
        per = max(1, ROWS_DRAW_BYTES // (8 * size * n))
        step = -(-size // max(1, -(-8 * size * n // ROWS_DRAW_BYTES)))
        buf = np.empty((min(per, K), step, n))
        for i in range(0, K, per):
            for j in range(0, size, step):
                u = buf[:min(per, K - i), :min(step, size - j)]
                for k, state in enumerate(states[i:i + per]):
                    if j == 0:      # a table over the cap goes on drawing
                        self.rng.bit_generator.state = state
                    self.rng.random(out=u[k])
                inverse_cdf(u, self.cum[level], tables[i:i + per, j:j + step],
                            tuple(a[i:i + per] for a in above))
        if tables[0].nbytes > CACHED_TABLE_BYTES:
            cache = {}
        cache.update(zip(new, tables))
        return [cache[k] for k in keys]

    def row(self, level: int, copy: int, upper: tuple, index,
            trials: np.ndarray | None = None, above: tuple = ()) -> np.ndarray:
        """Codeword ``index`` of the slice under ``upper`` in each of
        ``trials`` (default: the stack's), as (T, n) int8.

        ``index`` and each ``upper`` entry give one value per trial: an int
        for all of them or a sequence of T ints; ``trials`` may repeat a
        trial, one read per (trial, candidate) pair.  A ``None`` index
        reads each trial's whole table, as (T, C, n), and a row of a
        top-level table small enough to cache is read from the table.
        Every other read is drawn from the slices' streams by
        :func:`uniforms` gathers keyed by trial, each from its own row's
        start.  The rows of the levels above, which the symbols are drawn
        under, are read the same way, but for the first ones that ``above``
        gives: (T, n) rows the caller already holds, of the codewords
        ``upper`` addresses.
        """
        trials = self.trials if trials is None else np.asarray(trials)
        T = trials.size
        if any(u is None for u in upper):
            raise ValueError("upper entries must be indices, not None")
        cols = [np.broadcast_to(np.asarray(u, dtype=np.int64), (T,))
                for u in upper]
        if index is None:
            tables = self._tables(level, copy, trials, cols)
            # one trial's table is handed over as it is, not copied
            return tables[0][None] if T == 1 else np.array(tables)
        index = np.broadcast_to(np.asarray(index, dtype=np.int64), (T,))
        if not upper and self.level_sizes[level] * self.n \
                <= CACHED_TABLE_BYTES:
            return np.array(self._tables(level, copy, trials, cols))[
                np.arange(T), index]
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
