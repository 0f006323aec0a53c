"""Nested superposition channel codebooks, materialized lazily.

Level P-1 (the last cooperating relay) owns the top codebook x(w); each
lower level p owns conditionally i.i.d. codewords x(w | upper indices) drawn
per symbol from its conditional input law given the realized upper-level
codeword symbols.  ``copies`` independent regenerations of the whole stack
are cycled by block index.

Codewords are pure functions of (root seed, trial, level, copy, upper
indices), so any access order and any parallel schedule reproduce the same
codebooks; a per-trial cache avoids regeneration.  Every slice is one
``child_rng`` stream, read in only two ways: whole from its start by
``rows``, or one row from many sibling slices at once by ``row`` through
:func:`~relaycast.seeds.uniforms`, which reproduces those streams bit for
bit (pinned against the installed numpy by ``tests/test_seeds.py``), so a
gathered row is exactly the row of the materialized table.
"""

from __future__ import annotations

import numpy as np

from .pmf import JointPmf
from .seeds import STREAM_CODEBOOK, child_rng, uniforms

#: Largest uniform block :meth:`ChannelCodebookStack.rows` draws at once, in
#: bytes (float64).  Blocks of whole rows come from the slice's one
#: generator in order, so the table does not depend on this cap.  Criterion
#: 6's 2^12 x 24 table (786 KB of uniforms) stays one draw: splitting it
#: into 256 KB blocks cost 2% per table serially but slowed the two-thread
#: point-to-point pass by a fifth (2-vCPU x86 VM, numpy 2.4).
ROWS_DRAW_BYTES = 2 ** 20


def inverse_cdf(u: np.ndarray, cum: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Symbol drawn by each uniform in ``u`` from its cumulative law: the
    number of entries of ``cum`` (symbols along the last axis, the other
    axes broadcast against ``u``) that the uniform exceeds.

    One compare per symbol is added into a small-integer accumulator, so no
    (..., symbols) temporary is built.  The last ``cum`` entry stays in the
    loop: it can round to just under 1, and a uniform above it then counts
    past the last symbol, exactly as ``(u[..., None] > cum).sum(-1)`` does.
    ``out``, of ``u``'s shape, receives the symbols in place of a new array.
    """
    symbols = cum.shape[-1]
    if out is None:
        out = np.zeros(u.shape, dtype=np.int8 if symbols < 128 else np.int64)
    else:
        out[...] = 0
    for a in range(symbols):
        out += u > cum[..., a]
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
    """Lazily generated codeword tables for one trial.

    ``level_sizes[p]`` is the number of codeword indices at level p and
    ``laws[p]`` the conditional symbol law from
    :func:`conditional_input_laws`.  ``rows(p, copy, upper)`` returns the
    full (level_sizes[p], n) int8 table for one tuple of upper indices;
    ``row`` serves every partial read.
    """

    def __init__(self, n: int, level_sizes: list[int],
                 laws: list[np.ndarray], copies: int, root_seed: int,
                 trial: int):
        self.n = int(n)
        self.level_sizes = [int(s) for s in level_sizes]
        self.laws = laws
        self.copies = max(1, int(copies))
        self.root_seed = int(root_seed)
        self.trial = int(trial)
        self.num_levels = len(level_sizes)
        self._cache: dict[tuple, np.ndarray] = {}     # whole slices
        self._row_cache: dict[tuple, np.ndarray] = {}  # gathers

    def copy_for_block(self, block: int) -> int:
        return (block - 1) % self.copies

    def _symbol_cdf(self, level: int, copy: int, upper: tuple,
                    C: int = 0) -> np.ndarray:
        """Per-position cumulative symbol law under the upper codewords,
        (n, symbols); (C, n, symbols) when one ``upper`` entry is ``None``
        and ranges over the indices 0..C-1."""
        law = self.laws[level]
        if law.ndim == 1:
            cond = np.broadcast_to(law, (self.n, law.size))
        else:
            upper_rows = [self.row(level + 1 + d, copy, upper[d + 1:],
                                   upper[d], C)
                          for d in range(self.num_levels - level - 1)]
            cond = law[tuple(upper_rows)]    # (n | C, n, own_alphabet)
        return np.cumsum(cond, axis=-1)

    def rows(self, level: int, copy: int,
             upper: tuple[int, ...] = ()) -> np.ndarray:
        """All codewords of ``level`` under the given upper-level indices."""
        key = (level, copy, upper)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        cum = self._symbol_cdf(level, copy, upper)
        rng = child_rng(self.root_seed, self.trial, STREAM_CODEBOOK,
                        level, copy, *upper)
        size = self.level_sizes[level]
        table = np.empty((size, self.n), dtype=np.int8)
        blocks = max(1, -(-size * self.n * 8 // ROWS_DRAW_BYTES))
        step = -(-size // blocks)
        for i in range(0, size, step):
            block = table[i:i + step]
            inverse_cdf(rng.random(block.shape), cum, out=block)
        self._cache[key] = table
        return table

    def row(self, level: int, copy: int, upper: tuple, index: int | None,
            C: int = 0) -> np.ndarray:
        """Codeword ``index`` of the slice under ``upper``, as (n,) int8.

        When ``index`` or one ``upper`` entry is ``None``, that entry ranges
        over the indices 0..C-1 and the result is the (C, n) int8 rows it
        addresses: rows 0..C-1 of the slice, or row ``index`` of each of C
        sibling slices, drawn from their streams by one :func:`uniforms`
        gather.
        """
        if None not in upper:
            table = self.rows(level, copy, upper)
            return table[:C] if index is None else table[index]
        key = (level, copy, upper, index, C)
        rows = self._row_cache.get(key)
        if rows is not None:
            return rows
        varying = level + 1 + upper.index(None)
        if not 0 < C <= self.level_sizes[varying]:
            raise ValueError(f"C={C} outside 1..{self.level_sizes[varying]}, "
                             f"the indices of level {varying}")
        cum = self._symbol_cdf(level, copy, upper, C)
        path = (self.trial, STREAM_CODEBOOK, level, copy) + tuple(
            np.arange(C) if u is None else u for u in upper)
        u = uniforms(self.root_seed, path, index * self.n, self.n)
        rows = inverse_cdf(u, cum).astype(np.int8, copy=False)
        self._row_cache[key] = rows
        return rows
