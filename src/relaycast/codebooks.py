"""Nested superposition channel codebooks, materialized lazily.

Level P-1 (the last cooperating relay) owns the top codebook x(w); each
lower level p owns conditionally i.i.d. codewords x(w | upper indices) drawn
per symbol from its conditional input law given the realized upper-level
codeword symbols.  ``copies`` independent regenerations of the whole stack
are cycled by block index.

Codewords are pure functions of (root seed, trial, level, copy, upper
indices), so any access order and any parallel schedule reproduce the same
codebooks; a per-trial cache avoids regeneration.
"""

from __future__ import annotations

import numpy as np

from .pmf import JointPmf
from .seeds import STREAM_CODEBOOK, child_rng


def inverse_cdf(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Symbol drawn by each uniform in ``u`` from its cumulative law: the
    number of entries of ``cum`` (symbols along the last axis, the other
    axes broadcast against ``u``) that the uniform exceeds.

    One compare per symbol is added into a small-integer accumulator, so no
    (..., symbols) temporary is built.  The last ``cum`` entry stays in the
    loop: it can round to just under 1, and a uniform above it then counts
    past the last symbol, exactly as ``(u[..., None] > cum).sum(-1)`` does.
    """
    symbols = cum.shape[-1]
    out = np.zeros(u.shape, dtype=np.int8 if symbols < 128 else np.int64)
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
    full (level_sizes[p], n) int8 table for one tuple of upper indices.
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
        self._cache: dict[tuple, np.ndarray] = {}
        self._row_cache: dict[tuple, np.ndarray] = {}

    def copy_for_block(self, block: int) -> int:
        return (block - 1) % self.copies

    def _symbol_cdf(self, level: int, copy: int,
                    upper: tuple[int, ...]) -> np.ndarray:
        """Per-position cumulative symbol law under the upper codewords."""
        law = self.laws[level]
        if law.ndim == 1:
            cond = np.broadcast_to(law, (self.n, law.size))
        else:
            upper_rows = [
                self.row(level + 1 + d, copy, upper[d + 1:], upper[d])
                for d in range(self.num_levels - level - 1)
            ]
            cond = law[tuple(upper_rows)]          # (n, own_alphabet)
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
        u = rng.random((self.level_sizes[level], self.n))
        table = inverse_cdf(u, cum).astype(np.int8, copy=False)
        self._cache[key] = table
        return table

    def row(self, level: int, copy: int, upper: tuple[int, ...],
            index: int) -> np.ndarray:
        """Codeword ``index`` of one slice without materializing the table.

        The slice consumes one uniform draw per cell in row-major order, so
        advancing the generator by index * n and drawing n uniforms yields
        exactly the row that ``rows()`` would produce (pinned by a test).
        """
        key = (level, copy, upper)
        cached = self._cache.get(key)
        if cached is not None:
            return cached[index]
        rkey = (level, copy, upper, index)
        row = self._row_cache.get(rkey)
        if row is not None:
            return row
        size = self.level_sizes[level]
        if size * self.n <= 4096:      # small slices: materialize once
            return self.rows(level, copy, upper)[index]
        cum = self._symbol_cdf(level, copy, upper)
        rng = child_rng(self.root_seed, self.trial, STREAM_CODEBOOK,
                        level, copy, *upper)
        rng.bit_generator.advance(index * self.n)
        row = inverse_cdf(rng.random(self.n), cum).astype(np.int8, copy=False)
        self._row_cache[rkey] = row
        return row
