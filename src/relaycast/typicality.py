"""Robust typicality, typical-set source codebooks, and random binning.

Robust typicality with slack ``epsilon``: a tuple of length-n sequences is
typical for a reference joint iff for every cell

    |count(cell) - n * p(cell)| <= epsilon * n * p(cell) + ABS_SLACK

which in particular forces count = 0 wherever p = 0.  The tiny absolute
slack only guards float round-off on the scaled bound.

The source codebook is the exact enumerated typical set (dense indexing in
place of random i.i.d. codeword generation: at desk scale the random
construction wastes mass on duplicate and atypical words while only typical
outcomes are ever indexed, so enumeration preserves the scheme).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateTypicalSet,
    LengthMismatch,
    TooLarge,
    UnknownVariable,
)
from .pmf import JointPmf
# child_rng is unused here but stays bound: perfbench's tracer patches it
from .seeds import STREAM_BINS, child_rng, pcg_states  # noqa: F401

#: Absolute float-guard slack on the scaled count bound.
ABS_SLACK = 1e-9

#: Enumeration cap: neither |alphabet|^m nor a bin count may exceed this.
ENUMERATION_CAP = 2 ** 20

#: Largest alphabet the int8 symbol storage holds (symbols 0..127).
MAX_ALPHABET = 128

#: Working-memory cap of one :meth:`TypicalityTest.check_batch` pass, in
#: bytes, counted as one int64 word per candidate position and per cell.
#: Larger batches are checked in chunks; criterion 6's batches (4096
#: candidates, n=24, 4 cells) fit in one.
CHECK_BATCH_BYTES = 2 ** 20

#: Size rule between the two count forms of ``check_batch``, in candidate
#: symbols (C x n) per cell.  The bincount form builds C x n and C x cells
#: int64 arrays in a fixed dozen numpy calls; the cell-by-cell form builds
#: only int8, bool and narrow count arrays but pays a few numpy calls per
#: cell.  On a 2-vCPU x86 VM (numpy 2.4) the two broke even between 400
#: and 1,500 symbols per cell.  At C=4096, n=24, 4 cells (criterion 6) the
#: cell form took 0.12 ms against 1.1 ms; at C=128, n=7, 8 cells (the
#: backward scheme's largest batch) the bincount form took a third of the
#: cell form's time.
CELLWISE_SYMBOLS_PER_CELL = 1024


def count_bounds(probs: np.ndarray, n: int,
                 epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper admissible cell counts for robust typicality."""
    target = n * probs
    lo = target - epsilon * target - ABS_SLACK
    hi = target + epsilon * target + ABS_SLACK
    return lo, hi


def all_sequences(alphabet: int, m: int) -> np.ndarray:
    """All length-m words over {0..alphabet-1}, lexicographic, shape (A^m, m)."""
    if alphabet > MAX_ALPHABET:
        raise TooLarge(f"alphabet of {alphabet} symbols exceeds the int8 "
                       f"symbol storage ({MAX_ALPHABET})")
    total = alphabet ** m
    if total > ENUMERATION_CAP:
        raise TooLarge(
            f"{alphabet}^{m} = {total} sequences exceed cap {ENUMERATION_CAP}")
    return digits(np.arange(total), (alphabet,) * m).T


def digits(flat: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """The mixed-radix digits of the indices ``flat`` over ``sizes``, most
    significant first, as (len(sizes), *flat.shape) int8."""
    out = np.empty((len(sizes),) + flat.shape, dtype=np.int8)
    for axis in range(len(sizes) - 1, -1, -1):
        flat, _ = np.divmod(flat, sizes[axis], out=(None, out[axis]))
    return out


@dataclass(frozen=True)
class SourceCodebook:
    """Enumerated epsilon-typical set of the source marginal.

    ``sequences[w]`` is codeword w (0-based; the schedules' padding index "1"
    is row 0).  M is the codebook size.
    """

    m: int
    epsilon: float
    alphabet: int
    sequences: np.ndarray = field(repr=False)

    @property
    def M(self) -> int:
        return self.sequences.shape[0]


def build_typical_source_codebook(source_marginal: JointPmf | np.ndarray,
                                  m: int, epsilon: float) -> SourceCodebook:
    """Enumerate every length-m sequence that is robustly typical for the
    (single-variable) source marginal, in lexicographic order."""
    if isinstance(source_marginal, JointPmf):
        if len(source_marginal.variables) != 1:
            raise UnknownVariable("source marginal must be a single variable")
        marginal = source_marginal
    else:
        probs = np.asarray(source_marginal, dtype=np.float64).reshape(-1)
        marginal = JointPmf(("S",), (probs.size,), probs)
    seqs = all_sequences(marginal.sizes[0], m)
    test = TypicalityTest(marginal, marginal.variables, m, epsilon)
    typical = seqs[test.check_batch(seqs, test.flatten([]))]
    if typical.shape[0] == 0:
        raise DegenerateTypicalSet(
            f"no length-{m} sequence is typical at epsilon={epsilon}")
    return SourceCodebook(m=m, epsilon=epsilon, alphabet=marginal.sizes[0],
                          sequences=np.ascontiguousarray(typical))


@dataclass(frozen=True)
class BinAssignment:
    """Random uniform partition of codebook indices into 2^ceil(m*R) bins."""

    terminal: int
    rate: float                # bits per source symbol
    num_bins: int
    map: np.ndarray = field(repr=False)   # codebook index -> bin (0-based)
    seed: int


def num_bins_for_rate(m: int, rate: float) -> int:
    """2^ceil(m * rate), with a round-off guard on exact integers.

    Rejects a negative rate and bin counts beyond ``ENUMERATION_CAP``.
    """
    if not rate >= 0:
        raise TooLarge(f"bin rate must be >= 0, got {rate}")
    bits = m * rate - 1e-12
    # compare exponents: a huge rate must not build the huge integer first
    if bits > math.log2(ENUMERATION_CAP):
        raise TooLarge(f"bin rate {rate} at m={m} gives more than "
                       f"{ENUMERATION_CAP} bins")
    return 2 ** max(0, math.ceil(bits))


def draw_bin_maps(out: np.ndarray, num_bins: int, seed: int, path: tuple,
                  rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform bins below ``num_bins``, a power of two, into each
    row of ``out`` (S, M): row k is what numpy's ``integers(0, num_bins,
    M)`` draws from stream k of ``path`` under ``seed`` (as in
    :func:`~relaycast.seeds.pcg_states`).

    For 2^k bins numpy's bounded integers keep the top k bits of each
    32-bit half of a raw word, low half first: Lemire's multiply-shift
    rule never rejects on a power-of-two range, and NEP 19 fixes
    ``PCG64``'s words (``tests/test_typicality.py`` pins the rule).  So
    ``rng`` draws ceil(M/2) raw words from each stream's seeded state, and
    one bin draws nothing.
    """
    bits = num_bins.bit_length() - 1
    if not bits:
        out[...] = 0
        return out
    words = np.empty((out.shape[0], -(-out.shape[1] // 2)), dtype="<u8")
    for k, state in enumerate(pcg_states(seed, path)):
        rng.bit_generator.state = state
        words[k] = rng.bit_generator.random_raw(words.shape[1])
    out[...] = words.view("<u4")[:, :out.shape[1]] >> (32 - bits)
    return out


def assign_bins(codebook: SourceCodebook, rate: float, seed: int,
                terminal: int = 1, trial: int | None = None) -> BinAssignment:
    """i.i.d. uniform bin assignment for every codebook sequence.

    The map is drawn from the stream ``(seed, STREAM_BINS, terminal)``, or
    from ``(seed, trial, STREAM_BINS, terminal)`` when a simulator redraws
    it per trial, so distinct terminals get independent assignments.
    """
    num_bins = num_bins_for_rate(codebook.m, rate)
    path = (() if trial is None else (trial,)) + (np.array([STREAM_BINS]),
                                                  terminal)
    mapping = draw_bin_maps(np.empty((1, codebook.M), dtype=np.int64),
                            num_bins, seed, path,
                            np.random.Generator(np.random.PCG64(0)))[0]
    return BinAssignment(terminal=terminal, rate=rate, num_bins=num_bins,
                         map=mapping, seed=seed)


# ---------------------------------------------------------------------------
# Joint typicality of labelled sequence tuples
# ---------------------------------------------------------------------------

def joint_typicality(sequences: Mapping[str, Sequence[int] | np.ndarray],
                     reference: JointPmf, epsilon: float) -> bool:
    """True iff the tuple's empirical joint is robustly typical for the
    reference marginal on the given labels."""
    labels = tuple(sequences.keys())
    if not labels:
        raise UnknownVariable("no sequences given")
    arrays = [np.asarray(sequences[v], dtype=np.int64) for v in labels]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise LengthMismatch("sequences must share one length")
    test = TypicalityTest(reference, labels, n, epsilon)
    for a, size in zip(arrays, test.sizes):
        if a.min() < 0 or a.max() >= size:
            raise LengthMismatch(f"symbol out of range for alphabet {size}")
    return bool(test.check_batch(arrays[0][None], test.flatten(arrays[1:]))[0])


class TypicalityTest:
    """Precompiled robust-typicality test against one reference marginal.

    Used in simulator hot loops: the reference cell probabilities, strides
    and count bounds are computed once; candidates are checked in batches.
    The first ``lead`` labels form the candidate group (the rows that vary
    per decoding candidate); the rest are fixed within one check.
    """

    def __init__(self, reference: JointPmf, labels: Sequence[str], n: int,
                 epsilon: float, lead: int = 1):
        marg = reference.marginalize(labels)
        probs = np.transpose(marg.probs,
                             [marg.variables.index(v) for v in labels])
        self.labels = tuple(labels)
        self.sizes = probs.shape
        self.ncells = int(np.prod(self.sizes))
        self.lead = lead
        self.tail = int(np.prod(self.sizes[lead:]))
        self.n = n
        self.lo, self.hi = count_bounds(probs.reshape(-1), n, epsilon)

    def stage(self, first: int) -> TypicalityTest:
        """The screen on lead labels ``first``..``lead - 1`` and the rest.

        Its bound on a cell is this test's bounds on the cells it sums,
        rounded to the whole counts they admit, summed over the lead labels
        before ``first`` and widened by 1/2.  Counts are whole numbers, so
        every tuple this test passes passes each stage; stage 0 is this
        test itself.
        """
        if first == 0:
            return self
        stage = copy.copy(self)
        stage.labels = self.labels[first:]
        stage.sizes = self.sizes[first:]
        stage.ncells = int(np.prod(stage.sizes))
        stage.lead = self.lead - first
        stage.lo = np.ceil(self.lo).reshape(-1, stage.ncells).sum(0) - 0.5
        stage.hi = np.floor(self.hi).reshape(-1, stage.ncells).sum(0) + 0.5
        return stage

    def flatten(self, rows: Sequence[np.ndarray]) -> np.ndarray:
        """Mixed-radix index per position over the labels after the lead."""
        flat = np.zeros(self.n, dtype=np.int64)
        for row, size in zip(rows, self.sizes[self.lead:]):
            flat = flat * size + row
        return flat

    def check_batch(self, candidates: np.ndarray,
                    fixed_flat: np.ndarray) -> np.ndarray:
        """Boolean mask over candidate lead-group rows.

        ``candidates`` is an integer array of shape (C, n), int8 tables
        included, that already carries the mixed-radix index over the lead
        labels; ``fixed_flat`` indexes the remaining labels per position
        (from :meth:`flatten`): (n,) for every candidate, or (G, n) with
        row g for the g-th of G equal runs of consecutive candidates (one
        run per trial when a chunk of trials is checked at once, one per
        candidate when each has its own row).  Two or more rows are folded
        into their runs' candidate index, which then counts every cell
        against one all-zero row.  Candidates are checked in chunks under
        ``CHECK_BATCH_BYTES``; no candidates give an empty mask, and C not
        a multiple of G raises ``ValueError``.
        """
        c = candidates.shape[0]
        if c == 0:
            return np.zeros(0, dtype=bool)
        if fixed_flat.ndim == 2 and (fixed_flat.shape[0] == 0
                                     or c % fixed_flat.shape[0]):
            raise ValueError(f"{c} candidates do not split into "
                             f"{fixed_flat.shape[0]} equal runs")
        if fixed_flat.ndim == 2 and fixed_flat.shape[0] == 1:
            fixed_flat = fixed_flat[0]
        tail = self.tail
        if fixed_flat.ndim == 2:
            # rows are cast first: an int64 add costs about twice as much
            cell_type = np.min_scalar_type(-self.ncells)
            candidates = np.multiply(candidates, tail, dtype=cell_type)
            candidates.reshape(fixed_flat.shape[0], -1, self.n)[...] += \
                fixed_flat.astype(cell_type)[:, None]
            fixed_flat, tail = np.zeros(self.n, dtype=np.int64), 1
        step = max(1, CHECK_BATCH_BYTES // (8 * (self.n + self.ncells)))
        if c <= step:
            return self._check(candidates, fixed_flat, tail)
        return np.concatenate([
            self._check(candidates[i:i + step], fixed_flat, tail)
            for i in range(0, c, step)])

    def _check(self, candidates: np.ndarray, fixed_flat: np.ndarray,
               tail: int) -> np.ndarray:
        """One chunk of :meth:`check_batch`, whose candidates' index
        counts cells in steps of ``tail`` against the shared fixed row, by
        the form that ``CELLWISE_SYMBOLS_PER_CELL`` picks for the chunk's
        size."""
        c = candidates.shape[0]
        if c * self.n < CELLWISE_SYMBOLS_PER_CELL * self.ncells:
            idx = np.multiply(candidates, tail, dtype=np.int64)
            idx += fixed_flat
            idx += np.arange(c, dtype=np.int64)[:, None] * self.ncells
            counts = np.bincount(idx.reshape(-1), minlength=c * self.ncells)
            counts = counts.reshape(c, self.ncells)
            return ((counts >= self.lo) & (counts <= self.hi)).all(axis=1)
        ok = np.ones(c, dtype=bool)
        count_type = np.min_scalar_type(self.n)
        for tail_value in range(tail):
            # (positions whose fixed labels take this value, C)
            column = candidates.T[fixed_flat == tail_value]
            for lead_value in range(self.ncells // tail):
                cell = lead_value * tail + tail_value
                count = (column == lead_value).sum(axis=0, dtype=count_type)
                ok &= (count >= self.lo[cell]) & (count <= self.hi[cell])
        return ok
