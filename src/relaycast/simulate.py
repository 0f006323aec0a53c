"""Monte-Carlo execution of the decode-and-forward protocols at desk scale.

Both decode-and-forward schemes send one block-Markov superposition code
under two schedules, and single-hop transmission is the one-block, no-relay
case of either:

* ``simulate_ptp``: single-hop transmission with tunable source binning and
  either the joint decoder (channel typicality and side-information
  typicality resolved together) or the separate two-stage decoder; it runs
  as the K=0, B=1 backward schedule.
* ``simulate_sliding_window``: block-Markov regular encoding without
  explicit binning; every cooperating terminal decodes each source block by
  joint typicality over a sliding window of received blocks.
* ``simulate_backward``: semi-regular encoding with per-terminal binning
  and nested backward decoding (K <= 2).

Each simulator checks its inputs and picks a schedule, bins and a decoding
rule.  The schedule is a :class:`~relaycast.schedules.Schedule` from
:mod:`relaycast.schedules`, the same object the ``--dry-run`` table prints.
One trial engine, :class:`_Engine`, runs every trial and one array rule,
:func:`_settle`, settles a decode for many trials.  Every trial redraws the
bin assignments and channel codebooks from its own seed streams, so the
empirical error rate estimates the random-coding ensemble average.
Decoding ties (zero or multiple surviving candidates) count as errors, and
trials whose source realization falls outside the typical set are errors
by construction.

The engine runs trials in lockstep chunks: a chunk walks the schedule block
by block, and each short stream is read once for the whole chunk by a
:func:`~relaycast.seeds.uniforms` gather keyed by trial (source blocks,
channel noise, partial reads of lower codebook levels).  Each decoding
window tests its candidates' levels one at a time, top level first, with
one ``check_batch`` call per level and group of trials: the top level's
rows are its whole tables, and a lower level's rows are gathered only for
the (trial, candidate) pairs that the levels above passed.  A tuple that is
robustly typical has sub-tuples that pass the summed cell bounds of
:meth:`~relaycast.typicality.TypicalityTest.stage`, so the screens drop
only candidates the full test rejects.  Whole codeword tables, which also
serve the rows of a small top level, are drawn by numpy's ``random``, and
bin maps by :func:`~relaycast.typicality.draw_bin_maps`, the rule
``assign_bins`` draws by, from states that
:func:`~relaycast.seeds.pcg_states` seeds for many trials at once (see
:mod:`relaycast.seeds` for why).  Streams are addressed by their paths, not
by the order they are read, so results do not depend on the chunking.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from . import codebooks, network
from .codebooks import (
    ChannelCodebookStack,
    conditional_input_laws,
    inverse_cdf,
)
from .errors import BTooSmall, PlanMismatch, SchemaError, TooLarge
from .network import (
    NetworkSpec,
    input_label,
    output_label,
    source_label,
    whole_number,
)
from .pmf import JointPmf
from .rates import MODE_SINGLE, CooperationPlan, validate_plan
from .schedules import Decode, Schedule, backward_schedule, sliding_schedule
# child_rng is unused here but stays bound: perfbench's tracer patches it
from .seeds import (  # noqa: F401
    STREAM_BINS,
    STREAM_CHANNEL,
    STREAM_SOURCE,
    check_seed,
    child_rng,
    uniforms,
)
from .typicality import (
    MAX_ALPHABET,
    TypicalityTest,
    build_typical_source_codebook,
    digits,
    draw_bin_maps,
    num_bins_for_rate,
)

T = TypeVar("T")
U = TypeVar("U")

__all__ = [
    "SimResult",
    "simulate_ptp",
    "simulate_sliding_window",
    "simulate_backward",
    "blocklength_for_scale",
]

#: Desk-scale cap, in cells, on one codeword table (codewords x n) and on
#: one channel block (n positions x the joint output alphabet: the
#: cumulative laws the channel sampler gathers per block).  Larger requests
#: raise :class:`TooLarge` before the first trial.  The largest table the
#: tests and the benchmark build is criterion 6's 4096 x 24.
MAX_CELLS = 2 ** 22


@dataclass(frozen=True)
class SimResult:
    """Empirical error probability with per-terminal breakdown."""

    trials: int
    errors_total: int
    per_terminal_errors: dict[int, int]
    config: dict[str, Any] = field(default_factory=dict)

    @property
    def p_e(self) -> float:
        return self.errors_total / self.trials if self.trials else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "trials": self.trials,
            "errors_total": self.errors_total,
            "p_e": self.p_e,
            "per_terminal_errors": {
                str(k): self.per_terminal_errors[k]
                for k in sorted(self.per_terminal_errors)
            },
            "config": self.config,
        }


def blocklength_for_scale(m: int, r_star: float, scale: float) -> int:
    """Channel block length n so that m/n sits at ``scale`` times r_star.

    Below threshold (scale <= 1) rounds n up, keeping the operating rate at
    or under the target; above threshold rounds n down, keeping it at or
    over.  Block-edge factors of the schedules are ignored here.  Raises
    :class:`SchemaError` when ``scale`` is not finite or m/(scale r_star)
    is not a finite positive number.
    """
    raw = m / (scale * r_star) if scale * r_star > 0 else math.inf
    if not (math.isfinite(scale) and math.isfinite(raw)):
        raise SchemaError(f"no finite block length for m={m} at "
                          f"{scale!r} x r*={r_star!r}")
    if scale <= 1.0:
        return max(1, math.ceil(raw - 1e-9))
    return max(1, math.floor(raw + 1e-9))


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------

def parallel_map(fn: Callable[[T], U], items: Sequence[T],
                 workers: int = 1) -> list[U]:
    """Order-preserving map over chunks of trials; thread pool when
    workers > 1.

    Threads can pay only where a chunk spends most of its time in numpy
    calls that release the GIL, as in the point-to-point scheme, and only
    on a host that runs two threads at once: at m=12, n=24 (400 trials at
    each of its two points) on a 2-vCPU VM that did not always do so, a
    pass took a median 1.05 and 0.94 s serially against 0.99 and 0.91 s on
    two threads in two rounds of 12 alternating pairs, serial slower in 7
    of 12 each time, at 1.16-1.22x the CPU time (README, ``--workers``).
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


class _SourceSampler:
    """Draws blocks of the (S_0..S_{K+L}) joint, one row per terminal."""

    def __init__(self, sources: JointPmf):
        self.sizes = sources.sizes
        self.cum = np.cumsum(sources.probs.reshape(-1))

    def draw(self, u: np.ndarray) -> np.ndarray:
        """The symbols that the uniforms ``u`` draw, as
        (variables, *u.shape) int8."""
        return digits(np.searchsorted(self.cum, u, side="right"), self.sizes)


class _ChannelSampler:
    """Samples the memoryless channel for whole blocks."""

    def __init__(self, spec: NetworkSpec):
        n_in = int(np.prod(spec.input_sizes))
        self.out_sizes = spec.output_sizes
        n_out = int(np.prod(self.out_sizes))
        self.cum = np.cumsum(spec.channel.probs.reshape(n_in, n_out), axis=1)
        strides = []
        acc = 1
        for size in reversed(spec.input_sizes):
            strides.append(acc)
            acc *= size
        self.in_strides = list(reversed(strides))

    def sample(self, in_idx: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(num_outputs, *in_idx.shape) output symbols for per-symbol input
        indices, drawn by the uniforms ``u`` of ``in_idx``'s shape."""
        return digits(inverse_cdf(u, self.cum, at=(in_idx,)), self.out_sizes)


def _settle(survivors: np.ndarray, bin_maps: np.ndarray | None, joint: bool,
            side_typical: Callable[..., np.ndarray]) -> np.ndarray:
    """The codebook index each of S decoders settles on, as (S,) int64, or
    -1 (a decoding error).

    ``survivors`` (S, C) marks each trial's bins that pass the channel stage
    and ``bin_maps`` (S, M) its bin per codebook index (None: the identity).
    The joint rule needs exactly one surviving bin that holds exactly one
    sequence typical with the side information; the separate rule needs
    exactly one surviving bin, then exactly one side-typical sequence in
    it.  ``side_typical`` checks (trial, codebook index) pairs, once: the
    members of the surviving bins of the trials the rule can settle.
    """
    S, C = survivors.shape
    settled = np.full(S, -1, dtype=np.int64)
    if not joint:
        survivors = survivors & (survivors.sum(axis=1) == 1)[:, None]
    trial, member = np.nonzero(survivors if bin_maps is None else
                               np.take_along_axis(survivors, bin_maps, axis=1))
    typical = side_typical(trial, member)
    trial, member = trial[typical], member[typical]
    key = trial * C + (member if bin_maps is None else bin_maps[trial, member])
    # a typical member alone in its bin, in a trial with one such bin
    alone = np.bincount(key)[key] == 1
    won = alone & (np.bincount(trial[alone], minlength=S) == 1)[trial]
    settled[trial[won]] = member[won]
    return settled


class _Engine:
    """Every trial of one simulation, run in lockstep chunks, and what it
    builds once before the first.

    Level p of the superposition code is sent by terminal ``order[p]``
    (level 0 is the source); the terminal at plan position i >= 1 decodes
    and sends level i from its own estimates.  ``bins`` maps each bin type
    to a rate, or to None for the identity map; a level carries one
    codeword per bin of its own slot's type.  A window's candidate sits in
    slot ``first + lead - 1 - p`` of each level p it spans; every other
    slot, and every level above, holds the decoder's own estimates.
    Chunks may run on pool threads, so nothing here changes after
    construction.  A chunk holds ``trial_bytes`` per trial for its whole
    run; chunks are sized so that this stays under ``codebooks.CHUNK_BYTES``,
    with at least one chunk per worker.
    """

    def __init__(self, spec: NetworkSpec, order: Sequence[int],
                 schedule: Schedule, bins: dict[int, float | None],
                 joint: bool, m: int, n: int, epsilon: float, seed: int,
                 input_pmf: JointPmf | None):
        sizes = spec.sources.sizes + spec.input_sizes + spec.output_sizes
        if max(sizes) > MAX_ALPHABET:
            raise TooLarge(f"an alphabet of {max(sizes)} symbols exceeds the "
                           f"int8 symbol storage ({MAX_ALPHABET})")
        if n * int(np.prod(spec.output_sizes)) > MAX_CELLS:
            raise TooLarge(f"a channel block of n={n} exceeds {MAX_CELLS} "
                           f"cells")
        self.order, self.schedule, self.bins = tuple(order), schedule, bins
        self.joint, self.m, self.n, self.seed = joint, m, n, seed
        self.codebook = build_typical_source_codebook(
            spec.sources.marginalize([source_label(0)]), m, epsilon)
        self.num_bins = {t: self.codebook.M if r is None
                         else num_bins_for_rate(m, r) for t, r in bins.items()}
        self.level_bins = [args[0][1] for args in schedule.slots[1]]
        self.level_sizes = [self.num_bins[t] for t in self.level_bins]
        if max(self.level_sizes) * n > MAX_CELLS:
            raise TooLarge(f"a {max(self.level_sizes)} x {n} codeword table "
                           f"exceeds {MAX_CELLS} cells")
        # lexicographic typical set: its rows' base-A codes increase
        self.radix = self.codebook.alphabet ** np.arange(m - 1, -1, -1)
        self.codes = self.codebook.sequences @ self.radix
        labels = tuple(input_label(t) for t in self.order[:-1])
        full = spec.extend_input(input_pmf, labels)
        self.laws = conditional_input_laws(full.marginalize(labels), labels)
        # looked up on the module, where perfbench's tracer patches it
        composed = network.compose_joint(full, spec.channel)
        windows = {(ev.position, first, lead)
                   for ev in schedule.events for _, first, lead in ev.windows}
        # per window, its test's stages (TypicalityTest.stage), the full
        # test first
        self.channel_tests = {}
        for i, first, lead in windows:
            test = TypicalityTest(
                composed, labels[first:] + (output_label(self.order[i]),),
                n, epsilon, lead)
            self.channel_tests[i, first, lead] = [test.stage(s)
                                                  for s in range(lead)]
        # per window, the type of its candidates' indices over the lead
        # levels: int8 where they fit
        self.cand_types = {
            key: np.dtype(np.int8 if test.ncells // test.tail <= 128
                          else np.int64)
            for key, (test, *_) in self.channel_tests.items()}
        self.side_tests = {
            i: TypicalityTest(spec.sources, (source_label(0),
                                             source_label(self.order[i])),
                              m, epsilon)
            for i in range(1, len(self.order))}
        self.source_sampler = _SourceSampler(spec.sources)
        self.channel = _ChannelSampler(spec)
        self.strides = [self.channel.in_strides[t] for t in self.order[:-1]]
        # bytes a trial holds for its whole chunk: bin maps, a cached table
        # per level, source uniforms and a block's channel uniforms
        self.map_type = np.min_scalar_type(max(self.num_bins.values()) - 1)
        binned = sum(r is not None for r in bins.values())
        self.trial_bytes = (
            self.map_type.itemsize * self.codebook.M * binned
            + sum(c * n for c in self.level_sizes
                  if c * n <= codebooks.CACHED_TABLE_BYTES)
            + 8 * (schedule.source_blocks * m + n))

    def run(self, trials: int, workers: int, scheme: str, B: int,
            **keys: Any) -> SimResult:
        """``trials`` trials on ``workers`` threads, whose result's config
        holds the keys every scheme reports and the scheme's own ``keys``."""
        count = min(trials, max(workers, -(-trials * self.trial_bytes
                                          // codebooks.CHUNK_BYTES)))
        edges = [trials * i // count for i in range(count + 1)] if count \
            else [0]
        chunks = [range(a, b) for a, b in zip(edges, edges[1:])]
        erred = np.concatenate(
            [np.zeros((0, len(self.order) - 1), dtype=bool)]
            + parallel_map(self.chunk, chunks, workers))
        config = {"scheme": scheme, "m": self.m, "n": self.n, "B": B,
                  "trials": trials, "seed": self.seed,
                  "epsilon": float(self.codebook.epsilon),
                  "rate": self.m / self.n,
                  "codebook_size": self.codebook.M, **keys}
        return SimResult(trials=trials,
                         errors_total=int(erred.any(axis=1).sum()),
                         per_terminal_errors={
                             t: int(e) for t, e in zip(self.order[1:],
                                                       erred.sum(axis=0))},
                         config=config)

    def draw_sources(self, trials: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Source blocks 1..Q of each trial, as (num_vars, T, Q, m), and
        the codebook index of each block's S_0 row, as (T, Q + 1) (-1:
        atypical; column 0, the padding block, holds -1)."""
        Q, m = self.schedule.source_blocks, self.m
        src = self.source_sampler.draw(uniforms(
            self.seed, (trials[:, None], STREAM_SOURCE, np.arange(1, Q + 1)),
            0, m))
        code = src[0] @ self.radix
        at = np.minimum(np.searchsorted(self.codes, code), self.codes.size - 1)
        idx = np.where(self.codes[at] == code, at, -1)
        return src, np.pad(idx, ((0, 0), (1, 0)), constant_values=-1)

    def bin_maps(self, trials: np.ndarray, rng: np.random.Generator
                 ) -> dict[int, np.ndarray | None]:
        """Per bin type, each trial's bin map as (T, M) rows, or None for
        the identity map: row k is ``assign_bins``' map of ``trials[k]``,
        drawn by the same rule, ``draw_bin_maps``, with ``rng``."""
        return {t: None if r is None else draw_bin_maps(
                    np.empty((trials.size, self.codebook.M),
                             dtype=self.map_type),
                    self.num_bins[t], self.seed, (trials, STREAM_BINS, t), rng)
                for t, r in self.bins.items()}

    def chunk(self, trials: range) -> np.ndarray:
        """A chunk of trials in lockstep, as (T, decoders): whether each
        trial's decoder at plan position 1, 2, ... mis-estimates any source
        block (relays forward their own estimates)."""
        sched, n = self.schedule, self.n
        tr = np.arange(trials.start, trials.stop)
        T, everyone = tr.size, np.arange(tr.size)
        src, idx = self.draw_sources(tr)
        stack = ChannelCodebookStack(n, self.level_sizes, self.laws,
                                     sched.copies, self.seed, tr)
        maps = self.bin_maps(tr, stack.rng)
        levels = len(self.level_sizes)
        # per plan position, the codebook index of each source block it
        # sends: the source's own and the decoders' estimates (-1: atypical,
        # unknown or failed, sent as index 0, as is the padding block 0)
        est = [idx] + [np.full((T, sched.source_blocks + 1), -1,
                               dtype=np.int64) for _ in self.order[1:]]
        erred = np.zeros((T, len(self.order) - 1), dtype=bool)

        def codeword(own: np.ndarray, at: np.ndarray, block: int,
                     level: int, slot: int = -1,
                     cand: np.ndarray | None = None,
                     above: tuple = ()) -> np.ndarray:
            """``level``'s codeword in ``block`` under the estimates
            ``own`` of the trials at positions ``at``, as (S, n) rows, with
            slot ``slot`` holding the indices ``cand`` instead, one per row,
            and ``above`` the rows of the first levels above, if held;
            slot 0 with no ``cand`` reads each trial's whole table, as
            (S, C, n)."""
            vals = []
            for s, (q, t) in enumerate(sched.slots[block][level]):
                w = own[at, q]
                known = np.maximum(w, 0)
                vals.append(cand if s == slot else np.where(
                    w < 0, 0, known if maps[t] is None else maps[t][at, known]))
            # upper indices as tuples: perfbench's tracer hashes them
            return stack.row(level, stack.copy_for_block(block),
                             tuple(tuple(v.tolist()) for v in vals[1:]),
                             vals[0], tr[at], above)

        y_blocks: dict[int, np.ndarray] = {}

        def decode(ev: Decode) -> None:
            """Event ``ev`` for every trial, in spans whose bin masks and
            groups whose candidates fit under the cap: each window's channel
            test on a group's trials with candidates left, then the span's
            decisions, into ``est``; then its errors, into ``erred``."""
            own, terminal = est[ev.position], self.order[ev.position]
            side = self.side_tests[ev.position]
            # every window of an event tests one bin type's C candidates
            top = sum(ev.windows[0][1:]) - 1
            C, bin_map = self.level_sizes[top], maps[self.level_bins[top]]
            # per window, the levels above its candidates and the decoder's
            # output for every trial: the event's decisions do not move them
            fixed = [self.channel_tests[ev.position, first, lead][0].flatten(
                [codeword(own, everyone, block, p)
                 for p in range(first + lead, levels)]
                + [y_blocks[block][terminal - 1]])
                for block, first, lead in ev.windows]
            # a group holds each trial's C x n candidate indices at once
            cell = max(self.cand_types[ev.position, first, lead].itemsize
                       for _, first, lead in ev.windows)
            step = max(1, codebooks.CHUNK_BYTES // (cell * C * n))
            span = max(1, codebooks.CHUNK_BYTES // C)
            for s in range(0, T, span):
                spanned = everyone[s:s + span]
                survivors = np.ones((spanned.size, C), dtype=bool)
                for g in range(0, spanned.size, step):
                    at, hits = spanned[g:g + step], survivors[g:g + step]
                    for (block, first, lead), rows in zip(ev.windows, fixed):
                        left = hits.any(axis=1)
                        if not left.any():
                            break
                        hits[left] &= self.window(
                            ev.position, block, first, lead, codeword, own,
                            at[left], rows[at[left]])
                # the side test's one fixed label is the side row itself
                own[spanned, ev.q] = _settle(
                    survivors, None if bin_map is None else bin_map[spanned],
                    self.joint, lambda k, w: side.check_batch(
                        self.codebook.sequences[w],
                        src[terminal, spanned[k], ev.q - 1]))
            # typical-set rows are distinct, and idx is -1 for an atypical
            # block, which no decoded index matches
            got = own[:, ev.q]
            erred[:, ev.position - 1] |= (got < 0) | (got != idx[:, ev.q])

        pending = 0
        for b in sched.slots:
            in_idx = np.zeros((T, n), dtype=np.int64)
            for p, stride in zip(range(levels), self.strides):
                in_idx += codeword(est[p], everyone, b, p).astype(
                    np.int64) * stride
            y_blocks[b] = self.channel.sample(
                in_idx, uniforms(self.seed, (tr, STREAM_CHANNEL, b), 0, n))
            while (pending < len(sched.events)
                   and sched.events[pending].after == b):
                decode(sched.events[pending])
                pending += 1
        return erred

    def window(self, position: int, block: int, first: int, lead: int,
               codeword: Callable[..., np.ndarray], own: np.ndarray,
               at: np.ndarray, fixed: np.ndarray) -> np.ndarray:
        """Channel-test hits of one decoding window for the trials at
        positions ``at``, (S, C): each trial's C candidates in levels
        ``first``..``top`` against its ``fixed`` row (the flattened levels
        above and decoder output).

        The levels are tested one at a time, top first: stage p tests
        levels p..top of the candidates that stage p + 1 passed, against
        the summed bounds of :meth:`TypicalityTest.stage`, and stage
        ``first`` is the full test, so the hits are the full test's.  The
        top level's rows are each trial's whole table; a lower level's rows
        are read only for the (trial, candidate) pairs still in, each
        against its trial's ``fixed`` row, in one ``check_batch`` call per
        stage.  A level's slots are its own index followed by the slots of
        the level above (the code is superposed), so level p is drawn under
        the rows that the stages above it read, and they are handed down.
        """
        top = first + lead - 1
        C, n = self.level_sizes[top], self.n
        stages = self.channel_tests[position, first, lead]
        wide = self.cand_types[position, first, lead]
        cand = codeword(own, at, block, top, 0)
        hits = stages[-1].check_batch(cand.reshape(-1, n), fixed).reshape(-1, C)
        if lead == 1:
            return hits
        # the pairs still in, with their rows of levels p + 1..top
        trial, w = np.nonzero(hits)
        held = (cand[trial, w],)
        cand, radix = held[0], 1
        for p in range(top - 1, first - 1, -1):
            radix *= stages[0].sizes[p + 1 - first]
            rows = codeword(own, at[trial], block, p, top - p, w, held)
            cand = np.multiply(rows, radix, dtype=wide) + cand
            kept = np.flatnonzero(stages[p - first].check_batch(
                cand, fixed[trial]))
            trial, w = trial[kept], w[kept]
            if p > first:       # the next stage reads them
                cand = cand[kept]
                held = tuple(r[kept] for r in (rows,) + held)
        hits[...] = False
        hits[trial, w] = True
        return hits


def _count(value: Any, what: str, least: int) -> int:
    count = whole_number(value, what)
    if count < least:
        raise SchemaError(f"{what} must be >= {least}, got {value!r}")
    return count


def check_scheme(spec: NetworkSpec, scheme: str, B: int = 1,
                 plan: CooperationPlan | None = None, seed: int = 0,
                 m: int = 1, n: int = 1, trials: int = 0,
                 bin_rates: dict[int, float] | None = None,
                 epsilon: float = 0.0, workers: int = 1
                 ) -> tuple[int, int, int, int, int, Schedule]:
    """Raise the input error the ``scheme`` simulator raises before it
    builds anything: root ``seed``; m, n, ``B`` and ``workers`` whole
    numbers >= 1 and ``trials`` >= 0; ``epsilon`` a finite number >= 0;
    network shape, sliding ``plan`` and block count; backward
    ``bin_rates`` keys that name no decoder.  Returns (m, n, B, trials,
    workers) as ints and the run's schedule (ptp: backward, K=0, B=1)."""
    check_seed(seed)
    m, n, B, workers = (_count(v, what, 1) for v, what in (
        (m, "m"), (n, "n"), (B, "B"), (workers, "workers")))
    trials = _count(trials, "trials", 0)
    if (isinstance(epsilon, bool) or not isinstance(epsilon, (int, float))
            or not (math.isfinite(epsilon) and epsilon >= 0)):
        raise SchemaError(f"epsilon must be a finite number >= 0, "
                          f"got {epsilon!r}")
    if scheme == "ptp" and (spec.K != 0 or spec.L != 1):
        raise PlanMismatch("simulate_ptp requires K=0, L=1")
    if scheme == "sliding":
        if spec.L != 1:
            raise PlanMismatch("sliding-window simulation requires L=1")
        validate_plan(spec, plan, MODE_SINGLE)
        if B < plan.num_hops:
            raise BTooSmall(
                f"need B >= {plan.num_hops} for at least one source block")
        return m, n, B, trials, workers, sliding_schedule(plan.num_hops - 1, B)
    if scheme == "backward" and spec.L != 1:
        raise PlanMismatch("backward simulation requires L=1")
    schedule = backward_schedule(spec.K, B if scheme == "backward" else 1)
    unknown = [k for k in bin_rates or {} if k not in range(1, spec.K + 2)]
    if unknown:
        raise SchemaError(f"bin_rates keys {unknown!r} name no decoder "
                          f"(1..{spec.K + 1})")
    return m, n, B, trials, workers, schedule


# ---------------------------------------------------------------------------
# The three schemes
# ---------------------------------------------------------------------------

def simulate_ptp(spec: NetworkSpec, m: int, n: int, R: float | None,
                 epsilon: float, trials: int, seed: int,
                 input_pmf: JointPmf | None = None, decoder: str = "joint",
                 workers: int = 1) -> SimResult:
    """Single-hop scheme: bin the typical set at rate R bits/symbol, map bin
    indices to i.i.d. channel codewords, decode by the chosen rule.

    ``R=None`` uses the identity (no-binning) indexing of the typical set:
    one codeword per typical outcome.  Rates at or above the source entropy
    are the same no-binning regime and use the identity map as well, since
    extra bins never hold more than one typical sequence in the limit this
    scheme realizes.  ``decoder="joint"`` looks for a unique bin whose
    codeword is typical with the channel output and which holds exactly one
    source sequence typical with the side information; ``decoder="separate"``
    resolves the channel stage alone first, then the source stage within
    the bin.
    """
    m, n, B, trials, workers, schedule = check_scheme(
        spec, "ptp", seed=seed, m=m, n=n, trials=trials, epsilon=epsilon,
        workers=workers)
    if decoder not in ("joint", "separate"):
        raise PlanMismatch(f"unknown decoder {decoder!r}")
    src_size = spec.sources.sizes[0]
    if R is not None and not 0.0 <= R <= math.log2(src_size) + 1e-9:
        raise TooLarge(f"bin rate {R} outside [0, log2 {src_size}]")
    if R is not None and R >= spec.sources.marginalize(
            [source_label(0)]).entropy() - 1e-9:
        R = None
    engine = _Engine(spec, (0, 1), schedule, {1: R},
                     decoder == "joint", m, n, epsilon, seed, input_pmf)
    return engine.run(trials, workers, "ptp", B, bin_rate=R,
                      num_bins=engine.num_bins[1], decoder=decoder)


def simulate_sliding_window(spec: NetworkSpec,
                            plan: CooperationPlan | Sequence[int],
                            m: int, n: int, B: int, epsilon: float,
                            trials: int, seed: int,
                            input_pmf: JointPmf | None = None,
                            workers: int = 1) -> SimResult:
    """Block-Markov scheme without binning over B channel blocks.

    A trial errs iff any cooperating terminal mis-estimates any source
    block (union accounting over all decode events, error propagation
    included: relays forward their own estimates).
    """
    if not isinstance(plan, CooperationPlan):
        plan = CooperationPlan(tuple(plan))
    m, n, B, trials, workers, schedule = check_scheme(
        spec, "sliding", B, plan, seed, m, n, trials, epsilon=epsilon,
        workers=workers)
    engine = _Engine(spec, plan.order, schedule, {0: None}, True, m, n,
                     epsilon, seed, input_pmf)
    return engine.run(trials, workers, "sliding", B, plan=list(plan.order),
                      codebook_copies=schedule.copies,
                      source_blocks=schedule.source_blocks)


def simulate_backward(spec: NetworkSpec, m: int, n: int, B: int,
                      epsilon: float, trials: int, seed: int,
                      input_pmf: JointPmf | None = None,
                      bin_rate_delta: float | None = None,
                      bin_rates: dict[int, float] | None = None,
                      workers: int = 1) -> SimResult:
    """Binning-based scheme with nested backward decoding, full decoding
    order T_1, ..., T_{K+1}.

    Bin rates default to H(S_0|S_k) + delta with delta = 2/m; ``bin_rates``
    overrides individual terminals.  Channel decoding resolves the bin index
    alone (unique typical candidate), then the source decoder picks the
    unique sequence in that bin typical with the local side information.
    """
    m, n, B, trials, workers, schedule = check_scheme(
        spec, "backward", B, seed=seed, m=m, n=n, trials=trials,
        bin_rates=bin_rates, epsilon=epsilon, workers=workers)
    K = spec.K
    delta = 2.0 / m if bin_rate_delta is None else bin_rate_delta
    rates = {k: (bin_rates or {}).get(k, spec.source_entropy_given(k) + delta)
             for k in range(1, K + 2)}
    engine = _Engine(spec, range(K + 2), schedule, rates, False, m, n,
                     epsilon, seed, input_pmf)
    return engine.run(
        trials, workers, "backward", B,
        bin_rates={str(k): rates[k] for k in sorted(rates)},
        num_bins={str(k): engine.num_bins[k] for k in sorted(rates)},
        source_blocks=schedule.source_blocks,
        channel_blocks=schedule.channel_blocks)
