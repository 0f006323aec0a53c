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
rule; one trial engine, :class:`_Engine`, runs every trial and one decision
function, :func:`_decide`, settles every decode.  Every trial redraws the
bin assignments and channel codebooks from its own seed streams, so the
empirical error rate estimates the random-coding ensemble average.
Decoding ties (zero or multiple surviving candidates) count as errors, and
trials whose source realization falls outside the typical set are errors
by construction.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from . import network
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
from .schedules import (
    backward_decode_events,
    backward_encoder_args,
    backward_num_blocks,
    render_backward_schedule,
    render_sliding_schedule,
    sliding_decode_events,
    sliding_encoder_args,
    sliding_num_source_blocks,
)
from .seeds import STREAM_CHANNEL, STREAM_SOURCE, check_seed, child_rng
from .typicality import (
    MAX_ALPHABET,
    TypicalityTest,
    assign_bins,
    build_typical_source_codebook,
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
    "render_sliding_schedule",
    "render_backward_schedule",
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
    """Order-preserving map over trials; thread pool when workers > 1.

    Threads pay only where a trial spends most of its time in numpy calls
    that release the GIL, as in the point-to-point scheme: at m=12, n=24
    (400 trials at each of its two points) a pass took a median 0.96 s
    serially and 0.82 s on two threads over 12 alternating pairs on a
    2-vCPU VM, serial slower in 10 of 12, at 1.36x the CPU time (README,
    ``--workers``).
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


class _SourceSampler:
    """Draws length-m blocks of the (S_0..S_{K+L}) joint, one row per
    terminal."""

    def __init__(self, sources: JointPmf):
        self.sizes = sources.sizes
        self.cum = np.cumsum(sources.probs.reshape(-1))
        self.num_vars = len(self.sizes)

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        flat = np.searchsorted(self.cum, rng.random(m), side="right")
        out = np.empty((self.num_vars, m), dtype=np.int8)
        for axis in range(self.num_vars - 1, -1, -1):
            out[axis] = flat % self.sizes[axis]
            flat //= self.sizes[axis]
        return out


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

    def sample(self, in_idx: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        """(num_outputs, n) output symbol rows for per-symbol input indices."""
        flat = inverse_cdf(rng.random(in_idx.size), self.cum[in_idx])
        out = np.empty((len(self.out_sizes), in_idx.size), dtype=np.int8)
        for axis in range(len(self.out_sizes) - 1, -1, -1):
            out[axis] = flat % self.out_sizes[axis]
            flat //= self.out_sizes[axis]
        return out


class _Decode(NamedTuple):
    """One decode event: after channel block ``after``, plan position
    ``position`` resolves source block ``q`` from ``windows``, each (channel
    block, first tested level, levels carrying the candidate)."""

    position: int
    q: int
    after: int
    windows: tuple[tuple[int, int, int], ...]


class _Schedule(NamedTuple):
    """A block-Markov schedule in the engine's terms.

    ``slots[b][p]`` are the argument slots of level p's codeword in channel
    block b, own index first, each (source block, bin type); source block 0
    is the padding index.  ``copies`` codebook copies are cycled by block.
    """

    source_blocks: int
    slots: dict[int, list[tuple[tuple[int, int], ...]]]
    events: list[_Decode]
    copies: int = 1


def _backward_schedule(K: int, B: int) -> _Schedule:
    """The backward schedule: each decoder tests every level in one window,
    its candidate bin in the slots of its own bin type."""
    Q, total = backward_num_blocks(K, B)
    return _Schedule(
        Q, {b: backward_encoder_args(K, B, b) for b in range(1, total + 1)},
        [_Decode(ev.terminal, ev.q, ev.after, ((ev.block, 0, ev.terminal),))
         for ev in backward_decode_events(K, B)])


def _decide(survivors: np.ndarray, bin_map: np.ndarray | None, joint: bool,
            side_typical: Callable[[np.ndarray], np.ndarray]) -> int | None:
    """The codebook index a decoder settles on, or None (a decoding error).

    ``survivors`` marks the bins whose codewords pass the channel stage and
    ``bin_map`` sends each codebook index to its bin (None: the identity).
    The joint rule needs exactly one surviving bin that holds exactly one
    sequence typical with the side information; the separate rule needs
    exactly one surviving bin, then exactly one side-typical sequence in
    it.  ``side_typical`` checks a batch of codebook indices; it runs once,
    on the members of the surviving bins, if they have any.
    """
    hits = np.flatnonzero(survivors)
    if hits.size == 0 or (not joint and hits.size > 1):
        return None
    members = hits if bin_map is None else np.flatnonzero(survivors[bin_map])
    typical = members[side_typical(members)] if members.size else members
    if joint and bin_map is not None:
        single = np.flatnonzero(np.bincount(bin_map[typical]) == 1)
        if single.size != 1:
            return None
        typical = typical[bin_map[typical] == single[0]]
    return int(typical[0]) if typical.size == 1 else None


class _Engine:
    """Every trial of one simulation, and what it builds once before the
    first.

    Level p of the superposition code is sent by terminal ``order[p]``
    (level 0 is the source); the terminal at plan position i >= 1 decodes
    and sends level i from its own estimates.  ``bins`` maps each bin type
    to a rate, or to None for the identity map; a level carries one
    codeword per bin of its own slot's type.  A window's candidate sits in
    slot ``first + lead - 1 - p`` of each level p it spans; every other
    slot, and every level above, holds the decoder's own estimates.  Trials
    may run on pool threads, so nothing here changes after construction.
    """

    def __init__(self, spec: NetworkSpec, order: Sequence[int],
                 schedule: _Schedule, bins: dict[int, float | None],
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
        self.lookup = {seq.tobytes(): w
                       for w, seq in enumerate(self.codebook.sequences)}
        labels = tuple(input_label(t) for t in self.order[:-1])
        full = spec.extend_input(input_pmf, labels)
        self.laws = conditional_input_laws(full.marginalize(labels), labels)
        # looked up on the module, where perfbench's tracer patches it
        composed = network.compose_joint(full, spec.channel)
        windows = {(ev.position, first, lead)
                   for ev in schedule.events for _, first, lead in ev.windows}
        self.channel_tests = {
            (i, first, lead): TypicalityTest(
                composed, labels[first:] + (output_label(self.order[i]),),
                n, epsilon, lead)
            for i, first, lead in windows}
        self.side_tests = {
            i: TypicalityTest(spec.sources, (source_label(0),
                                             source_label(self.order[i])),
                              m, epsilon)
            for i in range(1, len(self.order))}
        self.source_sampler = _SourceSampler(spec.sources)
        self.channel = _ChannelSampler(spec)
        self.strides = [self.channel.in_strides[t] for t in self.order[:-1]]

    def run(self, trials: int, workers: int,
            config: dict[str, Any]) -> SimResult:
        flags = parallel_map(self.trial, list(range(trials)), workers)
        per_terminal = {t: sum(f[t] for f in flags) for t in self.order[1:]}
        return SimResult(trials=trials,
                         errors_total=sum(any(f.values()) for f in flags),
                         per_terminal_errors=per_terminal, config=config)

    def draw_sources(self, trial: int
                     ) -> tuple[dict[int, np.ndarray], np.ndarray]:
        """Source blocks 1..Q of one trial, one row per terminal, and the
        codebook index of each block's S_0 row (-1: atypical; row 0 is
        unused and holds -1)."""
        Q = self.schedule.source_blocks
        src = {q: self.source_sampler.draw(
            child_rng(self.seed, trial, STREAM_SOURCE, q), self.m)
            for q in range(1, Q + 1)}
        idx = np.full(Q + 1, -1, dtype=np.int64)
        for q in range(1, Q + 1):
            idx[q] = self.lookup.get(src[q][0].tobytes(), -1)
        return src, idx

    def transmit(self, rows: Sequence[np.ndarray], trial: int,
                 block: int) -> np.ndarray:
        """Channel outputs of one block: each level's codeword row
        superposed into channel inputs, sampled on the stream
        ``(STREAM_CHANNEL, block)``."""
        in_idx = np.zeros(self.n, dtype=np.int64)
        for row, stride in zip(rows, self.strides):
            in_idx += row.astype(np.int64) * stride
        return self.channel.sample(
            in_idx, child_rng(self.seed, trial, STREAM_CHANNEL, block))

    def trial(self, trial: int) -> dict[int, bool]:
        """One trial: whether each decoding terminal mis-estimates any
        source block (relays forward their own estimates)."""
        sched, codebook = self.schedule, self.codebook
        src, idx = self.draw_sources(trial)
        maps = {t: None if r is None else
                assign_bins(codebook, r, self.seed, t, trial=trial).map
                for t, r in self.bins.items()}
        stack = ChannelCodebookStack(self.n, self.level_sizes, self.laws,
                                     sched.copies, self.seed, trial)
        levels = len(self.level_sizes)
        # per plan position, the codebook index of each source block it
        # sends: the source's own and the decoders' estimates (-1: atypical,
        # unknown or failed, sent as index 0, as is the padding block 0)
        est = [idx] + [np.full(sched.source_blocks + 1, -1, dtype=np.int64)
                       for _ in self.order[1:]]
        erred = {t: False for t in self.order[1:]}

        def codeword(own: np.ndarray, block: int, level: int,
                     skip: int = -1, C: int = 0) -> np.ndarray:
            """``level``'s codeword in ``block`` under the estimates
            ``own``; (C, n) rows with slot ``skip`` ranging over 0..C-1."""
            vals = []
            for s, (q, t) in enumerate(sched.slots[block][level]):
                w = int(own[q])
                vals.append(None if s == skip else 0 if w < 0
                            else w if maps[t] is None else int(maps[t][w]))
            return stack.row(level, stack.copy_for_block(block),
                             tuple(vals[1:]), vals[0], C)

        y_blocks: dict[int, np.ndarray] = {}
        pending = 0
        for b in sched.slots:
            y_blocks[b] = self.transmit(
                [codeword(est[p], b, p) for p in range(levels)], trial, b)
            while (pending < len(sched.events)
                   and sched.events[pending].after == b):
                ev = sched.events[pending]
                pending += 1
                own, terminal = est[ev.position], self.order[ev.position]
                survivors = None
                for block, first, lead in ev.windows:
                    if survivors is not None and not survivors.any():
                        break
                    top = first + lead - 1
                    test = self.channel_tests[ev.position, first, lead]
                    cand = None
                    for p in range(first, top + 1):
                        rows = codeword(own, block, p, top - p,
                                        self.level_sizes[top])
                        # one level: the int8 table goes to the test as is
                        cand = rows if cand is None else np.multiply(
                            cand, test.sizes[p - first],
                            dtype=np.int64) + rows
                    fixed = [codeword(own, block, p)
                             for p in range(top + 1, levels)]
                    hits = test.check_batch(cand, test.flatten(
                        fixed + [y_blocks[block][terminal - 1]]))
                    survivors = hits if survivors is None \
                        else survivors & hits
                side = self.side_tests[ev.position]
                side_flat = side.flatten([src[ev.q][terminal]])
                decoded = _decide(
                    survivors, maps[self.level_bins[top]], self.joint,
                    lambda w: side.check_batch(codebook.sequences[w],
                                               side_flat))
                own[ev.q] = -1 if decoded is None else decoded
                if decoded is None or not np.array_equal(
                        codebook.sequences[decoded], src[ev.q][0]):
                    erred[terminal] = True
        return erred


def _count(value: Any, what: str, least: int) -> int:
    count = whole_number(value, what)
    if count < least:
        raise SchemaError(f"{what} must be >= {least}, got {value!r}")
    return count


def check_scheme(spec: NetworkSpec, scheme: str, B: int = 1,
                 plan: CooperationPlan | None = None, seed: int = 0,
                 m: int = 1, n: int = 1, trials: int = 0,
                 bin_rates: dict[int, float] | None = None
                 ) -> tuple[int, int, int, int]:
    """Raise the input error the ``scheme`` simulator raises before it
    builds anything: root ``seed``; m, n and ``B`` whole numbers >= 1 and
    ``trials`` >= 0; network shape, sliding ``plan`` and block count;
    backward ``bin_rates`` keys that name no decoder.  Returns (m, n, B,
    trials) as ints."""
    check_seed(seed)
    m, n, B = (_count(v, what, 1) for v, what in ((m, "m"), (n, "n"),
                                                  (B, "B")))
    trials = _count(trials, "trials", 0)
    if scheme == "ptp" and (spec.K != 0 or spec.L != 1):
        raise PlanMismatch("simulate_ptp requires K=0, L=1")
    if scheme == "sliding":
        if spec.L != 1:
            raise PlanMismatch("sliding-window simulation requires L=1")
        validate_plan(spec, plan, MODE_SINGLE)
        if B < plan.num_hops:
            raise BTooSmall(
                f"need B >= {plan.num_hops} for at least one source block")
    if scheme == "backward":
        if spec.L != 1:
            raise PlanMismatch("backward simulation requires L=1")
        backward_num_blocks(spec.K, B)
        unknown = [k for k in bin_rates or {} if k not in range(1, spec.K + 2)]
        if unknown:
            raise SchemaError(f"bin_rates keys {unknown!r} name no decoder "
                              f"(1..{spec.K + 1})")
    return m, n, B, trials


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
    m, n, _, trials = check_scheme(spec, "ptp", seed=seed, m=m, n=n,
                                   trials=trials)
    if decoder not in ("joint", "separate"):
        raise PlanMismatch(f"unknown decoder {decoder!r}")
    src_size = spec.sources.sizes[0]
    if R is not None and not 0.0 <= R <= math.log2(src_size) + 1e-9:
        raise TooLarge(f"bin rate {R} outside [0, log2 {src_size}]")
    if R is not None and R >= spec.sources.marginalize(
            [source_label(0)]).entropy() - 1e-9:
        R = None
    engine = _Engine(spec, (0, 1), _backward_schedule(0, 1), {1: R},
                     decoder == "joint", m, n, epsilon, seed, input_pmf)
    config = {
        "scheme": "ptp",
        "m": m, "n": n, "B": 1, "trials": trials, "seed": seed,
        "epsilon": epsilon, "rate": m / n,
        "bin_rate": R, "num_bins": engine.num_bins[1], "decoder": decoder,
        "codebook_size": engine.codebook.M,
    }
    return engine.run(trials, workers, config)


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
    m, n, B, trials = check_scheme(spec, "sliding", B, plan, seed, m, n,
                                   trials)
    depth = plan.num_hops - 1                 # number of cooperating relays
    Q = sliding_num_source_blocks(depth, B)
    # one identity bin type (0); each lag tests one level with the candidate
    # in its own slot
    schedule = _Schedule(
        Q, {b: [tuple((q, 0) for q in sliding_encoder_args(p, b, depth, Q))
                for p in range(depth + 1)] for b in range(1, B + 1)},
        [_Decode(ev.position, ev.q, ev.after,
                 tuple((w.block, w.level, 1) for w in ev.windows))
         for ev in sliding_decode_events(depth, B)],
        max(1, depth))
    engine = _Engine(spec, plan.order, schedule, {0: None}, True, m, n,
                     epsilon, seed, input_pmf)
    config = {
        "scheme": "sliding",
        "m": m, "n": n, "B": B, "trials": trials, "seed": seed,
        "epsilon": epsilon, "rate": m / n,
        "plan": list(plan.order), "codebook_size": engine.codebook.M,
        "codebook_copies": schedule.copies, "source_blocks": Q,
    }
    return engine.run(trials, workers, config)


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
    m, n, B, trials = check_scheme(spec, "backward", B, seed=seed, m=m, n=n,
                                   trials=trials, bin_rates=bin_rates)
    K = spec.K
    schedule = _backward_schedule(K, B)
    delta = 2.0 / m if bin_rate_delta is None else bin_rate_delta
    rates = {k: (bin_rates or {}).get(k, spec.source_entropy_given(k) + delta)
             for k in range(1, K + 2)}
    engine = _Engine(spec, range(K + 2), schedule, rates, False, m, n,
                     epsilon, seed, input_pmf)
    config = {
        "scheme": "backward",
        "m": m, "n": n, "B": B, "trials": trials, "seed": seed,
        "epsilon": epsilon, "rate": m / n,
        "bin_rates": {str(k): rates[k] for k in sorted(rates)},
        "num_bins": {str(k): engine.num_bins[k] for k in sorted(rates)},
        "codebook_size": engine.codebook.M,
        "source_blocks": schedule.source_blocks,
        "channel_blocks": len(schedule.slots),
    }
    return engine.run(trials, workers, config)
