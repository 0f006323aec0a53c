"""Monte-Carlo execution of the decode-and-forward protocols at desk scale.

Three schemes:

* ``simulate_ptp``: single-hop transmission with tunable source binning and
  either the joint decoder (channel typicality and side-information
  typicality resolved together) or the separate two-stage decoder.
* ``simulate_sliding_window``: block-Markov regular encoding without
  explicit binning; every cooperating terminal decodes each source block by
  joint typicality over a sliding window of received blocks.
* ``simulate_backward``: semi-regular encoding with per-terminal binning
  and nested backward decoding (K <= 2).

Every trial redraws the bin assignments and channel codebooks from its own
seed streams, so the empirical error rate estimates the random-coding
ensemble average.  Decoding ties (zero or multiple surviving candidates)
count as errors, and trials whose source realization falls outside the
typical set are errors by construction.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from . import network
from .codebooks import (
    ChannelCodebookStack,
    conditional_input_laws,
    inverse_cdf,
)
from .errors import BTooSmall, PlanMismatch, SchemaError, TooLarge
from .network import NetworkSpec, input_label, output_label, source_label
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
    that release the GIL.  The point-to-point scheme, whose batches are the
    largest, sits near that line: at m=12, n=24 (400 trials at each of its
    two points) a pass took a median 1.26 s serially and 1.30 s on two
    threads over 10 alternating pairs on a 2-vCPU VM, at 1.5x the CPU time
    (README, ``--workers``).
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


class _Setup:
    """What every scheme builds once before its first trial.

    ``senders`` are the transmitting terminals in codeword-level order
    (level 0 is the source) and ``decoders`` the terminals that test their
    side information; single-hop is senders ``(0,)`` with decoder 1.  Trials
    may run on pool threads, so nothing here changes after construction.
    """

    def __init__(self, spec: NetworkSpec, senders: Sequence[int],
                 decoders: Sequence[int], m: int, n: int, epsilon: float,
                 input_pmf: JointPmf | None):
        sizes = spec.sources.sizes + spec.input_sizes + spec.output_sizes
        if max(sizes) > MAX_ALPHABET:
            raise TooLarge(f"an alphabet of {max(sizes)} symbols exceeds the "
                           f"int8 symbol storage ({MAX_ALPHABET})")
        self.m, self.n = m, n
        self.codebook = build_typical_source_codebook(
            spec.sources.marginalize([source_label(0)]), m, epsilon)
        self.lookup = {seq.tobytes(): w
                       for w, seq in enumerate(self.codebook.sequences)}
        self.labels = tuple(input_label(t) for t in senders)
        full = spec.extend_input(input_pmf, self.labels)
        self.laws = conditional_input_laws(full.marginalize(self.labels),
                                           self.labels)
        # looked up on the module, where perfbench's tracer patches it
        self.composed = network.compose_joint(full, spec.channel)
        self.side_tests = {
            k: TypicalityTest(spec.sources,
                              (source_label(0), source_label(k)), m, epsilon)
            for k in decoders
        }
        self.source_sampler = _SourceSampler(spec.sources)
        self.channel = _ChannelSampler(spec)
        self.strides = [self.channel.in_strides[t] for t in senders]

    def draw_sources(self, seed: int, trial: int, Q: int
                     ) -> tuple[dict[int, np.ndarray], np.ndarray]:
        """Source blocks 1..Q of one trial, one row per terminal, and the
        codebook index of each block's S_0 row (-1: atypical; row 0 is
        unused and holds -1)."""
        src = {q: self.source_sampler.draw(
            child_rng(seed, trial, STREAM_SOURCE, q), self.m)
            for q in range(1, Q + 1)}
        idx = np.full(Q + 1, -1, dtype=np.int64)
        for q in range(1, Q + 1):
            idx[q] = self.lookup.get(src[q][0].tobytes(), -1)
        return src, idx

    def transmit(self, stack: ChannelCodebookStack,
                 level_args: Sequence[Sequence[int]], seed: int, trial: int,
                 block: int) -> np.ndarray:
        """Channel outputs of one block: the codeword rows of every level
        (arguments own index first, then the upper indices) superposed into
        channel inputs, sampled on the stream ``(STREAM_CHANNEL, block)``."""
        copy = stack.copy_for_block(block)
        in_idx = np.zeros(self.n, dtype=np.int64)
        for p, args in enumerate(level_args):
            row = stack.row(p, copy, tuple(args[1:]), args[0])
            in_idx += row.astype(np.int64) * self.strides[p]
        return self.channel.sample(
            in_idx, child_rng(seed, trial, STREAM_CHANNEL, block))

    def run_blocks(self, stack: ChannelCodebookStack, seed: int, trial: int,
                   num_blocks: int,
                   level_args: Callable[[int], Sequence[Sequence[int]]],
                   events: Sequence, decode: Callable) -> None:
        """One trial's block loop: transmit each block, then run the decode
        events scheduled after it (``events`` in execution order, each with
        an ``after`` block)."""
        y_blocks: dict[int, np.ndarray] = {}
        pending = 0
        for b in range(1, num_blocks + 1):
            y_blocks[b] = self.transmit(stack, level_args(b), seed, trial, b)
            while pending < len(events) and events[pending].after == b:
                decode(events[pending], y_blocks)
                pending += 1


def _aggregate(trial_fn: Callable[[int], dict[int, bool]], trials: int,
               terminals: Sequence[int], workers: int,
               config: dict[str, Any]) -> SimResult:
    flags = parallel_map(trial_fn, list(range(trials)), workers)
    per_terminal = {t: 0 for t in terminals}
    errors_total = 0
    for flag in flags:
        if any(flag.values()):
            errors_total += 1
        for t, erred in flag.items():
            if erred:
                per_terminal[t] += 1
    return SimResult(trials=trials, errors_total=errors_total,
                     per_terminal_errors=per_terminal, config=config)


def check_scheme(spec: NetworkSpec, scheme: str, B: int = 1,
                 plan: CooperationPlan | None = None, seed: int = 0) -> None:
    """Raise the structural error the ``scheme`` simulator raises before it
    builds anything: network shape, block count ``B``, sliding ``plan``,
    root ``seed``."""
    check_seed(seed)
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


# ---------------------------------------------------------------------------
# Point-to-point scheme with tunable binning
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
    check_scheme(spec, "ptp", seed=seed)
    if decoder not in ("joint", "separate"):
        raise PlanMismatch(f"unknown decoder {decoder!r}")
    src_size = spec.sources.sizes[0]
    if R is not None and not 0.0 <= R <= math.log2(src_size) + 1e-9:
        raise TooLarge(f"bin rate {R} outside [0, log2 {src_size}]")
    setup = _Setup(spec, (0,), (1,), m, n, epsilon, input_pmf)
    codebook = setup.codebook
    if R is not None and R >= spec.sources.marginalize(
            [source_label(0)]).entropy() - 1e-9:
        R = None
    num_bins = codebook.M if R is None else num_bins_for_rate(m, R)
    ch_test = TypicalityTest(setup.composed, (input_label(0), output_label(1)),
                             n, epsilon)
    side_test = setup.side_tests[1]
    identity = np.arange(codebook.M)

    def trial_fn(trial: int) -> dict[int, bool]:
        src, idx = setup.draw_sources(seed, trial, 1)
        if R is None:
            bin_map = identity
        else:
            bin_map = assign_bins(codebook, R, seed, 1, trial=trial).map
        stack = ChannelCodebookStack(n, [num_bins], setup.laws, 1, seed, trial)
        sent_bin = 0 if idx[1] < 0 else int(bin_map[idx[1]])
        table = stack.rows(0, 0, ())
        y = setup.transmit(stack, [(sent_bin,)], seed, trial, 1)
        ch_mask = ch_test.check_batch(table, ch_test.flatten([y[0]]))
        side_mask = side_test.check_batch(codebook.sequences,
                                          side_test.flatten([src[1][1]]))
        decoded: int | None = None
        side_hits = np.flatnonzero(side_mask)
        counts = np.bincount(bin_map[side_hits], minlength=num_bins)
        if decoder == "joint":
            qualifying = np.flatnonzero(ch_mask & (counts == 1))
            if qualifying.size == 1:
                members = np.flatnonzero(side_mask
                                         & (bin_map == qualifying[0]))
                decoded = int(members[0])
        else:
            ch_hits = np.flatnonzero(ch_mask)
            if ch_hits.size == 1:
                members = np.flatnonzero(side_mask
                                         & (bin_map == ch_hits[0]))
                if members.size == 1:
                    decoded = int(members[0])
        ok = decoded is not None and np.array_equal(
            codebook.sequences[decoded], src[1][0])
        return {1: not ok}

    config = {
        "scheme": "ptp",
        "m": m, "n": n, "B": 1, "trials": trials, "seed": seed,
        "epsilon": epsilon, "rate": m / n,
        "bin_rate": R, "num_bins": num_bins, "decoder": decoder,
        "codebook_size": codebook.M,
    }
    return _aggregate(trial_fn, trials, (1,), workers, config)


# ---------------------------------------------------------------------------
# Regular encoding / sliding-window decoding
# ---------------------------------------------------------------------------

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
    check_scheme(spec, "sliding", B, plan, seed)
    order = plan.order
    depth = plan.num_hops - 1                 # number of cooperating relays
    Q = sliding_num_source_blocks(depth, B)
    events = sliding_decode_events(depth, B)
    # plan positions 0..depth transmit; positions 1..depth+1 decode
    setup = _Setup(spec, order[:-1], order[1:], m, n, epsilon, input_pmf)
    codebook = setup.codebook
    copies = max(1, depth)
    positions = range(1, plan.num_hops + 1)
    ref_tests = {
        i: [TypicalityTest(
            setup.composed,
            setup.labels[i - 1 - j:] + (output_label(order[i]),), n, epsilon)
            for j in range(i)]
        for i in positions
    }

    def trial_fn(trial: int) -> dict[int, bool]:
        src, idx = setup.draw_sources(seed, trial, Q)
        # per plan position, the source-block indices it resolves; the
        # source sends its own (atypical blocks as the padding row), and
        # row 0 holds the padding index
        est = {0: np.maximum(idx, 0)}
        est.update({i: np.zeros(Q + 1, dtype=np.int64) for i in positions})
        stack = ChannelCodebookStack(n, [codebook.M] * (depth + 1),
                                     setup.laws, copies, seed, trial)
        erred = {order[i]: False for i in positions}

        def level_args(b: int) -> list[list[int]]:
            return [[int(est[p][q])
                     for q in sliding_encoder_args(p, b, depth, Q)]
                    for p in range(depth + 1)]

        def decode(ev, y_blocks: dict[int, np.ndarray]) -> None:
            i, q = ev.position, ev.q
            own = est[i]
            side = setup.side_tests[order[i]]
            mask = side.check_batch(codebook.sequences,
                                    side.flatten([src[q][order[i]]]))
            for ref, window in zip(ref_tests[i], ev.windows):
                if not mask.any():
                    break
                wcopy = stack.copy_for_block(window.block)
                cond = tuple(int(own[qq]) for qq in window.candidate_args[1:])
                cand_rows = stack.rows(window.level, wcopy, cond)
                deeper_rows = [
                    stack.row(p, wcopy, tuple(int(own[qq]) for qq in args[1:]),
                              int(own[args[0]]))
                    for p, args in zip(range(window.level + 1, depth + 1),
                                       window.deeper_args)]
                y_row = y_blocks[window.block][order[i] - 1]
                fixed = ref.flatten(deeper_rows + [y_row])
                mask &= ref.check_batch(cand_rows, fixed)
            hits = np.flatnonzero(mask)
            if hits.size == 1:
                own[q] = int(hits[0])
                ok = np.array_equal(codebook.sequences[own[q]], src[q][0])
            else:
                own[q] = 0
                ok = False
            if not ok:
                erred[order[i]] = True

        setup.run_blocks(stack, seed, trial, B, level_args, events, decode)
        return erred

    config = {
        "scheme": "sliding",
        "m": m, "n": n, "B": B, "trials": trials, "seed": seed,
        "epsilon": epsilon, "rate": m / n,
        "plan": list(order), "codebook_size": codebook.M,
        "codebook_copies": copies, "source_blocks": Q,
    }
    return _aggregate(trial_fn, trials, tuple(order[1:]), workers, config)


# ---------------------------------------------------------------------------
# Semi-regular encoding / backward decoding (K <= 2)
# ---------------------------------------------------------------------------

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
    K = spec.K
    check_scheme(spec, "backward", B, seed=seed)
    Q, total_blocks = backward_num_blocks(K, B)
    delta = 2.0 / m if bin_rate_delta is None else bin_rate_delta
    decoders = tuple(range(1, K + 2))
    rates = {k: (bin_rates or {}).get(k, spec.source_entropy_given(k) + delta)
             for k in decoders}
    bin_sizes = {k: num_bins_for_rate(m, rates[k]) for k in decoders}
    setup = _Setup(spec, range(K + 1), decoders, m, n, epsilon, input_pmf)
    codebook = setup.codebook
    level_sizes = [bin_sizes[p + 1] for p in range(K + 1)]
    ref_tests = {
        k: TypicalityTest(setup.composed, setup.labels + (output_label(k),),
                          n, epsilon, lead=k)
        for k in decoders
    }
    events = backward_decode_events(K, B)

    def trial_fn(trial: int) -> dict[int, bool]:
        src, true_idx = setup.draw_sources(seed, trial, Q)
        bins = {k: assign_bins(codebook, rates[k], seed, k, trial=trial).map
                for k in decoders}
        stack = ChannelCodebookStack(n, level_sizes, setup.laws, 1, seed,
                                     trial)
        # per terminal, the source-block indices it knows (the source) or
        # has decoded (-1: unknown or failed, and the padding row 0)
        est = {0: true_idx}
        est.update({k: np.full(Q + 1, -1, dtype=np.int64) for k in decoders})
        erred = {k: False for k in decoders}

        def bin_of(refs: np.ndarray, q: int, bintype: int) -> int:
            idx = int(refs[q])
            return 0 if idx < 0 else int(bins[bintype][idx])

        def level_args(b: int) -> list[list[int]]:
            return [[bin_of(est[p], q, bt) for q, bt in args]
                    for p, args in enumerate(backward_encoder_args(K, B, b))]

        def decode(ev, y_blocks: dict[int, np.ndarray]) -> None:
            k_dec = ev.terminal
            args = backward_encoder_args(K, B, ev.block)
            own_refs = est[k_dec]
            C = bin_sizes[k_dec]
            lead_rows_idx = np.zeros((C, n), dtype=np.int64)
            # levels 0..k_dec-1 carry the candidate; deeper levels are fixed
            for p in range(k_dec):
                slot = k_dec - 1 - p
                vals = [None if s == slot else bin_of(own_refs, *arg)
                        for s, arg in enumerate(args[p])]
                rows = stack.row(p, 0, tuple(vals[1:]), vals[0], C)  # (C, n)
                lead_rows_idx = lead_rows_idx * spec.input_sizes[p] + rows
            fixed_rows = []
            for p in range(k_dec, K + 1):
                vals = [bin_of(own_refs, *arg) for arg in args[p]]
                fixed_rows.append(stack.row(p, 0, tuple(vals[1:]), vals[0]))
            ref = ref_tests[k_dec]
            fixed = ref.flatten(fixed_rows + [y_blocks[ev.block][k_dec - 1]])
            mask = ref.check_batch(lead_rows_idx, fixed)
            hits = np.flatnonzero(mask)
            decoded: int | None = None
            if hits.size == 1:
                bin_hat = int(hits[0])
                members = np.flatnonzero(bins[k_dec] == bin_hat)
                if members.size:
                    side = setup.side_tests[k_dec]
                    smask = side.check_batch(
                        codebook.sequences[members],
                        side.flatten([src[ev.q][k_dec]]))
                    shits = np.flatnonzero(smask)
                    if shits.size == 1:
                        decoded = int(members[shits[0]])
            own_refs[ev.q] = -1 if decoded is None else decoded
            ok = decoded is not None and np.array_equal(
                codebook.sequences[decoded], src[ev.q][0])
            if not ok:
                erred[k_dec] = True

        setup.run_blocks(stack, seed, trial, total_blocks, level_args, events,
                         decode)
        return erred

    config = {
        "scheme": "backward",
        "m": m, "n": n, "B": B, "trials": trials, "seed": seed,
        "epsilon": epsilon, "rate": m / n,
        "bin_rates": {str(k): rates[k] for k in sorted(rates)},
        "num_bins": {str(k): bin_sizes[k] for k in sorted(bin_sizes)},
        "codebook_size": codebook.M, "source_blocks": Q,
        "channel_blocks": total_blocks,
    }
    return _aggregate(trial_fn, trials, decoders, workers, config)
