"""Block schedules for the two decode-and-forward protocols.

All index arithmetic lives here as pure functions shared by the simulators
and the dry-run table renderer, so the golden schedule tests pin exactly the
arithmetic the simulators execute.  A source-block reference of 0 denotes
the fixed padding index (codeword row 0, printed as "1").

Sliding-window (depth D = number of cooperating relays, Q = B - D source
blocks over B channel blocks): the terminal at plan position p transmits,
in block b, its codeword for block b-p superposed on the resolutions of
blocks b-p-1 .. b-D.  The decoder at position i recovers block b-i+1 at the
end of block b by testing, for each lag j = 0..i-1, the codeword levels
i-1-j .. D jointly with its channel output of block b-j.

Backward (semi-regular, K <= 2 relays): source blocks are compressed into
per-terminal bin indices; with K=2, B^2 source blocks travel over (B+1)^2
channel blocks arranged in B+1 runs of B+1 blocks, the last block unused.
Terminal 1 decodes forward within each run, terminal 2 decodes each run
backward once it ends, and the destination decodes everything backward.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BTooSmall, UnsupportedK


def _in_range(q: int, limit: int) -> int:
    return q if 1 <= q <= limit else 0


# ---------------------------------------------------------------------------
# Sliding-window schedule
# ---------------------------------------------------------------------------

def sliding_num_source_blocks(depth: int, num_blocks: int) -> int:
    """B - D source blocks; zero (an all-padding schedule) is allowed here,
    simulation additionally requires at least one."""
    if num_blocks < depth:
        raise BTooSmall(
            f"need B >= D = {depth} channel blocks, got {num_blocks}")
    return num_blocks - depth


def sliding_encoder_args(position: int, block: int, depth: int,
                         source_blocks: int) -> tuple[int, ...]:
    """Argument source-block numbers (newest first) for one transmitter."""
    return tuple(_in_range(block - d, source_blocks)
                 for d in range(position, depth + 1))


@dataclass(frozen=True)
class SlidingWindow:
    """One joint-typicality window of a sliding-window decode: the candidate
    is the newest argument of codeword ``level`` in channel ``block``, and
    the levels above it carry the arguments ``sliding_encoder_args`` gives
    for that block."""

    block: int                  # channel block tested
    level: int                  # candidate codeword level (plan position)


def sliding_decode_windows(position: int, block: int) -> list[SlidingWindow]:
    return [SlidingWindow(block - lag, position - 1 - lag)
            for lag in range(position)]


@dataclass(frozen=True)
class SlidingDecodeEvent:
    position: int               # decoder's plan position (1..D+1)
    after: int                  # channel block after which the decode runs
    q: int                      # source block being recovered
    windows: tuple[SlidingWindow, ...]    # one per lag 0..position-1


def sliding_decode_events(depth: int,
                          num_blocks: int) -> list[SlidingDecodeEvent]:
    """All decode events in execution order: after channel block b, the
    decoder at each position i recovers source block b-i+1, if it exists."""
    Q = sliding_num_source_blocks(depth, num_blocks)
    return [SlidingDecodeEvent(
                i, b, b - i + 1,
                tuple(sliding_decode_windows(i, b)))
            for b in range(1, num_blocks + 1)
            for i in range(1, depth + 2)
            if i <= b <= Q + i - 1]


# ---------------------------------------------------------------------------
# Backward schedule
# ---------------------------------------------------------------------------

def backward_num_blocks(K: int, B: int) -> tuple[int, int]:
    """(source blocks, channel blocks) for the K-relay backward schedule."""
    if K not in (0, 1, 2):
        raise UnsupportedK(f"backward decoding supports K <= 2, got K={K}")
    if B < 1:
        raise BTooSmall(f"need B >= 1, got {B}")
    if K == 0:
        return B, B
    if K == 1:
        return B, B + 1
    return B * B, (B + 1) * (B + 1)


#: An argument slot is (source block q, bin terminal); q = 0 means padding.
Arg = tuple[int, int]


def backward_encoder_args(K: int, B: int, block: int) -> list[tuple[Arg, ...]]:
    """Per transmitting terminal (T0..TK), the bin-index argument slots of
    the codeword sent in global channel ``block`` (1-based)."""
    Q, total = backward_num_blocks(K, B)
    if not 1 <= block <= total:
        raise BTooSmall(f"block {block} outside 1..{total}")
    if K == 0:
        return [((block, 1),)]
    if K == 1:
        c = block
        new = (_in_range(c, Q), 1) if c <= B else (0, 1)
        prev = (_in_range(c - 1, Q), 2) if c >= 2 else (0, 2)
        return [(new, prev), (prev,)]
    k, c = divmod(block - 1, B + 1)
    c += 1
    a1 = (_in_range(k * B + c, Q), 1) if c <= B else (0, 1)
    a2 = (_in_range(k * B + c - 1, Q), 2) if c >= 2 else (0, 2)
    a3 = (_in_range((k - 1) * B + c, Q), 3) if c <= B else (0, 3)
    return [(a1, a2, a3), (a2, a3), (a3,)]


@dataclass(frozen=True)
class BackwardDecodeEvent:
    terminal: int               # decoding terminal (1..K+1); decodes its bin
    block: int                  # channel block whose output is used
    q: int                      # source block being recovered
    after: int                  # channel block after which the decode runs


def backward_decode_events(K: int, B: int) -> list[BackwardDecodeEvent]:
    """All decode events in execution order.

    T1 decodes forward, right after each block arrives; with K=2, T2 decodes
    each run backward once the run ends; the destination decodes everything
    backward after the final block.
    """
    Q, total = backward_num_blocks(K, B)
    if K < 2:
        events = [BackwardDecodeEvent(1, c, c, c) for c in range(1, B + 1)]
        if K == 1:
            events += [BackwardDecodeEvent(2, c, c - 1, total)
                       for c in range(B + 1, 1, -1)]
        return events
    events = []
    for k in range(B):
        run_end = (k + 1) * (B + 1)
        for c in range(1, B + 1):
            block = k * (B + 1) + c
            events.append(BackwardDecodeEvent(1, block, k * B + c, block))
        for c in range(B + 1, 1, -1):
            events.append(BackwardDecodeEvent(
                2, k * (B + 1) + c, k * B + c - 1, run_end))
    for q in range(Q, 0, -1):
        k = (q - 1) // B + 1
        c = (q - 1) % B + 1
        events.append(BackwardDecodeEvent(3, k * (B + 1) + c, q, total))
    return events


# ---------------------------------------------------------------------------
# Dry-run rendering (byte-stable)
# ---------------------------------------------------------------------------

def _render_sliding_arg(q: int, terminal: int) -> str:
    if q == 0:
        return "1"
    return f"w({q})" if terminal == 0 else f"w^{terminal}({q})"


def _render_backward_arg(arg: Arg, terminal: int) -> str:
    q, bin_terminal = arg
    if q == 0:
        return "1"
    if terminal == 0:
        return f"w({q},{bin_terminal})"
    return f"w^{terminal}({q},{bin_terminal})"


def _codeword(terminal: int, rendered: list[str]) -> str:
    head = rendered[0]
    if len(rendered) == 1:
        return f"x{terminal}( {head} )"
    return f"x{terminal}( {head} | {', '.join(rendered[1:])} )"


def render_sliding_schedule(terminals: tuple[int, ...], B: int) -> str:
    """Dry-run encoding table for a sliding-window plan.

    ``terminals`` are the transmitting terminals in plan-position order
    (position 0 is the source).  One row per terminal per block.
    """
    depth = len(terminals) - 1
    Q = sliding_num_source_blocks(depth, B)
    lines = [
        "# sliding-window encoding schedule",
        f"# terminals: {','.join(f'T{t}' for t in terminals)}; "
        f"depth D={depth}; source blocks Q={Q}; channel blocks B={B}; "
        f"codebook copies {max(1, depth)}",
        "# decode rule: position i, lag j=0..i-1: codeword levels i-1-j..D "
        "tested jointly with the decoder's block b-j output",
        "# alternate level reading i-1-j..D-1 (rejected: inconsistent with "
        "this table)",
        "block\tterminal\tcodeword",
    ]
    for block in range(1, B + 1):
        for position, terminal in enumerate(terminals):
            args = sliding_encoder_args(position, block, depth, Q)
            rendered = [_render_sliding_arg(q, 0 if position == 0 else terminal)
                        for q in args]
            lines.append(f"{block}\tT{terminal}\t"
                         f"{_codeword(terminal, rendered)}")
    return "\n".join(lines) + "\n"


def render_backward_schedule(K: int, B: int) -> str:
    """Dry-run encoding table for the backward protocol with K relays."""
    Q, total = backward_num_blocks(K, B)
    lines = [
        "# backward-decoding encoding schedule",
        f"# relays K={K}; source blocks Q={Q}; channel blocks {total}; "
        f"bins w(q,k) per decoding terminal k=1..{K + 1}",
        "# decode order: T1 forward per block; T2 backward per run; "
        "destination backward over all blocks; final block unused",
        "block\tterminal\tcodeword",
    ]
    for block in range(1, total + 1):
        for terminal, args in enumerate(backward_encoder_args(K, B, block)):
            rendered = [_render_backward_arg(a, 0 if terminal == 0 else terminal)
                        for a in args]
            lines.append(f"{block}\tT{terminal}\t"
                         f"{_codeword(terminal, rendered)}")
    return "\n".join(lines) + "\n"
