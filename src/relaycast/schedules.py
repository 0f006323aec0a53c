"""Block schedules for the two decode-and-forward protocols.

A :class:`Schedule` is the one form of a schedule: the simulators' trial
engine runs it and the dry-run table renderer prints it, so the golden
schedule tables pin exactly what the simulators execute.  A source-block
reference of 0 denotes the fixed padding index (codeword row 0, printed as
"1").

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
Point-to-point is the K=0, B=1 backward schedule.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BTooSmall, UnsupportedK, whole_number

#: An argument slot is (source block q, bin type); q = 0 means padding.
Arg = tuple[int, int]


class Decode(NamedTuple):
    """One decode event: after channel block ``after``, plan position
    ``position`` resolves source block ``q`` from ``windows``, each (channel
    block, first tested level, levels carrying the candidate)."""

    position: int
    q: int
    after: int
    windows: tuple[tuple[int, int, int], ...]


class Schedule(NamedTuple):
    """A block-Markov schedule.

    ``slots[b][p]`` are the argument slots of level p's codeword in channel
    block b, own index first, each (source block, bin type); source block 0
    is the padding index.  ``events`` are the decodes in execution order.
    ``copies`` codebook copies are cycled by block.
    """

    source_blocks: int
    slots: dict[int, list[tuple[Arg, ...]]]
    events: list[Decode]
    copies: int = 1

    @property
    def channel_blocks(self) -> int:
        return len(self.slots)


def _in_range(q: int, limit: int) -> int:
    return q if 1 <= q <= limit else 0


def sliding_schedule(D: int, B: int) -> Schedule:
    """The sliding-window schedule of depth D over B channel blocks: one
    identity bin type (0), ``max(1, D)`` codebook copies, and per decode
    one window per lag, each testing one level with the candidate in its
    own slot.  Zero source blocks (an all-padding schedule) is allowed
    here; simulation additionally requires at least one."""
    if B < D:
        raise BTooSmall(f"need B >= D = {D} channel blocks, got {B}")
    Q = B - D
    slots = {b: [tuple((_in_range(b - d, Q), 0) for d in range(p, D + 1))
                 for p in range(D + 1)] for b in range(1, B + 1)}
    # after channel block b, position i recovers source block b-i+1
    events = [Decode(i, b - i + 1, b,
                     tuple((b - lag, i - 1 - lag, 1) for lag in range(i)))
              for b in range(1, B + 1) for i in range(1, D + 2)
              if i <= b <= Q + i - 1]
    return Schedule(Q, slots, events, max(1, D))


def backward_schedule(K: int, B: int) -> Schedule:
    """The K-relay backward schedule: B source blocks (B^2 for K=2) over
    B, B+1 or (B+1)^2 channel blocks.  Terminal k's bin of source block q
    has bin type k, and each decode is one window that tests every level
    with the candidate bin in the slots of the decoder's own bin type."""
    if K not in (0, 1, 2):
        raise UnsupportedK(f"backward decoding supports K <= 2, got K={K}")
    if B < 1:
        raise BTooSmall(f"need B >= 1, got {B}")
    runs = B if K == 2 else 1
    Q, total = runs * B, (B, B + 1, (B + 1) * (B + 1))[K]
    slots = {}
    for block in range(1, total + 1):
        k, c = divmod(block - 1, B + 1)
        c += 1                                  # run k, position c
        args = ((_in_range(k * B + c, Q) if c <= B else 0, 1),
                (_in_range(k * B + c - 1, Q) if c >= 2 else 0, 2),
                (_in_range((k - 1) * B + c, Q) if c <= B else 0, 3))[:K + 1]
        slots[block] = [args[p:] for p in range(K + 1)]

    def decode(terminal: int, block: int, q: int, after: int) -> Decode:
        return Decode(terminal, q, after, ((block, 0, terminal),))
    # T1 forward right after each block; T2 backward once its run ends; the
    # destination backward after the final block
    events = []
    for k in range(runs):
        start = k * (B + 1)
        events += [decode(1, start + c, k * B + c, start + c)
                   for c in range(1, B + 1)]
        if K:
            events += [decode(2, start + c, k * B + c - 1, start + B + 1)
                       for c in range(B + 1, 1, -1)]
    if K == 2:          # the destination's bin of q rides in the next run
        events += [decode(3, q + B + 1 + (q - 1) // B, q, total)
                   for q in range(Q, 0, -1)]
    return Schedule(Q, slots, events)


# ---------------------------------------------------------------------------
# Dry-run rendering (byte-stable)
# ---------------------------------------------------------------------------

def _render(schedule: Schedule, terminals: tuple[int, ...],
            header: list[str]) -> str:
    """One row per level per channel block: level p is sent by
    ``terminals[p]``; bin type 0 prints w(q) and any other type k prints
    w(q,k), with the sender's superscript on every level but the source's."""
    lines = header + ["block\tterminal\tcodeword"]
    for block, levels in schedule.slots.items():
        for p, (terminal, args) in enumerate(zip(terminals, levels)):
            w = "w" if p == 0 else f"w^{terminal}"
            rendered = ["1" if q == 0 else f"{w}({q})" if t == 0
                        else f"{w}({q},{t})" for q, t in args]
            rest = f" | {', '.join(rendered[1:])}" if len(rendered) > 1 else ""
            lines.append(f"{block}\tT{terminal}\t"
                         f"x{terminal}( {rendered[0]}{rest} )")
    return "\n".join(lines) + "\n"


def render_sliding_schedule(terminals: tuple[int, ...], B: int) -> str:
    """Dry-run encoding table for a sliding-window plan.

    ``terminals`` are the transmitting terminals in plan-position order
    (position 0 is the source).  One row per terminal per block.
    """
    terminals = tuple(whole_number(t, "a terminal", 0) for t in terminals)
    B = whole_number(B, "B")
    depth = len(terminals) - 1
    schedule = sliding_schedule(depth, B)
    return _render(schedule, terminals, [
        "# sliding-window encoding schedule",
        f"# terminals: {','.join(f'T{t}' for t in terminals)}; "
        f"depth D={depth}; source blocks Q={schedule.source_blocks}; "
        f"channel blocks B={B}; codebook copies {schedule.copies}",
        "# decode rule: position i, lag j=0..i-1: codeword levels i-1-j..D "
        "tested jointly with the decoder's block b-j output",
        "# alternate level reading i-1-j..D-1 (rejected: inconsistent with "
        "this table)",
    ])


def render_backward_schedule(K: int, B: int) -> str:
    """Dry-run encoding table for the backward protocol with K relays."""
    K, B = whole_number(K, "K"), whole_number(B, "B")
    schedule = backward_schedule(K, B)
    return _render(schedule, tuple(range(K + 1)), [
        "# backward-decoding encoding schedule",
        f"# relays K={K}; source blocks Q={schedule.source_blocks}; "
        f"channel blocks {schedule.channel_blocks}; "
        f"bins w(q,k) per decoding terminal k=1..{K + 1}",
        "# decode order: T1 forward per block; T2 backward per run; "
        "destination backward over all blocks; final block unused",
    ])
