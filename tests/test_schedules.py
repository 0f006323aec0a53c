"""Block-schedule arithmetic and byte-stable dry-run tables."""

from pathlib import Path

import pytest

import relaycast as rc
from relaycast.errors import BTooSmall, UnsupportedK
from relaycast.schedules import backward_schedule, sliding_schedule

GOLDEN = Path(__file__).parent / "golden"


def test_sliding_golden_k2_b4():
    got = rc.render_sliding_schedule((0, 1, 2), 4)
    assert got == (GOLDEN / "sliding_k2_b4.txt").read_text()


def test_backward_golden_k2_b2():
    got = rc.render_backward_schedule(2, 2)
    assert got == (GOLDEN / "backward_k2_b2.txt").read_text()


def test_sliding_k2_b2_all_padding():
    # B = D+1 leaves zero source blocks: every argument is the padding "1"
    table = rc.render_sliding_schedule((0, 1, 2), 2)
    rows = [r for r in table.splitlines() if not r.startswith(("#", "block"))]
    assert len(rows) == 6
    assert all("w(" not in r for r in rows)


def test_backward_k1_structure():
    # B source blocks over B+1 channel blocks; run tail reuses the last bin
    table = rc.render_backward_schedule(1, 3)
    lines = table.splitlines()
    assert "1\tT0\tx0( w(1,1) | 1 )" in lines
    assert "2\tT0\tx0( w(2,1) | w(1,2) )" in lines
    assert "4\tT0\tx0( 1 | w(3,2) )" in lines
    assert "4\tT1\tx1( w^1(3,2) )" in lines


def _args(schedule, block, level):
    """The source blocks of level ``level``'s argument slots in ``block``."""
    return tuple(q for q, _ in schedule.slots[block][level])


def test_sliding_encoder_args_identity_depth2():
    # block 3 of the B=4 schedule: source sends (1 | w(2), w(1))
    schedule = sliding_schedule(2, 4)
    assert _args(schedule, 3, 0) == (0, 2, 1)
    assert _args(schedule, 3, 1) == (2, 1)
    assert _args(schedule, 3, 2) == (1,)
    # beyond the source run everything pads
    assert _args(schedule, 4, 0) == (0, 0, 2)
    # one identity bin type in every slot
    assert {t for levels in schedule.slots.values() for args in levels
            for _, t in args} == {0}


def test_sliding_windows_shape():
    # destination (position 3) at block 5 tests lags 0..2 with levels 2,1,0
    schedule = sliding_schedule(2, 5)
    ev = next(ev for ev in schedule.events
              if ev.position == 3 and ev.after == 5)
    assert ev.q == 3
    assert [w[1] for w in ev.windows] == [2, 1, 0]
    assert [w[0] for w in ev.windows] == [5, 4, 3]
    # each window carries the candidate on one level, in its own slot
    assert all(w[2] == 1 for w in ev.windows)
    # the candidate slot always names the block being decoded
    assert all(_args(schedule, block, level)[0] == 3
               for block, level, _ in ev.windows)
    # deeper levels only reference older blocks
    for block, level, _ in ev.windows:
        for p in range(level + 1, 3):
            assert all(q < 3 for q in _args(schedule, block, p))


def test_sliding_counts():
    schedule = sliding_schedule(2, 4)
    assert (schedule.source_blocks, schedule.channel_blocks,
            schedule.copies) == (2, 4, 2)
    assert sliding_schedule(0, 3).copies == 1
    assert sliding_schedule(2, 2).source_blocks == 0
    with pytest.raises(BTooSmall):
        sliding_schedule(2, 1)


def test_backward_counts():
    for K, B, want in [(0, 4, (4, 4)), (1, 4, (4, 5)), (2, 3, (9, 16))]:
        schedule = backward_schedule(K, B)
        assert (schedule.source_blocks, schedule.channel_blocks) == want
        assert schedule.copies == 1
    with pytest.raises(UnsupportedK):
        backward_schedule(3, 2)
    with pytest.raises(BTooSmall):
        backward_schedule(2, 0)


def test_backward_encoder_args_k2():
    schedule = backward_schedule(2, 2)
    # run k=1, position c=2 of the B=2 table (global block 5)
    assert schedule.slots[5] == [
        ((4, 1), (3, 2), (2, 3)), ((3, 2), (2, 3)), ((2, 3),)]
    # final block is fully padded
    assert schedule.slots[9] == [
        ((0, 1), (0, 2), (0, 3)), ((0, 2), (0, 3)), ((0, 3),)]


def test_backward_decode_events_cover_every_block_and_terminal():
    for K, B in [(0, 3), (1, 3), (2, 2)]:
        schedule = backward_schedule(K, B)
        for k in range(1, K + 2):
            qs = sorted(ev.q for ev in schedule.events if ev.position == k)
            assert qs == list(range(1, schedule.source_blocks + 1))


def _timing(events):
    """(terminal, block used, q, block the decode runs after) per event; a
    backward decode is one window over every level, the candidate in the
    slots of the decoder's own bin type."""
    assert all(ev.windows == ((ev.windows[0][0], 0, ev.position),)
               for ev in events)
    return [(ev.position, ev.windows[0][0], ev.q, ev.after) for ev in events]


def test_backward_decode_events_order_is_nested():
    # K=2, B=2: T1 forward within the run, then T2 backward, runs in order,
    # destination strictly backward at the end
    events = backward_schedule(2, 2).events
    tags = [(ev.position, ev.q) for ev in events]
    assert tags == [
        (1, 1), (1, 2), (2, 2), (2, 1),
        (1, 3), (1, 4), (2, 4), (2, 3),
        (3, 4), (3, 3), (3, 2), (3, 1),
    ]
    # T1 right after its block, T2 at the end of its run of B+1 blocks, the
    # destination after the final block
    assert _timing(events) == [
        (1, 1, 1, 1), (1, 2, 2, 2), (2, 3, 2, 3), (2, 2, 1, 3),
        (1, 4, 3, 4), (1, 5, 4, 5), (2, 6, 4, 6), (2, 5, 3, 6),
        (3, 8, 4, 9), (3, 7, 3, 9), (3, 5, 2, 9), (3, 4, 1, 9),
    ]
    # K=1: the destination T2 decodes backward after the final block
    assert _timing(backward_schedule(1, 2).events) == [
        (1, 1, 1, 1), (1, 2, 2, 2), (2, 3, 2, 3), (2, 2, 1, 3)]
    # K=0: the destination T1 decodes right after each block
    assert _timing(backward_schedule(0, 3).events) == [
        (1, 1, 1, 1), (1, 2, 2, 2), (1, 3, 3, 3)]


def test_sliding_decode_events_timing():
    # D=2, B=4, Q=2: position i recovers block b-i+1 right after block b
    events = sliding_schedule(2, 4).events
    assert [(ev.position, ev.after, ev.q) for ev in events] == [
        (1, 1, 1), (1, 2, 2), (2, 2, 1), (2, 3, 2), (3, 3, 1), (3, 4, 2)]
    # one window per lag j, on block b-j and level i-1-j
    for ev in events:
        assert ev.windows == tuple((ev.after - lag, ev.position - 1 - lag, 1)
                                   for lag in range(ev.position))


def test_ptp_is_one_backward_block():
    schedule = backward_schedule(0, 1)
    assert schedule.slots == {1: [((1, 1),)]}
    assert [tuple(ev) for ev in schedule.events] == [(1, 1, 1, ((1, 0, 1),))]
    assert rc.render_backward_schedule(0, 1).splitlines()[-1] == \
        "1\tT0\tx0( w(1,1) )"
