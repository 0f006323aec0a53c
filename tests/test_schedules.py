"""Block-schedule arithmetic and byte-stable dry-run tables."""

from pathlib import Path

import pytest

import relaycast as rc
from relaycast.errors import BTooSmall, UnsupportedK
from relaycast.schedules import (
    backward_decode_events,
    backward_encoder_args,
    backward_num_blocks,
    sliding_decode_events,
    sliding_decode_windows,
    sliding_encoder_args,
)

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


def test_sliding_encoder_args_identity_depth2():
    # block 3 of the B=4 schedule: source sends (1 | w(2), w(1))
    assert sliding_encoder_args(0, 3, 2, 2) == (0, 2, 1)
    assert sliding_encoder_args(1, 3, 2, 2) == (2, 1)
    assert sliding_encoder_args(2, 3, 2, 2) == (1,)
    # beyond the source run everything pads
    assert sliding_encoder_args(0, 4, 2, 2) == (0, 0, 2)


def test_sliding_decode_windows_shape():
    # destination (position 3) at block b tests lags 0..2 with levels 2,1,0
    windows = sliding_decode_windows(3, 5)
    assert [w.level for w in windows] == [2, 1, 0]
    assert [w.block for w in windows] == [5, 4, 3]
    # the candidate slot always names the block being decoded
    assert all(sliding_encoder_args(w.level, w.block, 2, 3)[0] == 3
               for w in windows)
    # deeper levels only reference older blocks
    for w in windows:
        for p in range(w.level + 1, 3):
            assert all(q < 3 for q in sliding_encoder_args(p, w.block, 2, 3))


def test_backward_counts():
    assert backward_num_blocks(0, 4) == (4, 4)
    assert backward_num_blocks(1, 4) == (4, 5)
    assert backward_num_blocks(2, 3) == (9, 16)
    with pytest.raises(UnsupportedK):
        backward_num_blocks(3, 2)
    with pytest.raises(BTooSmall):
        backward_num_blocks(2, 0)


def test_backward_encoder_args_k2():
    # run k=1, position c=2 of the B=2 table (global block 5)
    assert backward_encoder_args(2, 2, 5) == [
        ((4, 1), (3, 2), (2, 3)), ((3, 2), (2, 3)), ((2, 3),)]
    # final block is fully padded
    assert backward_encoder_args(2, 2, 9) == [
        ((0, 1), (0, 2), (0, 3)), ((0, 2), (0, 3)), ((0, 3),)]


def test_backward_decode_events_cover_every_block_and_terminal():
    for K, B in [(0, 3), (1, 3), (2, 2)]:
        Q, _ = backward_num_blocks(K, B)
        events = backward_decode_events(K, B)
        for k in range(1, K + 2):
            qs = sorted(ev.q for ev in events if ev.terminal == k)
            assert qs == list(range(1, Q + 1))


def test_backward_decode_events_order_is_nested():
    # K=2, B=2: T1 forward within the run, then T2 backward, runs in order,
    # destination strictly backward at the end
    events = backward_decode_events(2, 2)
    tags = [(ev.terminal, ev.q) for ev in events]
    assert tags == [
        (1, 1), (1, 2), (2, 2), (2, 1),
        (1, 3), (1, 4), (2, 4), (2, 3),
        (3, 4), (3, 3), (3, 2), (3, 1),
    ]
    # (terminal, block used, q, block the decode runs after): T1 right
    # after its block, T2 at the end of its run of B+1 blocks, the
    # destination after the final block
    full = [(ev.terminal, ev.block, ev.q, ev.after) for ev in events]
    assert full == [
        (1, 1, 1, 1), (1, 2, 2, 2), (2, 3, 2, 3), (2, 2, 1, 3),
        (1, 4, 3, 4), (1, 5, 4, 5), (2, 6, 4, 6), (2, 5, 3, 6),
        (3, 8, 4, 9), (3, 7, 3, 9), (3, 5, 2, 9), (3, 4, 1, 9),
    ]
    # K=1: the destination T2 decodes backward after the final block
    assert [(ev.terminal, ev.block, ev.q, ev.after)
            for ev in backward_decode_events(1, 2)] == [
        (1, 1, 1, 1), (1, 2, 2, 2), (2, 3, 2, 3), (2, 2, 1, 3)]
    # K=0: the destination T1 decodes right after each block
    assert [(ev.terminal, ev.block, ev.q, ev.after)
            for ev in backward_decode_events(0, 3)] == [
        (1, 1, 1, 1), (1, 2, 2, 2), (1, 3, 3, 3)]


def test_sliding_decode_events_timing():
    # D=2, B=4, Q=2: position i recovers block b-i+1 right after block b
    events = sliding_decode_events(2, 4)
    assert [(ev.position, ev.after, ev.q) for ev in events] == [
        (1, 1, 1), (1, 2, 2), (2, 2, 1), (2, 3, 2), (3, 3, 1), (3, 4, 2)]
    for ev in events:
        assert list(ev.windows) == sliding_decode_windows(ev.position,
                                                          ev.after)
