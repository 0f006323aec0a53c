import math
from typing import Callable

import numpy as np
import pytest

import relaycast as rc
from relaycast.nets import dsbs_chain


def h2(p: float) -> float:
    """Binary entropy in bits; independent oracle used across the suite."""
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def conv(a: float, b: float) -> float:
    """Binary convolution of flip probabilities."""
    return a * (1 - b) + (1 - a) * b


@pytest.fixture(scope="session")
def net_a():
    return rc.bundled_network("net-a")


@pytest.fixture(scope="session")
def net_a_noiseless():
    return rc.bundled_network("net-a-noiseless")


@pytest.fixture(scope="session")
def net_b():
    return rc.bundled_network("net-b")


@pytest.fixture(scope="session")
def net_c():
    return rc.bundled_network("net-c")


@pytest.fixture(scope="session")
def net_bc2():
    return rc.bundled_network("net-bc2")


@pytest.fixture(scope="session")
def net_d():
    return rc.bundled_network("net-d")


@pytest.fixture(scope="session")
def net_h():
    return rc.bundled_network("net-h")


def k3_parallel_document() -> dict:
    """A K=3 network document: four noiseless parallel links."""
    ch = np.zeros((2, 2, 2, 2, 1) + (2, 2, 2, 2))
    for idx in np.ndindex((2, 2, 2, 2)):
        ch[idx + (0,) + idx] = 1.0
    return {
        "K": 3, "L": 1,
        "input_alphabets": [2, 2, 2, 2, 1],
        "output_alphabets": [2, 2, 2, 2],
        "source_alphabets": [2] * 5,
        "channel": ch.reshape(-1).tolist(),
        "sources": [1 / 32] * 32,
    }


def ternary_relay_net(seed: int) -> rc.NetworkSpec:
    """A seeded K=1 relay network with ternary inputs and outputs and a
    Dirichlet-random channel, p(y1, y2 | x0, x1); no bundled network is
    ternary."""
    ch = np.random.default_rng(seed).dirichlet(np.ones(9), size=9)
    return rc.NetworkSpec(
        K=1, L=1, channel=rc.ChannelModel((3, 3, 1), (3, 3),
                                          ch.reshape(3, 3, 1, 3, 3)),
        sources=rc.JointPmf(("S0", "S1", "S2"), (2, 2, 2),
                            dsbs_chain([0.1, 0.2])))


def degraded_relay_net(seed: int, sizes: tuple[int, int] = (2, 2)
                       ) -> rc.NetworkSpec:
    """A seeded K=1 relay network, physically degraded with its side
    information degraded in the same order: a Dirichlet-random channel
    p(y1 | x0, x1) p(y2 | y1, x1), with X0 of ``sizes[0]`` symbols and X1,
    Y1, Y2 of ``sizes[1]``, and a DSBS side chain S0 - S1 - S2 with random
    flips."""
    rng = np.random.default_rng(seed)
    a, b = sizes
    relay = rng.dirichlet(np.ones(b), size=(a, b))           # (x0, x1, y1)
    dest = rng.dirichlet(np.ones(b), size=(b, b))            # (y1, x1, y2)
    ch = np.einsum("xuv,vuw->xuvw", relay, dest)
    return rc.NetworkSpec(
        K=1, L=1, channel=rc.ChannelModel((a, b, 1), (b, b),
                                          ch.reshape(a, b, 1, b, b)),
        sources=rc.JointPmf(("S0", "S1", "S2"), (2, 2, 2),
                            dsbs_chain(list(rng.uniform(0.05, 0.3, 2)))))


def broadcast_relay_net(seed: int, relay_size: int) -> rc.NetworkSpec:
    """A seeded K=0, L=2 relay-broadcast network: ternary X0, an X1 of
    ``relay_size`` symbols (1: the relay is silent), a Dirichlet-random
    channel p(y1, y2 | x0, x1) with ternary outputs, and a DSBS side chain
    S0 - S1 - S2 with random flips."""
    rng = np.random.default_rng(seed)
    ch = rng.dirichlet(np.ones(9), size=3 * relay_size)
    return rc.NetworkSpec(
        K=0, L=2, channel=rc.ChannelModel(
            (3, relay_size, 1), (3, 3), ch.reshape(3, relay_size, 1, 3, 3)),
        sources=rc.JointPmf(("S0", "S1", "S2"), (2, 2, 2),
                            dsbs_chain(list(rng.uniform(0.05, 0.3, 2)))))


def random_joint(rng: np.random.Generator, variables, sizes,
                 positive: bool = False) -> rc.JointPmf:
    return rc.random_pmf(variables, sizes, rng, positive=positive)


def candidate_rows(engine, trial: int, block: int, first: int, lead: int,
                   own: np.ndarray) -> list[np.ndarray]:
    """The (C, n) rows of one trial's C candidates on each level
    first..first + lead - 1 of a decoding window of ``simulate._Engine``,
    read from the trial's materialized tables: the candidate in slot
    top - p of level p, and in every other slot the bin of the decoder's
    estimate in ``own`` (the trial's row of codebook indices; -1 sends
    index 0)."""
    top = first + lead - 1
    stack = rc.ChannelCodebookStack(engine.n, engine.level_sizes,
                                    engine.laws, engine.schedule.copies,
                                    engine.seed, trial)
    maps = {t: None if r is None else rc.assign_bins(
        engine.codebook, r, engine.seed, t, trial=trial).map
        for t, r in engine.bins.items()}
    copy = stack.copy_for_block(block)
    levels = []
    for p in range(first, top + 1):
        rows = []
        for w in range(engine.level_sizes[top]):
            vals = [w if s == top - p else 0 if own[q] < 0
                    else own[q] if maps[t] is None else maps[t][own[q]]
                    for s, (q, t) in enumerate(engine.schedule.slots[block][p])]
            rows.append(stack.rows(p, copy, tuple(int(v) for v in vals[1:]))
                        [vals[0]])
        levels.append(np.stack(rows))
    return levels


def stage_screen(test, rows: list[np.ndarray], fixed: np.ndarray,
                 dropped: int) -> np.ndarray:
    """Which candidates pass the joint ``test`` on the lead labels after
    the first ``dropped`` ones, counted from each candidate's full tuple:
    per cell of the kept labels, the count must lie within the whole counts
    the joint bounds admit, summed over the dropped labels.  ``rows`` are
    the lead labels' (C, n) rows and ``fixed`` the flattened (n,) rest;
    ``dropped=0`` is the joint test itself."""
    cand = np.zeros(rows[0].shape, dtype=np.int64)
    for row, size in zip(rows, test.sizes):
        cand = cand * size + row
    counts = np.stack([np.bincount(c, minlength=test.ncells)
                       for c in cand * test.tail + fixed])
    kept = test.ncells // int(np.prod(test.sizes[:dropped]))
    sub = counts.reshape(len(cand), -1, kept).sum(axis=1)
    lo = np.ceil(test.lo).reshape(-1, kept).sum(axis=0)
    hi = np.floor(test.hi).reshape(-1, kept).sum(axis=0)
    return ((sub >= lo) & (sub <= hi)).all(axis=1)


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
