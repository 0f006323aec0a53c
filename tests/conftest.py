import math

import numpy as np
import pytest

import relaycast as rc


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
