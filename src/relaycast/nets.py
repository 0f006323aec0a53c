"""Bundled test networks, addressable by name.

All are binary desk-scale instances built from BSC hops and doubly symmetric
binary sources, so the expected rates have closed forms.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError
from .network import ChannelModel, NetworkSpec
from .pmf import JointPmf


def _flip(diff: int, p: float) -> float:
    return p if diff else 1.0 - p


def dsbs_chain(flips: list[float]) -> np.ndarray:
    """p(s_0..s_k) for S_0 uniform and S_{i+1} = S_i xor Bern(flips[i])."""
    k = len(flips)
    shape = (2,) * (k + 1)
    probs = np.zeros(shape)
    for idx in np.ndindex(shape):
        p = 0.5
        for i, f in enumerate(flips):
            p *= _flip(idx[i] ^ idx[i + 1], f)
        probs[idx] = p
    return probs


def branch_sources(flips: list[float]) -> np.ndarray:
    """p(s_0..s_k) with each S_i = S_0 xor Bern(flips[i-1]), independently."""
    k = len(flips)
    shape = (2,) * (k + 1)
    probs = np.zeros(shape)
    for idx in np.ndindex(shape):
        p = 0.5
        for i, f in enumerate(flips):
            p *= _flip(idx[0] ^ idx[i + 1], f)
        probs[idx] = p
    return probs


def _sources(name_probs: np.ndarray) -> JointPmf:
    n = name_probs.ndim
    return JointPmf(tuple(f"S{i}" for i in range(n)), name_probs.shape,
                    name_probs)


def net_a(crossover: float = 0.1, side_flip: float = 0.25) -> NetworkSpec:
    """K=0, L=1: BSC(crossover) with DSBS(side_flip) receiver side info."""
    ch = np.zeros((2, 1, 2))
    for x0 in range(2):
        for y1 in range(2):
            ch[x0, 0, y1] = _flip(x0 ^ y1, crossover)
    return NetworkSpec(K=0, L=1, channel=ChannelModel((2, 1), (2,), ch),
                       sources=_sources(dsbs_chain([side_flip])), name="net-a")


def net_a_noiseless() -> NetworkSpec:
    spec = net_a(crossover=0.0)
    return NetworkSpec(K=0, L=1, channel=spec.channel, sources=spec.sources,
                       name="net-a-noiseless")


def net_b() -> NetworkSpec:
    """K=1 physically degraded cascade.

    Y1 = X0 xor Bern(0.1), Y2 = Y1 xor X1 xor Bern(0.15); side info chain
    S0 -> S1 -> S2 with flips 0.1 then 0.2.
    """
    ch = np.zeros((2, 2, 1, 2, 2))
    for x0 in range(2):
        for x1 in range(2):
            for y1 in range(2):
                for y2 in range(2):
                    ch[x0, x1, 0, y1, y2] = (_flip(x0 ^ y1, 0.1)
                                             * _flip(y1 ^ x1 ^ y2, 0.15))
    return NetworkSpec(K=1, L=1, channel=ChannelModel((2, 2, 1), (2, 2), ch),
                       sources=_sources(dsbs_chain([0.1, 0.2])), name="net-b")


def net_c() -> NetworkSpec:
    """K=1 noiseless cascade: Y1 = X0, Y2 = X1; side chain flips 0.1, 0.2."""
    ch = np.zeros((2, 2, 1, 2, 2))
    for x0 in range(2):
        for x1 in range(2):
            ch[x0, x1, 0, x0, x1] = 1.0
    return NetworkSpec(K=1, L=1, channel=ChannelModel((2, 2, 1), (2, 2), ch),
                       sources=_sources(dsbs_chain([0.1, 0.2])), name="net-c")


def net_bc2() -> NetworkSpec:
    """K=0, L=2 broadcast: BSC(0.1) and BSC(0.2) branches, silent receivers.

    Side information: S1 = S0 xor Bern(0.25), S2 = S0 xor Bern(0.1).
    """
    ch = np.zeros((2, 1, 1, 2, 2))
    for x0 in range(2):
        for y1 in range(2):
            for y2 in range(2):
                ch[x0, 0, 0, y1, y2] = (_flip(x0 ^ y1, 0.1)
                                        * _flip(x0 ^ y2, 0.2))
    return NetworkSpec(K=0, L=2, channel=ChannelModel((2, 1, 1), (2, 2), ch),
                       sources=_sources(branch_sources([0.25, 0.1])),
                       name="net-bc2")


def net_d() -> NetworkSpec:
    """K=2, L=1 noiseless 3-hop cascade; side chain flips 0.1, 0.2, 0.1."""
    ch = np.zeros((2, 2, 2, 1, 2, 2, 2))
    for x0 in range(2):
        for x1 in range(2):
            for x2 in range(2):
                ch[x0, x1, x2, 0, x0, x1, x2] = 1.0
    return NetworkSpec(K=2, L=1,
                       channel=ChannelModel((2, 2, 2, 1), (2, 2, 2), ch),
                       sources=_sources(dsbs_chain([0.1, 0.2, 0.1])),
                       name="net-d")


def net_h() -> NetworkSpec:
    """K=0, L=2 with one transmitting destination.

    T1 hears Y1 = X0 xor Bern(0.1) and forwards over X1; T2 hears
    Y2 = X1 xor Bern(0.15).  Side info: S1 = S0 xor Bern(0.05),
    S2 = S0 xor Bern(0.25).
    """
    ch = np.zeros((2, 2, 1, 2, 2))
    for x0 in range(2):
        for x1 in range(2):
            for y1 in range(2):
                for y2 in range(2):
                    ch[x0, x1, 0, y1, y2] = (_flip(x0 ^ y1, 0.1)
                                             * _flip(x1 ^ y2, 0.15))
    return NetworkSpec(K=0, L=2, channel=ChannelModel((2, 2, 1), (2, 2), ch),
                       sources=_sources(branch_sources([0.05, 0.25])),
                       name="net-h")


BUNDLED = {
    "net-a": net_a,
    "net-a-noiseless": net_a_noiseless,
    "net-b": net_b,
    "net-c": net_c,
    "net-bc2": net_bc2,
    "net-d": net_d,
    "net-h": net_h,
}


def bundled_network(name: str) -> NetworkSpec:
    key = name.strip().lower()
    if key not in BUNDLED:
        raise SchemaError(
            f"unknown bundled network {name!r}; known: {sorted(BUNDLED)}")
    return BUNDLED[key]()
