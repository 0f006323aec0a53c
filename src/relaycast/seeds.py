"""Deterministic seed-stream derivation.

One root seed fans out into independent per-trial / per-purpose streams via
``SeedSequence(entropy=root, spawn_key=path)``.  Every consumer derives its
generator from the path alone, so results cannot depend on execution order
and parallel runs reproduce serial ones bit for bit.

Stream path layout used by the simulators::

    (trial, STREAM_SOURCE,   block)                  source/side-info draws
    (trial, STREAM_BINS,     terminal)               bin assignment map
    (trial, STREAM_CODEBOOK, level, copy, *cond)     channel codeword slices
    (trial, STREAM_CHANNEL,  block)                  channel noise
and the rate engine uses ``(STREAM_OPTIMIZER, salt, restart)``.
"""

from __future__ import annotations

import numpy as np

STREAM_SOURCE = 0
STREAM_BINS = 1
STREAM_CODEBOOK = 2
STREAM_CHANNEL = 3
STREAM_OPTIMIZER = 4


def child_rng(root_seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by ``path`` under ``root_seed``."""
    ss = np.random.SeedSequence(entropy=int(root_seed),
                                spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)
