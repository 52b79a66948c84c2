"""Deterministic random streams split from a single master seed.

Every source of randomness in a run (data generation, the shared initial
point, MNIST row shuffling, dither) draws from its own stream so
that, e.g., a bit-width sweep reuses the exact same data and initialization.
Streams are keyed by (master seed, stream id, *path) through numpy's
SeedSequence spawn keys, which are stable across platforms.

Dither is drawn per epoch: epoch k's noise for all agents is one (n, d, r)
block from ``stream_rng(master_seed, STREAM_DITHER, k)``, and agent i's
noise is slice i. An epoch's draws therefore do not depend on how much any
earlier epoch consumed, nor on the order in which agents are processed.
"""

from __future__ import annotations

import numpy as np

STREAM_DATA = 0
STREAM_INIT = 1
STREAM_DITHER = 2
STREAM_SHUFFLE = 3
STREAM_TOPOLOGY = 4


def stream_rng(master_seed: int, stream: int, *path: int) -> np.random.Generator:
    """Independent generator for (master_seed, stream, *path)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, *path))
    return np.random.default_rng(seq)

