"""Deterministic random streams split from a single master seed.

Every source of randomness in a run (data generation, the shared initial
point, MNIST row shuffling, dither) draws from its own stream so
that, e.g., a bit-width sweep reuses the exact same data and initialization.
Streams are keyed by (master seed, stream id) through numpy's
SeedSequence spawn keys, which are stable across platforms.

A run's dither is one stream, ``stream_rng(master_seed, STREAM_DITHER)``,
cut into equal blocks of B = n*d*r uniform draws (one 64-bit output each):
epoch k's noise for all agents is the (n, d, r) block of draws
[k*B, (k+1)*B), and agent i's noise is slice i. A run draws the blocks in
order from one generator, so a draw depends only on (master seed, epoch),
not on the order in which agents are processed; a fresh generator skipped
with ``bit_generator.advance(k*B)`` reproduces block k.
"""

from __future__ import annotations

import numpy as np

STREAM_DATA = 0
STREAM_INIT = 1
STREAM_DITHER = 2
STREAM_SHUFFLE = 3
STREAM_TOPOLOGY = 4


def stream_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (master_seed, stream)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream,))
    return np.random.default_rng(seq)

