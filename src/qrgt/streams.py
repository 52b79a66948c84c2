"""Deterministic random streams split from a single master seed.

Every source of randomness in a run (data generation, the shared initial
point, MNIST row shuffling, per-agent dither) draws from its own stream so
that, e.g., a bit-width sweep reuses the exact same data and initialization.
Streams are keyed by (master seed, stream id, *path) through numpy's
SeedSequence spawn keys, which are stable across platforms.

Dither is counter-based and laid out by (master seed, agent, epoch): agent
i's Philox key is ``dither_key(master_seed, i)``, and epoch k draws from the
counter block that starts at (0, 0, 0, k). No stream is shared between
agents, and an epoch's draws do not depend on how much any earlier epoch
consumed. The engine's ``_Engine._agent_rng`` positions one reused generator
per agent at that block.
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


def dither_key(master_seed: int, agent: int) -> np.ndarray:
    """128-bit Philox key of one agent's dither stream."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(STREAM_DITHER, agent))
    return seq.generate_state(2, np.uint64)
