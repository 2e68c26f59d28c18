"""Deterministic RNG substreams derived from a single master seed.

Every source of randomness in a run (client shifts, per-client reward noise)
draws from its own generator, keyed by a ``(purpose, index)`` spawn key on
top of the master seed.  Adding draws to one stream therefore never perturbs
any other, and a run is reproducible from the master seed alone.
"""
from __future__ import annotations

import numpy as np

PURPOSE_SHIFTS = 0
PURPOSE_NOISE = 1


def substream(master_seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Generator for the (purpose, index) substream of a master seed."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(purpose, index))
    return np.random.default_rng(seq)
