"""Deterministic derivation of independent random streams.

Campaigns address every random decision by a path of small integers
under one root seed.  Streams for distinct paths are statistically
independent and do not depend on creation order.  A campaign addresses
a chunk of trials, not a single trial, by one path (see
:mod:`cvpuk.experiments`), and draws the whole chunk from it; chunks are
the unit that is reproducible on its own, so they can execute in any
order, or in parallel, without changing any result.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the sub-stream addressed by ``path`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))
