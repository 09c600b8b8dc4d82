"""False keys and imperfect clones for stress-testing verification.

A false key is simply a fresh random key; a clone copies the true key
but replaces a chosen fraction of its reflection coefficients with
fresh draws from the same ensemble, modelling a counterfeiter who knows
the material statistics but cannot reproduce every scatterer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scattering import ScatteringKey, generate_key

__all__ = [
    "CloneSpec",
    "false_key",
    "clone_key",
]


@dataclass(frozen=True)
class CloneSpec:
    """Which coefficients a clone replaced, and the requested fraction."""

    fraction: float
    replaced_indices: frozenset[int]


def false_key(mode_count: int, l_over_L: float, rng: np.random.Generator,
              target_mode: int = 0) -> ScatteringKey:
    """A counterfeit key with no knowledge of the original: a fresh random key."""
    return generate_key(mode_count, l_over_L, rng, target_mode=target_mode)


def replaced_count(fraction: float, mode_count: int) -> int:
    """Number of coefficients a clone replaces: fraction * mode_count,
    rounded to the nearest integer with ties away from zero."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    return int(math.floor(fraction * mode_count + 0.5))


def clone_key(true_key: ScatteringKey, fraction: float,
              rng: np.random.Generator) -> tuple[ScatteringKey, CloneSpec]:
    """Imperfect copy of a key differing in a fraction of its coefficients.

    Picks the replaced positions uniformly without replacement and draws
    the replacements from the same complex Gaussian ensemble as the
    original; all other coefficients are copied exactly.
    """
    count = replaced_count(fraction, true_key.mode_count)
    coefficients = true_key.coefficients.copy()
    if count:
        indices = rng.choice(true_key.mode_count, size=count, replace=False)
        scale = math.sqrt(true_key.variance / 2.0)
        parts = rng.standard_normal((2, count))
        coefficients[indices] = scale * (parts[0] + 1j * parts[1])
    else:
        indices = np.empty(0, dtype=int)
    clone = ScatteringKey(
        coefficients=coefficients,
        variance=true_key.variance,
        mode_count=true_key.mode_count,
        target_mode=true_key.target_mode,
        l_over_L=true_key.l_over_L,
    )
    return clone, CloneSpec(float(fraction), frozenset(int(i) for i in indices))
