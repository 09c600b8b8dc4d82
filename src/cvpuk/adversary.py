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

from .scattering import (
    ScatteringKey,
    draw_coefficients,
    ensemble_variance,
    generate_key,
    require_finite,
)

__all__ = [
    "CloneSpec",
    "false_key",
    "false_key_rows",
    "clone_key",
    "clone_rows",
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


def _replace_coefficients(coefficients: np.ndarray, count: int, variance: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Overwrite ``count`` positions of ``coefficients``, in place, with fresh draws.

    Picks the positions uniformly without replacement, then draws their
    new values; returns the positions.  No draw is made when ``count``
    is 0.
    """
    if not count:
        return np.empty(0, dtype=int)
    indices = rng.choice(coefficients.size, size=count, replace=False)
    coefficients[indices] = draw_coefficients(count, variance, rng)
    return indices


def clone_key(true_key: ScatteringKey, fraction: float,
              rng: np.random.Generator) -> tuple[ScatteringKey, CloneSpec]:
    """Imperfect copy of a key differing in a fraction of its coefficients.

    Picks the replaced positions uniformly without replacement and draws
    the replacements from the same complex Gaussian ensemble as the
    original; all other coefficients are copied exactly.
    """
    count = replaced_count(fraction, true_key.mode_count)
    coefficients = true_key.coefficients.copy()
    indices = _replace_coefficients(coefficients, count, true_key.variance, rng)
    clone = ScatteringKey(
        coefficients=coefficients,
        variance=true_key.variance,
        mode_count=true_key.mode_count,
        target_mode=true_key.target_mode,
        l_over_L=true_key.l_over_L,
    )
    return clone, CloneSpec(float(fraction), frozenset(int(i) for i in indices))


def false_key_rows(mode_count: int, l_over_L: float, rngs) -> np.ndarray:
    """Coefficients of one false key per generator, as a ``(len(rngs), n)`` block.

    Row ``t`` holds exactly the coefficients ``false_key(mode_count,
    l_over_L, rngs[t])`` would draw.
    """
    variance = ensemble_variance(mode_count, l_over_L)
    rows = np.empty((len(rngs), mode_count), dtype=complex)
    for row, rng in zip(rows, rngs):
        row[:] = draw_coefficients(mode_count, variance, rng)
    require_finite(rows)
    return rows


def clone_rows(true_key: ScatteringKey, fraction: float, rngs) -> np.ndarray:
    """Coefficients of one clone per generator, as a ``(len(rngs), n)`` block.

    Row ``t`` holds exactly the coefficients of ``clone_key(true_key,
    fraction, rngs[t])``.
    """
    count = replaced_count(fraction, true_key.mode_count)
    rows = np.empty((len(rngs), true_key.mode_count), dtype=complex)
    rows[:] = true_key.coefficients
    for row, rng in zip(rows, rngs):
        _replace_coefficients(row, count, true_key.variance, rng)
    require_finite(rows)
    return rows
