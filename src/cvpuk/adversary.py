"""False keys and imperfect clones for stress-testing verification.

A false key is simply a fresh random key; a clone copies the true key
but replaces a chosen fraction of its reflection coefficients with
fresh draws from the same ensemble, modelling a counterfeiter who knows
the material statistics but cannot reproduce every scatterer.

Campaigns draw false keys through their sufficient statistic.  A false
key's circular Gaussian coefficients are independent of the mask it is
seen through, so its masked sum ``sum_j c_j sqrt(tau / n) e^{i phi_j}``
is exactly a circular Gaussian of variance ``tau (1 - l/L) / n``
whatever the mask; :func:`false_key_sums` draws that one number per key
instead of the key's ``n`` coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .scattering import (
    ScatteringKey,
    draw_coefficients,
    ensemble_variance,
    generate_key,
    require_finite,
)

__all__ = [
    "false_key",
    "false_key_sums",
    "clone_key",
    "clone_rows",
]


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


def _clone_draw(true_key: ScatteringKey, fraction: float, rows: int,
                rng: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray]:
    """Replaced positions ``(rows, count)`` and coefficients ``(rows, n)`` of
    ``rows`` clones.  One ``random((rows, n))`` call picks each row's
    positions, the first ``count`` of its ascending order (a uniform
    choice without replacement); one :func:`draw_coefficients` call gives
    their values, so the first ``r`` rows are not an ``r``-row draw.
    """
    count = replaced_count(fraction, true_key.mode_count)
    if not count:
        return np.empty((rows, 0), dtype=np.intp), np.tile(true_key.coefficients, (rows, 1))
    # copied out, so the (rows, n) uniforms and their order are freed first
    positions = rng.random((rows, true_key.mode_count)).argsort(axis=1)[:, :count].copy()
    coefficients = np.tile(true_key.coefficients, (rows, 1))
    np.put_along_axis(coefficients, positions,
                      draw_coefficients(rows, count, true_key.variance, rng), axis=1)
    return positions, coefficients


def clone_key(true_key: ScatteringKey, fraction: float,
              rng: np.random.Generator) -> tuple[ScatteringKey, np.ndarray]:
    """Imperfect copy of a key differing in a fraction of its coefficients,
    and the positions it replaced, an int array.

    Picks the replaced positions uniformly without replacement and draws
    the replacements from the same complex Gaussian ensemble as the
    original; all other coefficients are copied exactly.
    """
    positions, coefficients = _clone_draw(true_key, fraction, 1, rng)
    clone = ScatteringKey(
        coefficients=coefficients[0],
        mode_count=true_key.mode_count,
        target_mode=true_key.target_mode,
        l_over_L=true_key.l_over_L,
    )
    return clone, positions[0]


def false_key_sums(mode_count: int, l_over_L: float, tau: float, rows: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Masked sums of ``rows`` false keys under any mask, shape ``(rows,)``.

    The one-mode case of :func:`draw_coefficients` at the sum's variance
    ``tau * (1 - l_over_L) / mode_count``: one ``(rows, 2, 1)`` block of
    standard normals, so the first ``r`` rows equal an ``r``-row draw.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be finite and lie in (0, 1], got {tau!r}")
    sums = draw_coefficients(rows, 1, tau * ensemble_variance(mode_count, l_over_L), rng)[:, 0]
    require_finite(sums)
    return sums


def clone_rows(true_key: ScatteringKey, fraction: float, rows: int,
               rng: np.random.Generator | None) -> np.ndarray:
    """Coefficients of ``rows`` clones, a ``(rows, n)`` block; :func:`clone_key`
    is the one-row case.  A fraction that replaces nothing copies the key
    into every row and never uses ``rng``, which may then be None."""
    block = _clone_draw(true_key, fraction, rows, rng)[1]
    require_finite(block)
    return block
