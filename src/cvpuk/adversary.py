"""False keys and imperfect clones for stress-testing verification.

A false key is simply a fresh random key; a clone copies the true key
but replaces a chosen fraction of its reflection coefficients with
fresh draws from the same ensemble, modelling a counterfeiter who knows
the material statistics but cannot reproduce every scatterer.

Campaigns draw false keys and clones through their sufficient statistic.
A false key's circular Gaussian coefficients are independent of the mask
it is seen through, so its masked sum ``sum_j c_j sqrt(tau / n) e^{i
phi_j}`` is exactly a circular Gaussian of variance ``tau (1 - l/L) / n``
whatever the mask; :func:`false_key_sums` draws that one number per key,
and :func:`clone_sums` one per clone for its fresh coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .jsonio import REAL_INTERVALS, require_real
from .scattering import (PhaseMask, ScatteringKey, draw_coefficients, ensemble_variance,
                         generate_key, masked_terms)

__all__ = [
    "false_key",
    "false_key_sums",
    "clone_key",
    "clone_sums",
]


def false_key(mode_count: int, l_over_L: float, rng: np.random.Generator) -> ScatteringKey:
    """A counterfeit key with no knowledge of the original: a fresh random key."""
    return generate_key(mode_count, l_over_L, rng)


def replaced_count(fraction: float, mode_count: int) -> int:
    """Number of coefficients a clone replaces: fraction * mode_count,
    rounded to the nearest integer with ties away from zero."""
    fraction = require_real("fraction", fraction, REAL_INTERVALS["d_values"])
    return int(math.floor(fraction * mode_count + 0.5))


def _replaced_positions(true_key: ScatteringKey, fraction: float, rows: int,
                        rng: np.random.Generator | None) -> np.ndarray:
    """Replaced positions ``(rows, count)`` of ``rows`` clones, the first ``count`` of each
    row's argsort of one ``random((rows, n))`` call; ``count == 0`` uses no ``rng``."""
    count = replaced_count(fraction, true_key.mode_count)
    if not count:
        return np.empty((rows, 0), dtype=np.intp)
    # copied out, so the (rows, n) uniforms and their order are freed first
    return rng.random((rows, true_key.mode_count)).argsort(axis=1)[:, :count].copy()


def clone_key(true_key: ScatteringKey, fraction: float,
              rng: np.random.Generator) -> tuple[ScatteringKey, np.ndarray]:
    """Imperfect copy of a key differing in a fraction of its coefficients,
    and the positions it replaced, an int array.

    Picks the replaced positions uniformly without replacement and draws
    the replacements from the same complex Gaussian ensemble as the
    original; all other coefficients are copied exactly.
    """
    positions = _replaced_positions(true_key, fraction, 1, rng)[0]
    coefficients = true_key.coefficients.copy()
    coefficients[positions] = draw_coefficients(1, positions.size, true_key.variance, rng)[0]
    return ScatteringKey(coefficients, true_key.l_over_L), positions


def false_key_sums(mode_count: int, l_over_L: float, tau: float, rows: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Masked sums of ``rows`` false keys under any mask, shape ``(rows,)``.

    The one-mode case of :func:`draw_coefficients` at the sum's variance
    ``tau * (1 - l_over_L) / mode_count``: one ``(rows, 2, 1)`` block of
    standard normals, so the first ``r`` rows equal an ``r``-row draw.
    """
    tau = require_real("tau", tau, REAL_INTERVALS["tau"])
    return draw_coefficients(rows, 1, tau * ensemble_variance(mode_count, l_over_L), rng)[:, 0]


def clone_sums(true_key: ScatteringKey, fraction: float, tau: float, mask: PhaseMask,
               rows: int, rng: np.random.Generator | None) -> np.ndarray:
    """Masked sums of ``rows`` clones under ``mask``, shape ``(rows,)``: row ``r``
    is ``true_sum - sum(t[R_r]) + fresh_r``, with ``t`` the true key's
    :func:`masked_terms`, ``R_r`` the positions :func:`clone_key` would pick
    and ``fresh_r`` the replacements' terms, one circular Gaussian of variance
    ``count * tau * variance / n`` from a ``(rows, 2, 1)`` block drawn after
    all positions.  A fraction that replaces nothing never uses ``rng``."""
    terms = masked_terms(true_key.coefficients, tau, mask)
    positions = _replaced_positions(true_key, fraction, rows, rng)
    count = positions.shape[1]
    if not count:
        return np.full(rows, np.sum(terms))
    fresh = draw_coefficients(rows, 1, count * tau * true_key.variance / true_key.mode_count, rng)
    return np.sum(terms) - np.sum(terms[positions], axis=1) + fresh[:, 0]
