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
                        rng: np.random.Generator) -> np.ndarray:
    """Replaced positions ``(rows, count)`` of ``rows`` clones by a partial
    Fisher–Yates shuffle (Durstenfeld, CACM 7, 420, 1964) of each row's slots
    ``0 .. n-1``: one ``integers(0, n - arange(s), size=(rows, s))`` call,
    ``s = min(count, n - count)``, then step ``i`` swaps slot ``i`` with slot
    ``i + offset``.  The replaced positions are slots ``:count``, or past
    half the complement of the ``s`` kept ones, slots ``s:``.  Row ``r``
    depends only on row ``r`` of the offsets, so the first rows equal a
    draw of fewer rows.  ``count == 0`` and ``count == n`` draw nothing
    from ``rng``."""
    n = true_key.mode_count
    count = replaced_count(fraction, n)
    if not count:
        return np.empty((rows, 0), dtype=np.intp)
    steps = min(count, n - count)
    offsets = rng.integers(0, n - np.arange(steps), size=(rows, steps))
    # slot k of row r sits at k * rows + r, so each step's slot i is one contiguous run
    targets = (offsets.T + np.arange(steps)[:, np.newaxis]) * rows + np.arange(rows)
    # a slot holds a position below n, a mode count far below 2**31, so 32 bits
    # hold it: half the table of 64-bit slots to fill and to move
    slots = np.repeat(np.arange(n, dtype=np.int32), rows)
    for i, target in enumerate(targets):
        current = slots[i * rows:(i + 1) * rows]
        picked = slots[target]
        slots[target] = current
        current[...] = picked
    slots = slots.reshape(n, rows)
    # row-major again, so that each clone's terms are summed as one row on its own:
    # np.sum(terms[positions], axis=1) adds a column-major row in another order
    kept = slots[:count] if count == steps else slots[steps:]
    return np.ascontiguousarray(kept.T, dtype=np.intp)


def clone_key(true_key: ScatteringKey, fraction: float,
              rng: np.random.Generator) -> tuple[ScatteringKey, np.ndarray]:
    """Imperfect copy of a key differing in a fraction of its coefficients,
    and the positions it replaced, an int array.

    Picks the replaced positions uniformly without replacement, as row 0
    of a :func:`clone_sums` draw of any row count from the same stream,
    and then draws the replacements, one ``(1, 2, count)`` block of
    normals, from the same complex Gaussian ensemble as the original; all
    other coefficients are copied exactly.
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
               rows: int, rng: np.random.Generator) -> np.ndarray:
    """Masked sums of ``rows`` clones under ``mask``, shape ``(rows,)``: row ``r``
    is ``true_sum - sum(t[R_r]) + fresh_r``, with ``t`` the true key's
    :func:`masked_terms`, ``R_r`` row ``r`` of one partial Fisher–Yates draw
    of positions (row 0 is what :func:`clone_key` picks from the same stream)
    and ``fresh_r`` the replacements' terms, one circular Gaussian of variance
    ``count * tau * variance / n`` from a ``(rows, 2, 1)`` block drawn after
    all positions.  ``rng`` is always a generator; a fraction that replaces
    nothing draws nothing from it, and every row is the true sum."""
    terms = masked_terms(true_key.coefficients, tau, mask)
    positions = _replaced_positions(true_key, fraction, rows, rng)
    count = positions.shape[1]
    if not count:
        return np.full(rows, np.sum(terms))
    fresh = draw_coefficients(rows, 1, count * tau * true_key.variance / true_key.mode_count, rng)
    return np.sum(terms) - np.sum(terms[positions], axis=1) + fresh[:, 0]
