"""Random scattering keys and phase-only wavefront control.

A key is modelled as a single row of a random reflection matrix: one
complex field-reflection coefficient per controllable input mode, drawn
independently from a circular complex Gaussian whose variance is fixed
by the mode count and the thickness ratio of the diffusive medium.  A
phase-only modulator in front of the key steers the scattered field
into the target output mode.

The set-up illuminates the modulator uniformly: the probe fibre couples
into every input mode with the same real amplitude ``sqrt(tau / n)``, so
its only parameter is the power throughput ``tau``.  A real coupling
adds no phase, so conjugating the phase of each reflection coefficient
makes all terms of the scattered sum interfere constructively, the
global optimum of phase-only control (Vellekoop and Mosk, Opt. Lett. 32,
2309 (2007)), and the optimal mask is a function of the key alone.  So
is the enhancement, a ratio of photon numbers that no throughput or
probe strength enters.

All operations are pure functions of their arguments plus an explicit
random generator, and all value types are immutable after construction,
so they are safe to share across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .jsonio import REAL_INTERVALS, require_array, require_int, require_real

__all__ = [
    "DegenerateKeyError",
    "ScatteringKey",
    "PhaseMask",
    "wrap_phase",
    "require_mode_count",
    "ensemble_variance",
    "draw_coefficients",
    "generate_key",
    "masked_terms",
    "masked_sums",
    "optimal_mask",
    "enhancement",
]

_TWO_PI = 2.0 * math.pi


class DegenerateKeyError(ValueError):
    """The key couples no light at all, so an optimal mask is undefined."""


def wrap_phase(phases):
    """Map angles (scalar or array) to canonical representatives in [-pi, pi).

    Just below ``-pi`` the modulo rounds up to ``pi``, which folds to ``-pi``.
    """
    wrapped = np.mod(np.asarray(phases, dtype=float) + math.pi, _TWO_PI) - math.pi
    return np.where(wrapped >= math.pi, -math.pi, wrapped)[()]


@dataclass(frozen=True)
class ScatteringKey:
    """One row of a key's reflection matrix plus its generating parameter.

    Attributes
    ----------
    coefficients : ndarray of complex
        Field reflection coefficients from each input mode to the target
        mode, one per controllable input mode.
    l_over_L : float
        Mean-free-path to thickness ratio of the medium.
    """

    coefficients: np.ndarray
    l_over_L: float

    def __post_init__(self):
        coefficients = require_array("coefficients", self.coefficients, (None,), complex)
        ensemble_variance(coefficients.size, self.l_over_L)  # checks both parameters
        coefficients.flags.writeable = False
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def n_modes(self) -> int:
        """Number of controllable input modes, one per coefficient."""
        return self.coefficients.size

    @property
    def variance(self) -> float:
        """Per-coefficient ensemble variance of the generating parameters, not
        a sample estimate from the coefficients."""
        return ensemble_variance(self.n_modes, self.l_over_L)

    def to_dict(self) -> dict:
        """JSON-ready document with coefficients as [re, im] pairs."""
        return {
            "l_over_L": float(self.l_over_L),
            "coefficients": self.coefficients.view(float).reshape(-1, 2).tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScatteringKey":
        """The key of a document; fields other than ``l_over_L`` and
        ``coefficients`` are ignored.  Viewing the pairs as complex keeps every bit."""
        if not isinstance(data, dict):
            raise TypeError(f"key must be a JSON object, got {data!r}")
        pairs = require_array("coefficients", data["coefficients"], (None, 2))
        return cls(pairs.view(complex)[:, 0], data["l_over_L"])


@dataclass(frozen=True)
class PhaseMask:
    """Per-mode phase settings of the modulator, wrapped into [-pi, pi)."""

    phases: np.ndarray

    def __post_init__(self):
        phases = require_array("phases", self.phases, (None,))
        if not phases.size:
            raise ValueError("phases must be a non-empty vector")
        phases = wrap_phase(phases)
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)

    def __len__(self) -> int:
        return self.phases.size


def require_mode_count(name: str, value) -> int:
    """``value`` as a mode count, an integer from 1 to the largest double;
    a refusal names ``name``, such as ``n_modes`` or ``mode_counts``.  Beyond
    the double range a division by the count would raise an OverflowError
    that names no parameter."""
    value = require_int(name, value, 1)
    if value > sys.float_info.max:
        raise ValueError(f"{name} must not exceed the double range, "
                         f"got a {len(str(value))}-digit integer")
    return value


def ensemble_variance(n_modes: int, l_over_L: float) -> float:
    """Per-coefficient variance ``(1 - l_over_L) / n_modes`` of a fresh key."""
    n_modes = require_mode_count("n_modes", n_modes)
    l_over_L = require_real("l_over_L", l_over_L, REAL_INTERVALS["l_over_L"])
    return (1.0 - l_over_L) / n_modes


def draw_coefficients(rows: int, count: int, variance: float,
                      *rngs: np.random.Generator) -> np.ndarray:
    """``(rows * len(rngs), count)`` independent circular complex Gaussians of
    total variance ``variance``, from one block of standard normals: each
    generator in turn writes ``rows`` rows of it, in the C order of its own
    ``(rows, 2, count)`` draw, so its rows are what it alone would give.
    Every key, clone and false-key coefficient comes from here: a key is the
    one-row case of one generator, a false-key population takes one
    generator per chunk, and the first ``r`` rows of a generator equal an
    ``r``-row draw.
    """
    parts = np.empty((len(rngs) * rows, 2, count))
    for index, rng in enumerate(rngs):
        rng.standard_normal(out=parts[index * rows:(index + 1) * rows])
    return math.sqrt(variance / 2.0) * (parts[:, 0] + 1j * parts[:, 1])


def generate_key(n_modes: int, l_over_L: float, rng: np.random.Generator) -> ScatteringKey:
    """Draw a fresh random key.

    Each coefficient is an independent circular complex Gaussian with
    zero mean and total variance ``(1 - l_over_L) / n_modes``, split
    evenly between the real and imaginary parts so the phase is uniform.
    """
    variance = ensemble_variance(n_modes, l_over_L)
    return ScatteringKey(draw_coefficients(1, n_modes, variance, rng)[0], float(l_over_L))


def masked_terms(coefficients: np.ndarray, tau: float, mask: PhaseMask) -> np.ndarray:
    """Masked terms ``c_j sqrt(tau / n) e^{i phi_j}`` of one key's ``(n,)`` row
    or a ``(B, n)`` block, in its shape: the one place they are formed, by
    elementwise products in a fixed operand order, so each row carries the
    bits of its key alone.  Numpy's complex multiply fuses multiply-adds in
    some loops only, which round a cancelling product differently; a
    one-mode multiply runs along the rows in a loop of its own, so the
    phase factors take the block's number of dimensions."""
    n_modes = coefficients.shape[-1]
    tau = require_real("tau", tau, REAL_INTERVALS["tau"])
    if len(mask) != n_modes:
        raise ValueError("mask length does not match the key's mode count")
    phase_factors = np.exp(1j * mask.phases).reshape((1,) * (coefficients.ndim - 1) + (-1,))
    return coefficients * math.sqrt(tau / n_modes) * phase_factors


@np.errstate(over="ignore", invalid="ignore")
def masked_sums(coefficients: np.ndarray, tau: float, mask: PhaseMask):
    """Sums of :func:`masked_terms` over the last axis: a complex scalar for one
    key, a ``(B,)`` vector for a block, each row with the bits of its key alone.
    An overflowing sum is left non-finite, without a warning, for
    :meth:`cvpuk.homodyne.ProbeSet.responses` to refuse."""
    return np.sum(masked_terms(coefficients, tau, mask), axis=-1)


def optimal_mask(key: ScatteringKey) -> PhaseMask:
    """Globally optimal phase mask for the given key.

    Conjugates the phase of each reflection coefficient, so every term of
    the scattered sum becomes real and non-negative under the real,
    uniform coupling.  No phase mask can produce a larger amplitude
    magnitude.
    """
    if not np.any(key.coefficients):
        raise DegenerateKeyError("every reflection coefficient vanishes")
    return PhaseMask(-np.angle(key.coefficients))


def enhancement(key: ScatteringKey, mask: PhaseMask) -> float:
    """Intensity gain of the masked key over the unoptimized ensemble mean.

    The photon number in the target mode is the squared magnitude of the
    scattered amplitude (coherence is preserved end to end), and the
    reference level is the ensemble-average photon number without
    optimization, ``variance`` times the photons that reach the key.  Both
    scale alike with the throughput and the probe strength, so the ratio
    is formed at unit throughput and unit probe strength.
    """
    return float(abs(masked_sums(key.coefficients, 1.0, mask)) ** 2 / key.variance)
