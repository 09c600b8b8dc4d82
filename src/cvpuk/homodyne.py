"""Coherent probe states, quadrature readout and binned homodyne statistics.

The local oscillator is treated as a classical reference: a quadrature
measurement at local-oscillator phase ``theta`` returns a Gaussian draw
centred on the corresponding quadrature mean of the scattered field,
with shot-noise standard deviation ``1 / sqrt(2 * efficiency)``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .jsonio import require_real

__all__ = [
    "HALF_PI",
    "ProbeState",
    "ProbeSet",
    "Response",
    "HomodyneChannel",
    "quadrature_mean",
    "quadrature_means",
    "sample_quadrature",
    "bin_interval",
    "in_bin",
    "p_in_theoretical",
]

HALF_PI = math.pi / 2.0
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ProbeState:
    """A coherent probe with ``mean_photons`` photons and a set phase.

    ``index`` identifies the state within its probe set when applicable.
    """

    mean_photons: float
    phase: float
    index: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.mean_photons) and self.mean_photons > 0.0):
            raise ValueError("mean_photons must be positive and finite")
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")

    @property
    def amplitude(self) -> complex:
        """Complex amplitude sqrt(mean_photons) * exp(i * phase)."""
        return math.sqrt(self.mean_photons) * cmath.exp(1j * self.phase)


@dataclass(frozen=True)
class ProbeSet:
    """The public set of equal-strength probes with phases 2*pi*k/size."""

    size: int
    mean_photons: float

    def __post_init__(self):
        if self.size <= 2:
            raise ValueError("a probe set must contain more than 2 states")
        if not (math.isfinite(self.mean_photons) and self.mean_photons > 0.0):
            raise ValueError("mean_photons must be positive and finite")

    def state(self, k: int) -> ProbeState:
        if not 0 <= k < self.size:
            raise ValueError(f"probe index {k} outside [0, {self.size})")
        return ProbeState(self.mean_photons, 2.0 * math.pi * k / self.size, index=k)

    def states(self) -> tuple[ProbeState, ...]:
        return tuple(self.state(k) for k in range(self.size))

    def amplitudes(self) -> np.ndarray:
        """All probe amplitudes as a complex vector, indexed by k."""
        k = np.arange(self.size)
        return math.sqrt(self.mean_photons) * np.exp(2j * math.pi * k / self.size)


@dataclass(frozen=True)
class Response:
    """A key's response: the pair of quadrature means (x, y)."""

    x: float
    y: float

    @classmethod
    def from_amplitude(cls, amplitude: complex) -> "Response":
        """Response of a field with the given mean amplitude: sqrt(2) * (re, im)."""
        amplitude = complex(amplitude)
        return cls(_SQRT2 * amplitude.real, _SQRT2 * amplitude.imag)

    @property
    def magnitude(self) -> float:
        return math.hypot(self.x, self.y)

    def quadrature_projection(self, lo_phase: float) -> float:
        """Projection of this response on the quadrature measured at ``lo_phase``.

        Exactly ``x`` for lo_phase 0 and ``y`` for lo_phase pi/2, the two
        angles used by the protocol.
        """
        if lo_phase == 0.0:
            return self.x
        if lo_phase == HALF_PI:
            return self.y
        return self.x * math.cos(lo_phase) + self.y * math.sin(lo_phase)


@dataclass(frozen=True)
class HomodyneChannel:
    """Public constants of the homodyne readout.

    ``shot_noise`` is derived from the efficiency as
    ``1 / sqrt(2 * efficiency)``.  Bin widths outside the recommended
    bracket ``[2*sigma, 4*sigma)`` trigger a warning rather than an
    error, since the in-bin probability stays well defined.
    """

    efficiency: float
    bin_width: float
    shot_noise: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        if not (math.isfinite(self.bin_width) and self.bin_width > 0.0):
            raise ValueError("bin_width must be positive and finite")
        sigma = 1.0 / math.sqrt(2.0 * self.efficiency)
        object.__setattr__(self, "shot_noise", sigma)
        if not 2.0 * sigma <= self.bin_width < 4.0 * sigma:
            warnings.warn(
                f"bin_width {self.bin_width} outside the recommended bracket "
                f"[{2.0 * sigma}, {4.0 * sigma})",
                stacklevel=2,
            )

    @classmethod
    def from_delta_ratio(cls, efficiency: float, delta_over_sigma: float) -> "HomodyneChannel":
        """Build a channel from the bin width expressed in shot-noise units."""
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        sigma = 1.0 / math.sqrt(2.0 * efficiency)
        return cls(efficiency, delta_over_sigma * sigma)

    def to_dict(self) -> dict:
        return {"efficiency": float(self.efficiency), "bin_width": float(self.bin_width)}

    @classmethod
    def from_dict(cls, data: dict) -> "HomodyneChannel":
        return cls(require_real("channel.efficiency", data["efficiency"], "(0, 1]"),
                   require_real("channel.bin_width", data["bin_width"], "(0, inf)"))


def quadrature_mean(amplitude: complex, lo_phase: float) -> float:
    """Mean of the quadrature measured at ``lo_phase`` for a mean field amplitude.

    ``sqrt(2) * Re(amplitude * exp(-i * lo_phase))``; exactly
    ``sqrt(2) * Re`` and ``sqrt(2) * Im`` of the amplitude for the two
    protocol angles 0 and pi/2.
    """
    amplitude = complex(amplitude)
    if lo_phase == 0.0:
        return _SQRT2 * amplitude.real
    if lo_phase == HALF_PI:
        return _SQRT2 * amplitude.imag
    return _SQRT2 * (amplitude * cmath.exp(-1j * lo_phase)).real


def quadrature_means(amplitudes: np.ndarray) -> np.ndarray:
    """Quadrature means ``(x, y) = sqrt(2) * (re, im)`` of an array of mean
    field amplitudes, stacked on a new last axis."""
    return np.stack((_SQRT2 * amplitudes.real, _SQRT2 * amplitudes.imag), axis=-1)


def sample_quadrature(mean: float, channel: HomodyneChannel,
                      rng: np.random.Generator) -> float:
    """One homodyne outcome: a Gaussian draw around ``mean`` with shot noise."""
    return float(rng.normal(mean, channel.shot_noise))


def bin_interval(response: Response, lo_phase: float, bin_width: float) -> tuple[float, float]:
    """Closed acceptance bin centred on the response's quadrature projection."""
    if bin_width <= 0.0:
        raise ValueError("bin_width must be positive")
    center = response.quadrature_projection(lo_phase)
    half = 0.5 * bin_width
    return (center - half, center + half)


def in_bin(outcome: float, response: Response, lo_phase: float, bin_width: float) -> bool:
    """Whether an outcome falls inside the (closed) bin of the response."""
    low, high = bin_interval(response, lo_phase, bin_width)
    return low <= outcome <= high


def p_in_theoretical(channel: HomodyneChannel) -> float:
    """Probability that an outcome falls in a bin centred on its own mean.

    Equals ``erf(bin_width / (2 * sqrt(2) * shot_noise))`` and is the
    same for both measured quadratures, since either way the bin is
    centred on the centre of the outcome distribution.
    """
    return math.erf(channel.bin_width / (2.0 * _SQRT2 * channel.shot_noise))
