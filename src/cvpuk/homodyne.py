"""Coherent probe sets, quadrature readout and binned homodyne statistics.

The local oscillator is treated as a classical reference: a quadrature
measurement at local-oscillator phase 0 or pi/2 returns a Gaussian draw
centred on the corresponding quadrature mean of the scattered field,
with shot-noise standard deviation ``1 / sqrt(2 * efficiency)``.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .jsonio import require_real

__all__ = [
    "HALF_PI",
    "ProbeSet",
    "Response",
    "HomodyneChannel",
    "quadrature_means",
    "p_in_theoretical",
]

HALF_PI = math.pi / 2.0
_SQRT2 = math.sqrt(2.0)


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
        """Response of a field with the given mean amplitude, by :func:`quadrature_means`."""
        return cls(*quadrature_means(np.complex128(amplitude)).tolist())


def _caller_level() -> int:
    """``stacklevel`` at which a warning raised by the caller of this function
    names the first frame outside this module and the dataclass-generated
    ``__init__``, that is, the code that built the object."""
    level, frame = 1, sys._getframe(1)
    while frame.f_back is not None and (
            frame.f_code.co_filename == __file__
            or (frame.f_code.co_filename, frame.f_code.co_name) == ("<string>", "__init__")):
        level, frame = level + 1, frame.f_back
    return level


def _shot_noise(efficiency: float) -> float:
    """Shot-noise standard deviation ``1 / sqrt(2 * efficiency)`` of the readout."""
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must lie in (0, 1]")
    return 1.0 / math.sqrt(2.0 * efficiency)


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
        sigma = _shot_noise(self.efficiency)
        if not (math.isfinite(self.bin_width) and self.bin_width > 0.0):
            raise ValueError("bin_width must be positive and finite")
        object.__setattr__(self, "shot_noise", sigma)
        if not 2.0 * sigma <= self.bin_width < 4.0 * sigma:
            warnings.warn(
                f"bin_width {self.bin_width} outside the recommended bracket "
                f"[{2.0 * sigma}, {4.0 * sigma})",
                stacklevel=_caller_level(),
            )

    @classmethod
    def from_delta_ratio(cls, efficiency: float, delta_over_sigma: float) -> "HomodyneChannel":
        """Build a channel from the bin width expressed in shot-noise units."""
        return cls(efficiency, delta_over_sigma * _shot_noise(efficiency))

    def to_dict(self) -> dict:
        return {"efficiency": float(self.efficiency), "bin_width": float(self.bin_width)}

    @classmethod
    def from_dict(cls, data: dict) -> "HomodyneChannel":
        return cls(require_real("channel.efficiency", data["efficiency"], "(0, 1]"),
                   require_real("channel.bin_width", data["bin_width"], "(0, inf)"))


def quadrature_means(amplitudes: np.ndarray) -> np.ndarray:
    """Quadrature means ``(x, y) = sqrt(2) * (re, im)`` of an array of mean
    field amplitudes, stacked on a new last axis."""
    return np.stack((_SQRT2 * amplitudes.real, _SQRT2 * amplitudes.imag), axis=-1)


def p_in_theoretical(channel: HomodyneChannel) -> float:
    """Probability that an outcome falls in a bin centred on its own mean.

    Equals ``erf(bin_width / (2 * sqrt(2) * shot_noise))`` and is the
    same for both measured quadratures, since either way the bin is
    centred on the centre of the outcome distribution.
    """
    return math.erf(channel.bin_width / (2.0 * _SQRT2 * channel.shot_noise))
