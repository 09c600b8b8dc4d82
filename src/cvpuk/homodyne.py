"""Coherent probe sets, quadrature readout and binned homodyne statistics.

The local oscillator is treated as a classical reference: a quadrature
measurement at local-oscillator phase 0 or pi/2 returns a Gaussian draw
centred on the corresponding quadrature mean of the scattered field,
with shot-noise standard deviation ``1 / sqrt(2 * eta)``, ``eta`` the
detection efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jsonio import REAL_INTERVALS, require_int, require_object, require_real

__all__ = [
    "HALF_PI",
    "ProbeSet",
    "HomodyneChannel",
    "p_in_theoretical",
]

HALF_PI = math.pi / 2.0
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ProbeSet:
    """The public set of ``n_probe_states`` equal-strength probes of ``mu_p``
    mean photons, with phases 2*pi*k/n_probe_states."""

    n_probe_states: int
    mu_p: float

    def __post_init__(self):
        require_int("n_probe_states", self.n_probe_states, 3)
        require_real("mu_p", self.mu_p, REAL_INTERVALS["mu_p"])

    @property
    def size(self) -> int:
        """``n_probe_states``, kept read-only only for the benchmark's tracer
        (``perfbench/tracing.py``), which reads ``probes.size``."""
        return self.n_probe_states

    def amplitudes(self) -> np.ndarray:
        """All probe amplitudes as a complex vector, indexed by k."""
        k = np.arange(self.n_probe_states)
        return math.sqrt(self.mu_p) * np.exp(2j * math.pi * k / self.n_probe_states)

    @np.errstate(over="ignore", invalid="ignore")
    def responses(self, sums, probe: int | None = None) -> np.ndarray:
        """Quadrature means of masked sums under every probe, shape ``(..., N, 2)``,
        or under probe ``probe`` alone, shape ``(..., 2)``.

        ``sums`` is one key's :func:`cvpuk.scattering.masked_sums` or a block
        of them; under probe ``k`` the scattered field is ``sum * alpha_k``,
        and its quadrature means are ``(x, y) = sqrt(2) * (re, im)``.  The
        response to one probe has the bits of that probe's column of the
        full response, for about ``1 / N`` of the work.
        This is the one place a key's response is formed: enrollment stores
        it, verification bins around it and the campaign clouds plot it, and
        where a key whose sum or response overflows is refused, without a warning.
        """
        amplitudes = self.amplitudes()
        fields = np.multiply.outer(sums, amplitudes if probe is None else amplitudes[probe])
        # one output array, filled in place: no temporary per quadrature, nor a stacked copy
        responses = np.empty(fields.shape + (2,))
        np.multiply(fields.real, _SQRT2, out=responses[..., 0])
        np.multiply(fields.imag, _SQRT2, out=responses[..., 1])
        if not np.isfinite(responses).all():
            raise ValueError("responses must be finite: a key overflows the double range")
        return responses


def _shot_noise(eta: float) -> float:
    """Shot-noise standard deviation ``1 / sqrt(2 * eta)`` of the readout."""
    eta = require_real("eta", eta, REAL_INTERVALS["eta"])
    return 1.0 / math.sqrt(2.0 * eta)


@dataclass(frozen=True)
class HomodyneChannel:
    """Public constants of the homodyne readout.

    ``shot_noise`` is derived from the detection efficiency ``eta`` as
    ``1 / sqrt(2 * eta)``.  Any positive bin width is accepted;
    verification warns on one outside ``[2*sigma, 4*sigma)``.  The file
    key of ``eta`` is ``efficiency``, which only :meth:`to_dict` and
    :meth:`from_dict` name.
    """

    eta: float
    bin_width: float
    shot_noise: float = field(init=False)

    def __post_init__(self):
        sigma = _shot_noise(self.eta)
        require_real("bin_width", self.bin_width, "(0, inf)")
        object.__setattr__(self, "shot_noise", sigma)

    @classmethod
    def from_delta_ratio(cls, eta: float, delta_over_sigma: float) -> "HomodyneChannel":
        """Build a channel from the bin width expressed in shot-noise units."""
        require_real("delta_over_sigma", delta_over_sigma, REAL_INTERVALS["delta_over_sigma"])
        return cls(eta, delta_over_sigma * _shot_noise(eta))

    def to_dict(self) -> dict:
        return {"efficiency": float(self.eta), "bin_width": float(self.bin_width)}

    @classmethod
    def from_dict(cls, data: dict) -> "HomodyneChannel":
        data = require_object("channel", data, ("efficiency", "bin_width"))
        return cls(data["efficiency"], data["bin_width"])


def p_in_theoretical(channel: HomodyneChannel) -> float:
    """Probability that an outcome falls in a bin centred on its own mean.

    Equals ``erf(bin_width / (2 * sqrt(2) * shot_noise))`` and is the
    same for both measured quadratures, since either way the bin is
    centred on the centre of the outcome distribution.
    """
    return math.erf(channel.bin_width / (2.0 * _SQRT2 * channel.shot_noise))
