"""Enrollment and verification of scattering keys.

Enrollment characterizes a key once: it finds the optimal phase mask for
the key's target mode and records the key's response to every probe
state, either exactly (the idealized limit of unbounded sampling) or
from finite homodyne samples.  Verification replays randomly chosen
challenges against the stored records and accepts the key when the
fraction of outcomes that fall in the stored bins matches the public
in-bin probability within the error level.

Both stages are simulated through their sufficient statistics.  A
sampled enrollment stores the mean of ``M_e`` Gaussian draws, which is
itself one Gaussian draw with standard deviation ``sigma / sqrt(M_e)``.
The ``M`` sessions of a verification are independent and each hits with
probability :func:`hit_probability`, the mean bin mass over the ``2N``
probe and quadrature cells, so the hit count is one binomial draw.
Either way the cost no longer grows with the number of samples or
sessions.  A traced verification still draws every session, because
its trace lists them; it is the reference the closed forms are tested
against.  Verification sees a key only through its masked sum, so the
campaigns draw a false key as that one circular Gaussian
(:func:`cvpuk.adversary.false_key_sums`) and never its coefficients.

A verification run is deterministic given its generator; independent
runs should use independently seeded generators.  The database is
immutable after enrollment, and the acceptance bins are computed from
the database alone, never from the key under test.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .homodyne import (
    HALF_PI,
    HomodyneChannel,
    ProbeSet,
    p_in_theoretical,
    quadrature_means,
)
from .jsonio import require_int, require_real
from .scattering import (
    PhaseMask,
    ScatteringKey,
    masked_sums,
    optimal_mask,
    scattered_amplitude,
)

__all__ = [
    "CrpDatabase",
    "VerificationConfig",
    "VerificationReport",
    "enroll_exact",
    "enroll_sampled",
    "enrollment_error",
    "m_threshold",
    "hit_probability",
    "hit_probabilities",
    "verify",
    "verify_block",
    "e_threshold",
    "radii",
]

_SQRT2 = math.sqrt(2.0)
_THETAS = (0.0, HALF_PI)


@dataclass(frozen=True)
class CrpDatabase:
    """The enrolled challenge-response pairs of one key, one per probe state.

    ``centers[k]`` holds the enrolled response ``(x, y)`` to probe ``k``,
    the bin centres for local-oscillator phases 0 and pi/2; ``xi[k]`` is
    the estimation error bound of that response (0 for exact
    enrollment).  Every probe shares the one ``mask`` and ``target_mode``.
    ``setup_loss`` is the set-up's power throughput ``tau``, the one
    set-up quantity that verification needs.
    """

    target_mode: int
    mask: PhaseMask
    centers: np.ndarray
    xi: np.ndarray
    probe_set: ProbeSet
    channel: HomodyneChannel
    setup_loss: float

    def __post_init__(self):
        size = self.probe_set.size
        centers = np.array(self.centers, dtype=float)
        xi = np.array(self.xi, dtype=float)
        if centers.shape != (size, 2):
            raise ValueError(f"centers must have shape ({size}, 2), got {centers.shape}")
        if xi.shape != (size,):
            raise ValueError(f"xi must have shape ({size},), got {xi.shape}")
        if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(xi))):
            raise ValueError("centers and xi must be finite")
        if np.any(xi < 0.0):
            raise ValueError("xi must be non-negative")
        if not 0.0 < self.setup_loss <= 1.0:
            raise ValueError("setup_loss must lie in (0, 1]")
        centers.flags.writeable = False
        xi.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "xi", xi)

    @property
    def enrollment_error(self) -> float:
        return float(self.xi.max())

    def to_dict(self) -> dict:
        return {
            "target_mode": int(self.target_mode),
            "probe_set": {
                "size": int(self.probe_set.size),
                "mean_photons": float(self.probe_set.mean_photons),
            },
            "channel": self.channel.to_dict(),
            "setup_loss": float(self.setup_loss),
            "mask": [float(p) for p in self.mask.phases],
            "records": [
                {"k": k, "x": float(x), "y": float(y), "xi": float(xi)}
                for k, ((x, y), xi) in enumerate(zip(self.centers, self.xi))
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrpDatabase":
        probe_set = ProbeSet(
            require_int("probe_set.size", data["probe_set"]["size"]),
            require_real("probe_set.mean_photons", data["probe_set"]["mean_photons"],
                         "(0, inf)"),
        )
        records = sorted(data["records"], key=lambda r: require_int("k", r["k"]))
        if [r["k"] for r in records] != list(range(probe_set.size)):
            raise ValueError("records must hold each probe index 0..N-1 exactly once")

        def record(r, name, interval="(-inf, inf)"):
            return require_real(f"records[{r['k']}].{name}", r[name], interval)

        return cls(
            target_mode=require_int("target_mode", data["target_mode"]),
            mask=PhaseMask(np.array([
                require_real(f"mask[{index}]", phase, "(-inf, inf)")
                for index, phase in enumerate(data["mask"])
            ])),
            centers=[[record(r, "x"), record(r, "y")] for r in records],
            xi=[record(r, "xi", "[0, inf)") for r in records],
            probe_set=probe_set,
            channel=HomodyneChannel.from_dict(data["channel"]),
            setup_loss=require_real("setup_loss", data["setup_loss"], "(0, 1]"),
        )


def enroll_exact(key: ScatteringKey, tau: float, probes: ProbeSet,
                 channel: HomodyneChannel) -> CrpDatabase:
    """Enroll a key with exact (noise-free) responses.

    The stored responses are the true quadrature means, the idealized
    limit of an enroller free to take unbounded samples; the estimation
    error of every record is zero.  The set-up throughput ``tau`` is
    stored as the database's ``setup_loss``.
    """
    mask = optimal_mask(key, tau)
    amplitudes = scattered_amplitude(key, tau, mask, probes.amplitudes())
    return CrpDatabase(key.target_mode, mask, quadrature_means(amplitudes),
                       np.zeros(probes.size), probes, channel, tau)


def enroll_sampled(key: ScatteringKey, tau: float, probes: ProbeSet,
                   channel: HomodyneChannel, per_quadrature_samples: int,
                   rng: np.random.Generator) -> CrpDatabase:
    """Enroll a key from finite homodyne samples.

    Models ``per_quadrature_samples`` outcomes around the true mean of
    each probe state's two quadratures, ``2 * probes.size *
    per_quadrature_samples`` draws in all, and stores their sample
    means.  The mean of ``M_e`` draws from ``N(mean, sigma)`` is exactly
    distributed as ``N(mean, sigma / sqrt(M_e))``, so each stored centre
    is one such draw, taken one probe at a time, x before y.  The
    recorded estimation error is ``5 / sqrt(per_quadrature_samples)``,
    which the sample mean respects with overwhelming probability.
    """
    xi = np.full(probes.size, enrollment_error(per_quadrature_samples))
    mask = optimal_mask(key, tau)
    amplitudes = scattered_amplitude(key, tau, mask, probes.amplitudes())
    standard_error = channel.shot_noise / math.sqrt(per_quadrature_samples)
    centers = rng.normal(quadrature_means(amplitudes), standard_error)
    return CrpDatabase(key.target_mode, mask, centers, xi, probes, channel, tau)


def enrollment_error(per_quadrature_samples: int) -> float:
    """Estimation error bound 5 / sqrt(M_e) for a given per-quadrature sample size."""
    if per_quadrature_samples < 1:
        raise ValueError("per_quadrature_samples must be at least 1")
    return 5.0 / math.sqrt(per_quadrature_samples)


def m_threshold(epsilon: float, zeta: float) -> int:
    """Smallest session count that bounds the statistical deviation.

    With more than ``3 * ln(2 / zeta) / epsilon**2`` sessions, the
    in-bin frequency of the true key deviates from its expectation by at
    least ``epsilon`` with probability below ``zeta`` (Chernoff bound on
    the relative error of a Bernoulli mean).  The bound requires a
    strictly larger session count, so when the ceiling equals the exact
    value, one more session is returned.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must lie in (0, 1)")
    squared = epsilon * epsilon  # zero for epsilon below about 1.5e-162
    exact = 3.0 * math.log(2.0 / zeta) / squared if squared else math.inf
    if not math.isfinite(exact):
        raise ValueError(f"no finite session count bounds epsilon {epsilon!r}, zeta {zeta!r}")
    threshold = math.ceil(exact)
    if threshold == exact:
        threshold += 1
    return int(threshold)


def e_threshold(mean_challenge_photons: float, mode_count: int, l_over_L: float) -> float:
    """Enhancement needed to guarantee false-key detection.

    Derived from requiring the true-key response radius to exceed the
    false-key radius by several shot-noise units in the worst case;
    approaches 16 as the photon number per mode grows.
    """
    if not mean_challenge_photons > 0.0:
        raise ValueError("mean_challenge_photons must be positive")
    if mode_count < 1:
        raise ValueError("mode_count must be at least 1")
    if not 0.0 <= l_over_L < 1.0:
        raise ValueError("l_over_L must lie in [0, 1)")
    photons_per_mode = (mean_challenge_photons / mode_count) * (1.0 - l_over_L)
    if not photons_per_mode > 0.0:
        raise ValueError(f"photons per mode underflow to 0 at mean_challenge_photons "
                         f"{mean_challenge_photons!r}")
    try:
        threshold = 16.0 * (1.0 + 0.75 / math.sqrt(photons_per_mode)) ** 2
    except OverflowError:
        threshold = math.inf
    if not math.isfinite(threshold):
        raise ValueError(f"photons per mode {photons_per_mode!r} too small: the "
                         f"enhancement threshold leaves the double range")
    return threshold


def radii(mean_challenge_photons: float, variance: float,
          enhancement: float) -> tuple[float, float]:
    """Characteristic response radii (false-key, true-key) in phase space.

    False-key responses concentrate within ``4 * sqrt(mu_c * variance)``
    of the origin; the optimized true-key response sits at radius
    ``sqrt(enhancement)`` quarters of that.
    """
    if not (mean_challenge_photons > 0.0 and variance > 0.0 and enhancement > 0.0):
        raise ValueError("all arguments must be positive")
    rho_false = 4.0 * math.sqrt(mean_challenge_photons * variance)
    rho_true = math.sqrt(enhancement) * rho_false / 4.0
    return rho_false, rho_true


@dataclass(frozen=True)
class VerificationConfig:
    """Session count and convergence parameters of a verification run."""

    sessions: int
    error_level: float
    confidence_param: float

    def __post_init__(self):
        # numpy draws a binomial count as a 64-bit integer
        if not 1 <= self.sessions < 2**63:
            raise ValueError(f"sessions must lie in [1, 2**63), got {self.sessions}")
        if not 0.0 < self.error_level < 1.0:
            raise ValueError("error_level must lie in (0, 1)")
        if not 0.0 < self.confidence_param < 1.0:
            raise ValueError("confidence_param must lie in (0, 1)")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run.

    ``session_trace`` rows are ``(k, theta, outcome, hit)`` tuples when
    tracing was requested.  ``enrollment_error`` echoes the database's
    worst record error so downstream analysis can quantify how noisy
    enrollment propagates.
    """

    sessions: int
    hits: int
    p_in: float
    p_in_expected: float
    accepted: bool
    enrollment_error: float = 0.0
    session_trace: tuple[tuple[int, float, float, bool], ...] | None = None

    def to_dict(self) -> dict:
        return {
            "sessions": int(self.sessions),
            "hits": int(self.hits),
            "p_in": float(self.p_in),
            "p_in_expected": float(self.p_in_expected),
            "accepted": bool(self.accepted),
            "enrollment_error": float(self.enrollment_error),
        }


def _bins(key: ScatteringKey, database: CrpDatabase):
    """Quadrature means of the key under test and the stored bins, each (N, 2)."""
    amplitudes = scattered_amplitude(key, database.setup_loss, database.mask,
                                     database.probe_set.amplitudes())
    half = 0.5 * database.channel.bin_width
    return quadrature_means(amplitudes), database.centers - half, database.centers + half


def hit_probabilities(sums: np.ndarray, database: CrpDatabase) -> np.ndarray:
    """``p̄`` of a block of keys, given their masked sums, shape ``(B,)``.

    ``sums`` holds each key's :func:`cvpuk.scattering.masked_sums` under
    the database's mask and throughput.  Every row gets the same value
    :func:`hit_probability` gives its key: the erf arguments are formed
    by elementwise array arithmetic, each cell's mass by ``math.erf``,
    and each row's mean by the correctly rounded ``math.fsum``, so the
    block size cannot change a bit.  Equal sums, such as a block of
    perfect clones, are evaluated once.
    """
    distinct, rows = np.unique(sums, return_inverse=True)
    amplitudes = distinct[:, np.newaxis] * database.probe_set.amplitudes()
    means = quadrature_means(amplitudes).reshape(len(distinct), 2 * database.probe_set.size)
    half = 0.5 * database.channel.bin_width
    scale = _SQRT2 * database.channel.shot_noise
    highs = ((database.centers + half).ravel() - means) / scale
    lows = ((database.centers - half).ravel() - means) / scale
    cells = means.shape[1]
    return np.clip([
        math.fsum([0.5 * (math.erf(high) - math.erf(low)) for high, low in zip(*row)]) / cells
        for row in zip(highs.tolist(), lows.tolist())
    ], 0.0, 1.0)[rows]


def hit_probability(key: ScatteringKey, database: CrpDatabase) -> float:
    """Probability ``p̄`` that one verification session of ``key`` scores a hit.

    A session picks one of the ``2N`` probe and quadrature cells
    uniformly; its outcome is Gaussian around the key's quadrature mean
    ``m`` with shot noise ``sigma`` and hits when it falls in the stored
    bin ``[lo, hi]``.  So ``p̄`` is the mean over the cells of
    ``Phi((hi - m) / sigma) - Phi((lo - m) / sigma)``, clipped to
    ``[0, 1]``.  For a genuine, exactly enrolled key every bin is
    centred on its mean and ``p̄`` equals ``p_in_theoretical``; no bin
    holds more mass than a centred one, so ``p̄`` never exceeds it.
    This is the one-row case of :func:`hit_probabilities`.
    """
    sums = masked_sums(key.coefficients[np.newaxis], database.setup_loss, database.mask)
    return float(hit_probabilities(sums, database)[0])


def _public_p_in(channel: HomodyneChannel, config: VerificationConfig) -> float:
    """The public in-bin probability, with a warning when the error level is
    not small against it."""
    expected = p_in_theoretical(channel)
    if config.error_level >= expected / 2.0:
        warnings.warn(
            f"error_level {config.error_level} is not small against the "
            f"in-bin probability {expected}",
            stacklevel=3,
        )
    return expected


def _accepted(p_in, expected: float, config: VerificationConfig):
    """The acceptance rule: the hit frequency lies within the error level of
    the public in-bin probability (element by element for an array)."""
    return abs(p_in - expected) < config.error_level


def verify(key_under_test: ScatteringKey, database: CrpDatabase,
           config: VerificationConfig, rng: np.random.Generator,
           trace: bool = False) -> VerificationReport:
    """Run the verification protocol against an enrolled database.

    Each session draws a probe index uniformly, computes the physical
    response of the key under test with the database's mask and set-up
    throughput (the enrolled ``setup_loss``), measures one uniformly
    chosen quadrature with shot noise, and scores a hit when the outcome
    falls inside the closed bin centred on the stored (enrolled)
    response for that probe and quadrature.  The key is
    accepted when the hit frequency lies within ``error_level`` of the
    public in-bin probability.

    Sessions are independent and identically distributed, so the hit
    count is exactly ``Binomial(sessions, hit_probability(key,
    database))``; an untraced run draws that one variate and costs the
    same at any session count.  With ``trace=True`` every session is
    drawn, in a fixed bulk order (all probe indices, then all quadrature
    choices, then all outcomes), and listed in ``session_trace``.  The
    two paths consume the generator differently, so at the same seed
    their hit counts differ; each is fully reproducible from its seed.
    """
    channel = database.channel
    expected = _public_p_in(channel, config)

    sessions = config.sessions
    session_trace = None
    if trace:
        means, lows, highs = _bins(key_under_test, database)
        ks = rng.integers(0, database.probe_set.size, size=sessions)
        quads = rng.integers(0, 2, size=sessions)
        outcomes = rng.normal(means[ks, quads], channel.shot_noise)
        hits = (outcomes >= lows[ks, quads]) & (outcomes <= highs[ks, quads])
        total_hits = int(hits.sum())
        session_trace = tuple(
            (int(k), _THETAS[q], float(outcome), bool(hit))
            for k, q, outcome, hit in zip(ks, quads, outcomes, hits)
        )
    else:
        total_hits = int(rng.binomial(sessions, hit_probability(key_under_test, database)))

    p_in = total_hits / sessions
    return VerificationReport(
        sessions=sessions,
        hits=total_hits,
        p_in=p_in,
        p_in_expected=expected,
        accepted=bool(_accepted(p_in, expected, config)),
        enrollment_error=database.enrollment_error,
        session_trace=session_trace,
    )


def verify_block(sums: np.ndarray, database: CrpDatabase, config: VerificationConfig,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Untraced verification of a block of keys from one generator.

    ``sums`` holds the keys' masked sums, as for :func:`hit_probabilities`.
    One ``rng.binomial(sessions, p_bars)`` call draws every hit count, so
    row 0 is what ``verify(key_0, database, config, rng)`` draws and no
    row depends on the rows after it.  Returns the in-bin frequencies
    and the acceptance flags, each of shape ``(B,)``.
    """
    expected = _public_p_in(database.channel, config)
    hits = rng.binomial(config.sessions, hit_probabilities(sums, database))
    p_ins = hits / config.sessions
    return p_ins, _accepted(p_ins, expected, config)
