"""Enrollment and verification of scattering keys.

Enrollment characterizes a key once: it finds the optimal phase mask for
the key's target mode and records the key's response to every probe
state, either exactly (the idealized limit of unbounded sampling) or
from finite homodyne samples.  Verification replays randomly chosen
challenges against the stored records and accepts the key when the
fraction of outcomes that fall in the stored bins matches the public
in-bin probability within the error level.

Both stages are simulated through their sufficient statistics.  A
sampled enrollment perturbs the centres of :func:`enroll_exact`: it
stores the mean of ``M_e`` Gaussian draws around each exact centre,
which is itself one Gaussian draw with standard deviation ``sigma /
sqrt(M_e)``, so the optimal mask is found in one place.
The ``M`` sessions of a verification are independent and each hits with
probability ``p̄`` (:func:`hit_probabilities`), the mean bin mass over
the ``2N`` probe and quadrature cells, so the hit count is one binomial
draw.  Either way the cost no longer grows with the number of samples
or sessions.  A traced verification still draws every session, because
its trace lists them; it is the reference the closed forms are tested
against.  A key enters only through its masked sum, and its response to
every probe, which enrollment stores and verification bins around, is
formed from that sum in one place, :meth:`cvpuk.homodyne.ProbeSet.responses`.
The campaigns draw a false key as that one circular Gaussian
(:func:`cvpuk.adversary.false_key_sums`) and never its coefficients.

``p̄`` is computed in numpy, from a port of fdlibm's ``erf`` (the one
glibc's derives from, by W. J. Cody's rational approximations), in
glibc's order of operations.  It gives glibc's bits, which are
``math.erf``'s on glibc, wherever ``|x| < 1.25`` or ``|x| >= 6``;
between, it calls numpy's ``exp``, which may differ from the C
library's in the last bit, so it may differ from glibc's by one ulp and
stays within one ulp of the true value.
Each row's cell masses are summed over that row alone, in an order that
depends only on ``N``, so a key's ``p̄`` has the same bits alone or in a
block of any size.

A verification run is deterministic given its generator; independent
runs should use independently seeded generators.  The database is
immutable after enrollment, and the acceptance bins are computed from
the database alone, never from the key under test.  Only verification
uses the bin width and the error level ``epsilon``, so only it advises on them
(:func:`public_p_in`), once every check that can refuse it has passed;
:func:`verify_block` does not, so that a campaign advises once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .homodyne import HALF_PI, HomodyneChannel, ProbeSet, p_in_theoretical
from .jsonio import REAL_INTERVALS, require_array, require_int, require_object, require_real
from .scattering import PhaseMask, ScatteringKey, ensemble_variance, masked_sums, optimal_mask

__all__ = [
    "CrpDatabase",
    "VerificationConfig",
    "VerificationReport",
    "enroll_exact",
    "enroll_sampled",
    "enrollment_error",
    "m_threshold",
    "hit_probabilities",
    "public_p_in",
    "verify",
    "verify_block",
    "e_threshold",
    "radii",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CrpDatabase:
    """The enrolled challenge-response pairs of one key, one per probe state.

    ``centers[k]`` holds the enrolled response ``(x, y)`` to probe ``k``,
    the bin centres for local-oscillator phases 0 and pi/2.  Every probe
    shares the one ``mask`` and the one estimation error bound
    ``enrollment_error`` (0 for exact enrollment).  ``tau`` is the set-up's
    power throughput, the one set-up quantity that verification needs.
    The file keys of ``tau``, ``probe_set.n_probe_states`` and
    ``probe_set.mu_p`` are ``setup_loss``, ``size`` and ``mean_photons``,
    which only :meth:`to_dict` and :meth:`from_dict` name.
    """

    mask: PhaseMask
    centers: np.ndarray
    enrollment_error: float
    probe_set: ProbeSet
    channel: HomodyneChannel
    tau: float

    def __post_init__(self):
        centers = require_array("centers", self.centers, (self.probe_set.n_probe_states, 2))
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "tau", require_real("tau", self.tau, REAL_INTERVALS["tau"]))
        object.__setattr__(self, "enrollment_error",
                           require_real("enrollment_error", self.enrollment_error, "[0, inf)"))

    def to_dict(self) -> dict:
        return {
            "probe_set": {
                "size": int(self.probe_set.n_probe_states),
                "mean_photons": float(self.probe_set.mu_p),
            },
            "channel": self.channel.to_dict(),
            "setup_loss": float(self.tau),
            "enrollment_error": self.enrollment_error,
            "mask": self.mask.phases.tolist(),
            "records": [{"k": k, "x": x, "y": y}
                        for k, (x, y) in enumerate(self.centers.tolist())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrpDatabase":
        """The database of a document; top-level fields it does not read are ignored."""
        if not isinstance(data, dict):
            raise TypeError(f"database must be a JSON object, got {data!r}")
        # read first: a legacy file lacks it, and holds an unknown xi in every record
        enrollment_error = data["enrollment_error"]
        probes = require_object("probe_set", data["probe_set"], ("size", "mean_photons"))
        probe_set = ProbeSet(probes["size"], probes["mean_photons"])
        records = data["records"]
        if not isinstance(records, list):
            raise TypeError(f"records must be a JSON array, got {records!r}")
        records = sorted((require_object(f"records[{index}]", record, ("k", "x", "y"))
                          for index, record in enumerate(records)),
                         key=lambda r: require_int("k", r["k"]))
        n_probe_states = probe_set.n_probe_states
        if [r["k"] for r in records] != list(range(n_probe_states)):
            raise ValueError("records must hold each probe index 0..N-1 exactly once")
        x, y = (require_array(f"records.{name}", [r[name] for r in records], (n_probe_states,))
                for name in "xy")
        return cls(
            mask=PhaseMask(require_array("mask", data["mask"], (None,))),
            centers=np.stack((x, y), axis=1),
            enrollment_error=enrollment_error,
            probe_set=probe_set,
            channel=HomodyneChannel.from_dict(data["channel"]),
            tau=data["setup_loss"],
        )


def enroll_exact(key: ScatteringKey, tau: float, probes: ProbeSet,
                 channel: HomodyneChannel) -> CrpDatabase:
    """Enroll a key with exact (noise-free) responses.

    The stored responses are the true quadrature means, the idealized
    limit of an enroller free to take unbounded samples; the estimation
    error of every record is zero.  The set-up throughput ``tau`` is
    stored in the database.
    """
    mask = optimal_mask(key)
    centers = probes.responses(masked_sums(key.coefficients, tau, mask))
    return CrpDatabase(mask, centers, 0.0, probes, channel, tau)


def enroll_sampled(key: ScatteringKey, tau: float, probes: ProbeSet,
                   channel: HomodyneChannel, per_quadrature_samples: int,
                   rng: np.random.Generator) -> CrpDatabase:
    """Enroll a key from finite homodyne samples.

    Perturbs the exact centres of :func:`enroll_exact`, under the same
    mask: models ``per_quadrature_samples`` outcomes around the true mean
    of each probe state's two quadratures, ``2 * probes.n_probe_states *
    per_quadrature_samples`` draws in all, and stores their sample
    means.  The mean of ``M_e`` draws from ``N(mean, sigma)`` is exactly
    distributed as ``N(mean, sigma / sqrt(M_e))``, so each stored centre
    is one such draw, taken one probe at a time, x before y.  The
    recorded estimation error is ``5 / sqrt(per_quadrature_samples)``,
    which the sample mean respects with overwhelming probability.
    """
    error = enrollment_error(per_quadrature_samples)
    exact = enroll_exact(key, tau, probes, channel)
    standard_error = channel.shot_noise / math.sqrt(per_quadrature_samples)
    centers = rng.normal(exact.centers, standard_error)
    return CrpDatabase(exact.mask, centers, error, probes, channel, tau)


def enrollment_error(per_quadrature_samples: int) -> float:
    """Estimation error bound 5 / sqrt(M_e) for a given per-quadrature sample size."""
    per_quadrature_samples = require_int("per_quadrature_samples", per_quadrature_samples, 1)
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
    epsilon = require_real("epsilon", epsilon, REAL_INTERVALS["epsilon"])
    zeta = require_real("zeta", zeta, REAL_INTERVALS["zeta"])
    squared = epsilon * epsilon  # zero for epsilon below about 1.5e-162
    exact = 3.0 * math.log(2.0 / zeta) / squared if squared else math.inf
    if not math.isfinite(exact):
        raise ValueError(f"no finite session count bounds epsilon {epsilon!r}, zeta {zeta!r}")
    threshold = math.ceil(exact)
    if threshold == exact:
        threshold += 1
    return int(threshold)


def e_threshold(mu_c: float, n_modes: int, l_over_L: float) -> float:
    """Enhancement needed to guarantee false-key detection at ``mu_c`` mean
    challenge photons.

    Derived from requiring the true-key response radius to exceed the
    false-key radius by several shot-noise units in the worst case;
    approaches 16 as the photon number per mode grows.
    """
    require_real("mu_c", mu_c, "(0, inf)")
    ensemble_variance(n_modes, l_over_L)  # checks both parameters
    photons_per_mode = (mu_c / n_modes) * (1.0 - l_over_L)
    if not photons_per_mode > 0.0:
        raise ValueError(f"photons per mode underflow to 0 at mean_challenge_photons "
                         f"{mu_c!r}")
    try:
        threshold = 16.0 * (1.0 + 0.75 / math.sqrt(photons_per_mode)) ** 2
    except OverflowError:
        threshold = math.inf
    if not math.isfinite(threshold):
        raise ValueError(f"photons per mode {photons_per_mode!r} too small: the "
                         f"enhancement threshold leaves the double range")
    return threshold


def radii(mu_c: float, variance: float, enhancement: float) -> tuple[float, float]:
    """Characteristic response radii (false-key, true-key) in phase space.

    False-key responses concentrate within ``4 * sqrt(mu_c * variance)``
    of the origin; the optimized true-key response sits at radius
    ``sqrt(enhancement)`` quarters of that.
    """
    require_real("mu_c", mu_c, "(0, inf)")
    require_real("variance", variance, "(0, inf)")
    require_real("enhancement", enhancement, "(0, inf)")
    rho_false = 4.0 * math.sqrt(mu_c * variance)
    rho_true = math.sqrt(enhancement) * rho_false / 4.0
    return rho_false, rho_true


@dataclass(frozen=True)
class VerificationConfig:
    """Session count ``m_sessions``, error level ``epsilon`` and confidence
    parameter ``zeta`` of a verification run."""

    m_sessions: int
    epsilon: float
    zeta: float

    def __post_init__(self):
        # numpy draws a binomial count as a 64-bit integer
        if require_int("m_sessions", self.m_sessions, 1) >= 2**63:
            raise ValueError(f"m_sessions must lie in [1, 2**63), got {self.m_sessions}")
        require_real("epsilon", self.epsilon, REAL_INTERVALS["epsilon"])
        require_real("zeta", self.zeta, REAL_INTERVALS["zeta"])


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run.

    When tracing was requested, ``session_trace`` is a read-only record
    array with one row per session and the fields ``k`` (probe index),
    ``theta`` (local-oscillator phase, 0 or pi/2), ``outcome`` and ``hit``
    (``uint8``, 0 or 1), 25 bytes a session.  ``enrollment_error`` echoes
    the database's estimation error bound so downstream analysis can
    quantify how noisy enrollment propagates.  ``sessions`` is named
    after its ``report.json`` key.
    """

    sessions: int
    hits: int
    p_in: float
    p_in_expected: float
    accepted: bool
    enrollment_error: float = 0.0
    session_trace: np.recarray | None = None

    def to_dict(self) -> dict:
        return {
            "sessions": int(self.sessions),
            "hits": int(self.hits),
            "p_in": float(self.p_in),
            "p_in_expected": float(self.p_in_expected),
            "accepted": bool(self.accepted),
            "enrollment_error": float(self.enrollment_error),
        }


def _cells(sums: np.ndarray, database: CrpDatabase):
    """Quadrature means of a block of keys given their masked sums, shape
    ``(B, N, 2)``, and the stored bins' lower and upper edges, each ``(N, 2)``."""
    half = 0.5 * database.channel.bin_width
    centers = database.centers
    return database.probe_set.responses(sums), centers - half, centers + half


def hit_probabilities(sums: np.ndarray, database: CrpDatabase) -> np.ndarray:
    """Probability ``p̄`` that one verification session scores a hit, for a
    block of keys given their masked sums, shape ``(B,)``.

    ``sums`` holds each key's :func:`cvpuk.scattering.masked_sums` under
    the database's mask and throughput.  A session picks one of the
    ``2N`` probe and quadrature cells uniformly; its outcome is Gaussian
    around the key's quadrature mean ``m`` with shot noise ``sigma`` and
    hits when it falls in the stored bin ``[lo, hi]``.  So ``p̄`` is the
    mean over the cells of ``Phi((hi - m) / sigma) - Phi((lo - m) /
    sigma)``, clipped to ``[0, 1]``.  For a genuine, exactly enrolled key
    every bin is centred on its mean and ``p̄`` equals
    ``p_in_theoretical``; no bin holds more mass than a centred one, so
    ``p̄`` never exceeds it.

    The erf arguments of both edges of every cell are formed by
    elementwise array arithmetic and evaluated in one :func:`_erf` call,
    which equals glibc's ``erf`` bit for bit where ``|x| < 1.25`` or ``|x|
    >= 6`` and lies within one ulp of the true value between.  A cell's mass
    is ``0.5 * (erf(high) - erf(low))``, and a row's ``2N`` masses are
    summed by ``sum(axis=1)`` over that row alone, in an order fixed by
    ``N``, so a row carries the same bits alone or in a block of any size.
    Each erf value is off by at most ``2**-53``, so ``p̄`` lies within
    ``2**-52 + (2N + 1) 2**-53 p̄`` of the exact mean of the cells at the
    same arguments; the absolute term covers the cancellation of two erf
    values near ``±1``.  Equal sums, such as a block of perfect clones, are
    evaluated once.
    """
    distinct, rows = np.unique(sums, return_inverse=True)
    means, lows, highs = _cells(distinct, database)
    arguments = np.stack((highs, lows))[:, np.newaxis] - means
    arguments /= _SQRT2 * database.channel.shot_noise
    erfs = _erf(arguments)
    cells = 2 * database.probe_set.n_probe_states
    masses = np.subtract(erfs[0], erfs[1], out=erfs[0])
    masses *= 0.5
    return np.clip(masses.reshape(len(distinct), cells).sum(axis=1) / cells, 0.0, 1.0)[rows]


# fdlibm's s_erf.c, from which glibc's erf derives: the numerator and the
# denominator of each bucket's rational approximation, lowest power first
_EFX = 1.28379167095512586316e-01
_ERX = 8.45062911510467529297e-01
_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
       -5.77027029648944159157e-03, -2.37630166566501626084e-05)
_QQ = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02, 5.08130628187576562776e-03,
       1.32494738004321644526e-04, -3.96022827877536812320e-06)
_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
       3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
       -2.16637559486879084300e-03)
_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01, 7.18286544141962662868e-02,
       1.26171219808761642112e-01, 1.36370839120290507362e-02, 1.19844998467991074170e-02)
_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e+01,
       -6.23753324503260060396e+01, -1.62396669462573470355e+02, -1.84605092906711035994e+02,
       -8.12874355063065934246e+01, -9.81432934416914548592e+00)
_SA = (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02, 4.34565877475229228821e+02,
       6.45387271733267880336e+02, 4.29008140027567833386e+02, 1.08635005541779435134e+02,
       6.57024977031928170135e+00, -6.04244152148580987438e-02)
_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e+01,
       -1.60636384855821916062e+02, -6.37566443368389627722e+02, -1.02509513161107724954e+03,
       -4.83519191608651397019e+02)
_SB = (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02, 1.53672958608443695994e+03,
       3.19985821950859553908e+03, 2.55305040643316442583e+03, 4.74528541206955367215e+02,
       -2.24409524465858183362e+01)
# the bucket edges of |x|; fdlibm compares high words, so its 1/0.35 edge
# is the double whose high word is 0x4006DB6E and low word 0
_ERF_EDGES = (2.0**-28, 0.84375, 1.25, float.fromhex("0x1.6db6ep+1"), 6.0)


def _erf(x: np.ndarray) -> np.ndarray:
    """fdlibm's ``erf`` of every entry, in glibc's order of operations.

    ``|x|`` falls in one of six buckets at ``_ERF_EDGES``, and each
    bucket's formula runs on its own entries only, and not at all on an
    empty bucket.  Below 1.25 and from 6 on the result is glibc's, and so
    ``math.erf``'s on glibc, bit for bit; from 6 on it is ``±1.0``.
    Between, fdlibm multiplies two ``exp`` values, and numpy's ``exp`` may
    differ from the C library's in the last bit, so a result may differ
    from glibc's by one ulp; it stays within one ulp of the true ``erf``.
    fdlibm is odd in ``x``, so every bucket works on ``|x|`` and the sign
    is copied back.
    """
    a = np.abs(x).ravel()
    # NaN compares below every edge, and the first bucket's formula keeps it NaN
    bucket = sum((a >= edge).view(np.int8) for edge in _ERF_EDGES)
    y = np.ones_like(a)  # |x| >= 6, where fdlibm's 1 - tiny rounds to 1
    counts = np.bincount(bucket, minlength=len(_ERF_EDGES) + 1)
    for b, formula in enumerate(_ERF_FORMULAS):
        if counts[b]:
            index = np.flatnonzero(bucket == b)
            y[index] = formula(a[index])
    return np.copysign(y, x.ravel(), out=y).reshape(x.shape)


def _erf_tail(t: np.ndarray, numerator: tuple, denominator: tuple) -> np.ndarray:
    """fdlibm's ``1 - erfc(t)`` for ``t`` in ``[1.25, 6)``, with ``t`` split at
    its high word so that ``exp(-t*t)`` keeps its precision."""
    z = (t.view(np.uint64) & np.uint64(0xFFFFFFFF00000000)).view(float)
    s = np.multiply(t, t)
    ratio = _ratio(np.divide(1.0, s, out=s), numerator, denominator)
    # 1 - exp(-z * z - 0.5625) * exp((z - t) * (z + t) + ratio) / t, term by term
    near = np.multiply(z, z)
    np.negative(near, out=near)
    near -= 0.5625
    np.exp(near, out=near)
    np.subtract(z, t, out=s)
    z += t
    s *= z
    s += ratio
    np.exp(s, out=s)
    near *= s
    near /= t
    return np.subtract(1.0, near, out=near)


def _ratio(s: np.ndarray, numerator: tuple, denominator: tuple) -> np.ndarray:
    """``numerator(s) / denominator(s)`` with each polynomial grouped as glibc
    groups it: the pairs ``c[2k] + s c[2k+1]`` weighted by ``s**2k`` and added
    from the lowest, with ``s**6 = s**4 s**2`` and ``s**8 = s**4 s**4``."""
    s2 = s * s
    s4 = s2 * s2
    powers = [s2, s4]
    longest = max(len(numerator), len(denominator))  # s**6 and s**8 only where used
    if longest > 6:
        powers.append(s4 * s2)
    if longest > 8:
        powers.append(s4 * s4)
    term = np.empty_like(s)
    values = []
    for c in (numerator, denominator):
        # c[k] + s c[k + 1] is formed as s c[k + 1] + c[k]: IEEE addition commutes exactly
        total = np.multiply(s, c[1])
        total += c[0]
        for power, k in zip(powers, range(2, len(c), 2)):
            if k + 1 < len(c):
                np.multiply(s, c[k + 1], out=term)
                term += c[k]
                term *= power
            else:
                np.multiply(power, c[k], out=term)
            total += term
        values.append(total)
    return np.divide(values[0], values[1], out=values[0])


# the formula of each bucket below 6, from |x| < 2**-28 up
_ERF_FORMULAS = (
    lambda t: 0.0625 * (16.0 * t + (16.0 * _EFX) * t),  # t + efx t, safe from underflow
    lambda t: t + t * _ratio(t * t, _PP, _QQ),
    lambda t: _ERX + _ratio(t - 1.0, _PA, _QA),
    lambda t: _erf_tail(t, _RA, _SA),
    lambda t: _erf_tail(t, _RB, _SB),
)


def public_p_in(channel: HomodyneChannel, epsilon: float) -> float:
    """The public in-bin probability of ``channel``, with a warning naming the
    caller's caller on a bin width outside the recommended bracket ``[2 sigma,
    4 sigma)`` and on an error level ``epsilon`` not small against the
    probability; the advice's text calls it ``error_level``."""
    epsilon = require_real("epsilon", epsilon, REAL_INTERVALS["epsilon"])
    sigma, expected = channel.shot_noise, p_in_theoretical(channel)
    if not 2.0 * sigma <= channel.bin_width < 4.0 * sigma:
        warnings.warn(f"bin_width {channel.bin_width} outside the recommended bracket "
                      f"[{2.0 * sigma}, {4.0 * sigma})", stacklevel=3)
    if epsilon >= expected / 2.0:
        warnings.warn(f"error_level {epsilon} is not small against the "
                      f"in-bin probability {expected}", stacklevel=3)
    return expected


def _accepted(p_in, expected: float, config: VerificationConfig):
    """The acceptance rule: the hit frequency lies within the error level of
    the public in-bin probability (element by element for an array)."""
    return abs(p_in - expected) < config.epsilon


def verify(key_under_test: ScatteringKey, database: CrpDatabase,
           config: VerificationConfig, rng: np.random.Generator,
           trace: bool = False) -> VerificationReport:
    """Run the verification protocol against an enrolled database.

    Each session draws a probe index uniformly, computes the physical
    response of the key under test with the database's mask and set-up
    throughput (the enrolled ``tau``), measures one uniformly
    chosen quadrature with shot noise, and scores a hit when the outcome
    falls inside the closed bin centred on the stored (enrolled)
    response for that probe and quadrature.  The key is
    accepted when the hit frequency lies within ``epsilon`` of the
    public in-bin probability.

    The response depends on the key only through its masked sum, which
    is formed once.  Sessions are independent and identically
    distributed, so the hit count is exactly ``Binomial(m_sessions, p̄)``
    with ``p̄`` from :func:`hit_probabilities`; an untraced run draws that
    one variate, row 0 of what :func:`verify_block` draws, and costs the
    same at any session count.  With ``trace=True`` every session is
    drawn around the same quadrature means, in a fixed bulk order (all
    probe indices, then all quadrature choices, then all outcomes), and
    kept as arrays in ``session_trace``.  The two paths consume the generator
    differently, so at the same seed their hit counts differ; each is
    fully reproducible from its seed.
    """
    channel = database.channel
    sums = masked_sums(key_under_test.coefficients[np.newaxis], database.tau, database.mask)
    m_sessions = config.m_sessions
    session_trace = None
    if trace:
        means, lows, highs = _cells(sums, database)
        ks = rng.integers(0, database.probe_set.n_probe_states, size=m_sessions)
        quads = rng.integers(0, 2, size=m_sessions)
        outcomes = rng.normal(means[0, ks, quads], channel.shot_noise)
        hits = (outcomes >= lows[ks, quads]) & (outcomes <= highs[ks, quads])
        total_hits = int(hits.sum())
        p_in = total_hits / m_sessions
        accepted = bool(_accepted(p_in, p_in_theoretical(channel), config))
        session_trace = np.rec.fromarrays([ks, quads * HALF_PI, outcomes, hits.view(np.uint8)],
                                          names=("k", "theta", "outcome", "hit"))
        session_trace.flags.writeable = False
    else:
        hits, p_ins, verdicts = verify_block(sums, database, config, rng)
        total_hits, p_in, accepted = int(hits[0]), float(p_ins[0]), bool(verdicts[0])

    return VerificationReport(
        sessions=m_sessions,
        hits=total_hits,
        p_in=p_in,
        # advice only once the responses are formed: they refuse a non-finite sum
        p_in_expected=public_p_in(channel, config.epsilon),
        accepted=accepted,
        enrollment_error=database.enrollment_error,
        session_trace=session_trace,
    )


def verify_block(sums: np.ndarray, database: CrpDatabase, config: VerificationConfig,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Untraced verification of a block of keys from one generator.

    ``sums`` holds the keys' masked sums, as for :func:`hit_probabilities`.
    One ``rng.binomial(m_sessions, p_bars)`` call draws every hit count, so
    row 0 is what ``verify(key_0, database, config, rng)`` draws and no
    row depends on the rows after it.  Returns the hit counts, the in-bin
    frequencies and the acceptance flags, each of shape ``(B,)``.  It
    gives no advice: a campaign calls :func:`public_p_in` once, before its
    sweep.
    """
    hits = rng.binomial(config.m_sessions, hit_probabilities(sums, database))
    p_ins = hits / config.m_sessions
    return hits, p_ins, _accepted(p_ins, p_in_theoretical(database.channel), config)
