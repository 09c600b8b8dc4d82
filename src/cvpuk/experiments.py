"""Seeded Monte Carlo campaigns and their file artifacts.

Every campaign is described by one flat :class:`CampaignConfig` and a
64-bit seed.  Random decisions are addressed by sub-stream paths under
that seed (see :mod:`cvpuk.streams`).  A purpose's trials are cut into
chunks of ``STREAM_CHUNK`` = 256: trial ``t`` is row ``t % 256`` of
chunk ``c = t // 256``, which has a stream of its own.  A trial's
results depend only on the seed and ``t``, never on the order of the
chunks or the trial count; runs are reproducible down to the byte.

Sub-stream paths:

====================  ==========================================
``(0,)``              true-key generation
``(1,)``              true-key verification
``(2, c)``            masked sums of the false keys of chunk ``c``
``(3, c)``            verification of those false keys
``(4, i)``            true key for the ``i``-th mode count
``(5, i, d, c)``      clones of chunk ``c`` at mode-count index ``i``, fraction index ``d``
``(6, i, d, c)``      verification of those clones (not drawn by ``clone_cloud``)
====================  ==========================================

A chunk makes one call per array: ``standard_normal((rows, 2, 1))`` for
the masked sums of false keys (see :func:`cvpuk.adversary.false_key_sums`;
no false key's coefficients are drawn); ``random((256, n))`` for the
replaced positions of clones, then one normal block for their values
(no ``(5, i, d, c)`` stream is built when a fraction replaces nothing,
and such clones share the true key's one masked sum); one
``binomial(m_sessions, p̄)`` for the hit counts.  A partial chunk draws
only its rows, but a clone chunk draws all 256, as its normals follow
its uniforms.  The chunk is also the unit of masked sums and ``p̄``.
Campaigns never trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import jsonio
from .adversary import clone_rows, false_key_sums, replaced_count
from .homodyne import (
    HomodyneChannel,
    ProbeSet,
    Response,
    p_in_theoretical,
    quadrature_means,
)
from .protocol import (
    VerificationConfig,
    e_threshold,
    enroll_exact,
    radii,
    verify,
    verify_block,
)
from .scattering import (
    enhancement,
    generate_key,
    masked_sums,
    optimal_mask,
    scattered_amplitude,
)
from .streams import substream

__all__ = [
    "EXPERIMENT_IDS",
    "REPORTED_ENHANCEMENT_BAND",
    "CampaignConfig",
    "Histogram",
    "CollisionResult",
    "ResponseCloudResult",
    "EnhancementConditionResult",
    "CloneExperimentsResult",
    "run_collision_histogram",
    "run_response_cloud",
    "run_enhancement_condition",
    "run_clone_experiments",
    "run_campaign",
]

EXPERIMENT_IDS = (
    "response_cloud",
    "enhancement_condition",
    "collision_histogram",
    "clone_cloud",
    "clone_histograms",
    "cheating_curve",
)

# span of intensity enhancements reported for existing wavefront-shaping
# set-ups, used as an overlay band in the enhancement-condition table
REPORTED_ENHANCEMENT_BAND = (50.0, 1000.0)

# trials per chunk of a campaign's random streams; part of the stream
# layout (see the table above), so changing it changes every artifact
STREAM_CHUNK = 256

# allowed interval of every real-valued config field; a tuple field's
# interval applies to each of its entries.  The enroll config and the
# thresholds flags of the command line check their real fields against
# the same table.  The floor of histogram_bin caps a histogram at 10,000 bins.
REAL_INTERVALS = {
    "l_over_L": "[0, 1)",
    "mu_p": "(0, inf)",
    "tau": "(0, 1]",
    "eta": "(0, 1]",
    "delta_over_sigma": "(0, inf)",
    "epsilon": "(0, 1)",
    "zeta": "(0, 1)",
    "histogram_bin": "[0.0001, 1]",
    "d_values": "[0, 1]",
    "photons_per_mode_values": "(0, inf)",
}


@dataclass(frozen=True)
class CampaignConfig:
    """Flat description of one campaign: physics, protocol and run sizes.

    Defaults reproduce the reference parameter set used throughout the
    bundled experiments (121 modes, uniform illumination, tau 0.8,
    eta 0.55, bin width two shot-noise units, 11 probe states of 2500
    photons, 1000 sessions, error level 0.05).  Construction is the one
    place a campaign's inputs are checked: integer fields must be ints,
    and every real field must be finite and inside its ``REAL_INTERVALS``
    entry, so a bad config fails before any artifact is written.
    """

    experiment_id: str
    n_modes: int = 121
    l_over_L: float = 0.2
    mu_p: float = 2500.0
    tau: float = 0.8
    eta: float = 0.55
    delta_over_sigma: float = 2.0
    n_probe_states: int = 11
    m_sessions: int = 1000
    epsilon: float = 0.05
    zeta: float = 0.05
    trials: int = 500
    histogram_bin: float = 0.01
    seed: int = 0
    d_values: tuple[float, ...] = (0.0, 0.01, 0.02, 0.03, 0.05)
    mode_counts: tuple[int, ...] = (121, 256, 625)
    photons_per_mode_values: tuple[float, ...] = (1.0, 5.0, 20.0, 100.0)

    def __post_init__(self):
        if self.experiment_id not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment_id {self.experiment_id!r}")
        for name in ("n_modes", "n_probe_states", "m_sessions", "trials", "seed"):
            object.__setattr__(self, name, jsonio.require_int(name, getattr(self, name)))
        object.__setattr__(
            self, "mode_counts",
            tuple(jsonio.require_int("mode_counts", n) for n in self.mode_counts),
        )
        for name, interval in REAL_INTERVALS.items():
            value = getattr(self, name)
            if name in ("d_values", "photons_per_mode_values"):
                value = tuple(jsonio.require_real(name, entry, interval) for entry in value)
            else:
                value = jsonio.require_real(name, value, interval)
            object.__setattr__(self, name, value)
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        if self.n_probe_states <= 2:
            raise ValueError("a probe set must contain more than 2 states")
        self.verification()  # checks m_sessions against the protocol's bounds
        if self.trials < 0:
            raise ValueError("trials must be non-negative")
        if any(n < 1 for n in self.mode_counts):
            raise ValueError("mode_counts must be at least 1")

    @property
    def mu_c(self) -> float:
        """Mean challenge photons after the modulator: tau * mu_p."""
        return self.tau * self.mu_p

    def channel(self) -> HomodyneChannel:
        return HomodyneChannel.from_delta_ratio(self.eta, self.delta_over_sigma)

    def probe_set(self) -> ProbeSet:
        return ProbeSet(self.n_probe_states, self.mu_p)

    def verification(self) -> VerificationConfig:
        return VerificationConfig(self.m_sessions, self.epsilon, self.zeta)

    def to_dict(self) -> dict:
        resolved = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            resolved[spec.name] = list(value) if isinstance(value, tuple) else value
        return resolved

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        known = {spec.name for spec in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class Histogram:
    """Fixed-width counting histogram over [0, 1]."""

    edges: np.ndarray
    counts: np.ndarray
    normalization: int

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        counts = np.asarray(self.counts, dtype=int)
        if counts.size != edges.size - 1:
            raise ValueError("counts length must be edges length - 1")
        if np.any(counts < 0) or counts.sum() > self.normalization:
            raise ValueError("counts must be non-negative and sum to at most the trials")
        edges.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_samples(cls, samples, bin_width: float) -> "Histogram":
        if bin_width <= 0.0 or bin_width > 1.0:
            raise ValueError("bin_width must lie in (0, 1]")
        n_bins = max(1, math.ceil(round(1.0 / bin_width, 9)))
        edges = np.linspace(0.0, 1.0, n_bins + 1)
        samples = np.asarray(list(samples), dtype=float)
        counts, _ = np.histogram(samples, edges)
        return cls(edges, counts, samples.size)

    def mode_bin(self) -> tuple[float, float]:
        """Edges of the fullest bin (first one on ties)."""
        index = int(np.argmax(self.counts))
        return float(self.edges[index]), float(self.edges[index + 1])

    def rows(self):
        """(bin_left, bin_right, count) rows for CSV emission."""
        return [
            (float(self.edges[i]), float(self.edges[i + 1]), int(self.counts[i]))
            for i in range(self.counts.size)
        ]


@dataclass(frozen=True)
class CollisionResult:
    histogram: Histogram
    true_key_p_in: float
    p_in_expected: float
    true_key_accepted: bool
    false_p_ins: tuple[float, ...]
    false_acceptance_rate: float


@dataclass(frozen=True)
class ResponseCloudResult:
    true_response: Response
    points: tuple[tuple[int, float, float], ...]
    rho_false: float
    rho_true: float
    enhancement: float


@dataclass(frozen=True)
class EnhancementConditionResult:
    rows: tuple[tuple[float, int, float], ...]
    band: tuple[float, float]


@dataclass(frozen=True)
class CloneExperimentsResult:
    """Aggregates of the clone campaigns.

    ``clouds`` maps a mode count to ``(true_response, point rows,
    summary rows)``: point rows are ``(fraction, trial, x, y)`` and
    summary rows ``(fraction, mean_x, mean_y, std_radius)``, where
    ``std_radius`` is the root-mean-square distance of a fraction's cloud
    from its own mean.  ``histograms`` maps ``(mode_count, fraction)`` to
    the in-bin frequency histogram of the clone ensemble;
    ``cheating_rows`` are ``(fraction, mode_count, accept_rate, trials)``.
    A ``clone_cloud`` run verifies no clone, so it leaves both empty.
    """

    clouds: dict
    histograms: dict
    cheating_rows: tuple[tuple[float, int, float, int], ...]
    p_in_expected: float


def _require(config: CampaignConfig, *experiment_ids: str) -> None:
    if config.experiment_id not in experiment_ids:
        raise ValueError(
            f"config is for {config.experiment_id!r}, expected one of {experiment_ids}"
        )


def _chunks(trials: int):
    """``(chunk index, first trial, rows)`` of every chunk; each chunk writes
    at its own trial indices, so the order of this list changes no result."""
    return [(chunk, start, min(STREAM_CHUNK, trials - start))
            for chunk, start in enumerate(range(0, trials, STREAM_CHUNK))]


def run_collision_histogram(config: CampaignConfig) -> CollisionResult:
    """Verify one true key and a population of false keys.

    Enrolls a single random key exactly, verifies it, then verifies
    ``trials`` fresh random keys against the same database and bins
    their in-bin frequencies.
    """
    _require(config, "collision_histogram")
    probes = config.probe_set()
    channel = config.channel()
    verification = config.verification()

    true_key = generate_key(config.n_modes, config.l_over_L, substream(config.seed, 0))
    database = enroll_exact(true_key, config.tau, probes, channel)
    true_report = verify(true_key, database, verification, substream(config.seed, 1))

    false_p_ins = np.empty(config.trials)
    accepted = 0
    for chunk, start, rows in _chunks(config.trials):
        sums = false_key_sums(config.n_modes, config.l_over_L, config.tau, rows,
                              substream(config.seed, 2, chunk))
        false_p_ins[start:start + rows], verdicts = verify_block(
            sums, database, verification, substream(config.seed, 3, chunk),
        )
        accepted += int(np.count_nonzero(verdicts))
    false_p_ins = false_p_ins.tolist()

    histogram = Histogram.from_samples(false_p_ins, config.histogram_bin)
    return CollisionResult(
        histogram=histogram,
        true_key_p_in=true_report.p_in,
        p_in_expected=true_report.p_in_expected,
        true_key_accepted=true_report.accepted,
        false_p_ins=tuple(false_p_ins),
        false_acceptance_rate=accepted / config.trials if config.trials else 0.0,
    )


def run_response_cloud(config: CampaignConfig) -> ResponseCloudResult:
    """Phase-space responses of false keys against one enrolled key's mask."""
    _require(config, "response_cloud")
    probe_amplitude = math.sqrt(config.mu_p)

    true_key = generate_key(config.n_modes, config.l_over_L, substream(config.seed, 0))
    mask = optimal_mask(true_key, config.tau)
    gain = enhancement(true_key, config.tau, mask, config.mu_c)
    rho_false, rho_true = radii(config.mu_c, true_key.variance, gain)

    means = np.empty((config.trials, 2))
    for chunk, start, rows in _chunks(config.trials):
        sums = false_key_sums(config.n_modes, config.l_over_L, config.tau, rows,
                              substream(config.seed, 2, chunk))
        means[start:start + rows] = quadrature_means(sums * probe_amplitude)

    return ResponseCloudResult(
        true_response=Response.from_amplitude(
            scattered_amplitude(true_key, config.tau, mask, probe_amplitude)
        ),
        points=tuple(zip(range(config.trials), *means.T.tolist())),
        rho_false=rho_false,
        rho_true=rho_true,
        enhancement=gain,
    )


def run_enhancement_condition(config: CampaignConfig) -> EnhancementConditionResult:
    """Detection-threshold enhancement across mode counts and photon budgets.

    For each mean photon number per incoming mode, tabulates the
    enhancement needed for guaranteed false-key detection at every mode
    count, together with the band of enhancements reported for existing
    set-ups for overlay.
    """
    _require(config, "enhancement_condition")
    rows = []
    for photons_per_mode in config.photons_per_mode_values:
        for n_modes in config.mode_counts:
            threshold = e_threshold(photons_per_mode * n_modes, n_modes, config.l_over_L)
            rows.append((float(photons_per_mode), int(n_modes), threshold))
    return EnhancementConditionResult(tuple(rows), REPORTED_ENHANCEMENT_BAND)


def _cloud_summary(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Mean point of a phase-space cloud and its rms distance from that point.

    A cloud of identical points, such as perfect clones, returns that
    point and a spread of exactly 0: the floating-point mean of equal
    values can miss them by an ulp, which would read as a spread of
    about 1e-14.
    """
    if xs.size == 0:
        return 0.0, 0.0, 0.0
    if np.all(xs == xs[0]) and np.all(ys == ys[0]):
        return float(xs[0]), float(ys[0]), 0.0
    mean_x = float(xs.mean())
    mean_y = float(ys.mean())
    return mean_x, mean_y, float(np.sqrt(np.mean((xs - mean_x) ** 2 + (ys - mean_y) ** 2)))


def run_clone_experiments(config: CampaignConfig) -> CloneExperimentsResult:
    """Clone clouds, in-bin histograms and cheating rates across mode counts.

    For every mode count, enrolls one true key and, for every clone
    fraction, builds ``trials`` independent clones; each clone
    contributes one phase-space response (under the first probe) and,
    unless the campaign is ``clone_cloud``, which writes phase-space
    points only, one full verification run.
    """
    _require(config, "clone_cloud", "clone_histograms", "cheating_curve")
    channel = config.channel()
    probes = config.probe_set()
    verification = config.verification()
    verifies = config.experiment_id != "clone_cloud"
    probe_phase_zero = math.sqrt(config.mu_p)

    clouds = {}
    histograms = {}
    cheating_rows = []
    for n_index, n_modes in enumerate(config.mode_counts):
        true_key = generate_key(n_modes, config.l_over_L, substream(config.seed, 4, n_index))
        database = enroll_exact(true_key, config.tau, probes, channel)
        mask = database.mask
        true_sum = masked_sums(true_key.coefficients, config.tau, mask)

        point_rows = []
        summary_rows = []
        for d_index, fraction in enumerate(config.d_values):
            replaces = replaced_count(fraction, n_modes) > 0
            means = np.empty((config.trials, 2))
            p_ins = np.empty(config.trials)
            accepted = 0
            for chunk, start, rows in _chunks(config.trials):
                if replaces:
                    # a partial chunk draws all rows: its normals follow its uniforms
                    clones = clone_rows(true_key, fraction, STREAM_CHUNK,
                                        substream(config.seed, 5, n_index, d_index, chunk))
                    sums = masked_sums(clones[:rows], config.tau, mask, overwrite_input=True)
                    del clones  # freed before the next chunk draws its block
                else:
                    sums = np.full(rows, true_sum)  # each clone is the true key
                means[start:start + rows] = quadrature_means(sums * probe_phase_zero)
                if verifies:
                    p_ins[start:start + rows], verdicts = verify_block(
                        sums, database, verification,
                        substream(config.seed, 6, n_index, d_index, chunk),
                    )
                    accepted += int(np.count_nonzero(verdicts))
            xs, ys = means.T.tolist()
            point_rows.extend(
                (float(fraction), trial, x, y) for trial, (x, y) in enumerate(zip(xs, ys))
            )
            summary_rows.append((float(fraction), *_cloud_summary(np.array(xs), np.array(ys))))
            if verifies:
                histograms[(n_modes, float(fraction))] = Histogram.from_samples(
                    p_ins, config.histogram_bin
                )
                rate = accepted / config.trials if config.trials else 0.0
                cheating_rows.append((float(fraction), int(n_modes), rate, config.trials))
        true_response = Response.from_amplitude(true_sum * probe_phase_zero)
        clouds[n_modes] = (true_response, tuple(point_rows), tuple(summary_rows))

    return CloneExperimentsResult(
        clouds=clouds,
        histograms=histograms,
        cheating_rows=tuple(cheating_rows),
        p_in_expected=p_in_theoretical(channel),
    )


def _write_csv(path: Path, header, rows) -> None:
    """Comma-separated header and rows, each value by ``repr``.

    Rows are tuples of Python ints and floats, which no CSV quoting
    touches, so one format string gives the bytes ``csv.writer`` would.
    """
    row_format = ",".join(["%r"] * len(header)) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(map(row_format.__mod__, rows))


def _collision_campaign(config: CampaignConfig):
    result = run_collision_histogram(config)
    files = {"histogram": ("histogram.csv", ("bin_left", "bin_right", "count"),
                           result.histogram.rows())}
    return files, {
        "p_in_expected": result.p_in_expected,
        "true_key_p_in": result.true_key_p_in,
        "true_key_accepted": result.true_key_accepted,
        "false_acceptance_rate": result.false_acceptance_rate,
        "trials": config.trials,
    }


def _response_campaign(config: CampaignConfig):
    result = run_response_cloud(config)
    files = {"cloud": ("cloud.csv", ("trial", "x", "y"), result.points)}
    return files, {
        "true_x": result.true_response.x,
        "true_y": result.true_response.y,
        "rho_f": result.rho_false,
        "rho_t": result.rho_true,
        "enhancement": result.enhancement,
        "trials": config.trials,
    }


def _enhancement_campaign(config: CampaignConfig):
    result = run_enhancement_condition(config)
    files = {"thresholds": ("thresholds.csv", ("photons_per_mode", "n_modes", "e_th"),
                            result.rows)}
    return files, {"band_low": result.band[0], "band_high": result.band[1]}


def _clone_cloud_campaign(config: CampaignConfig):
    result = run_clone_experiments(config)
    files = {}
    summary = {"p_in_expected": result.p_in_expected, "trials": config.trials}
    for n_modes, (true_response, point_rows, summary_rows) in result.clouds.items():
        files[f"cloud_n{n_modes}"] = (f"clone_cloud_n{n_modes}.csv",
                                      ("D", "trial", "x", "y"), point_rows)
        summary[f"n{n_modes}"] = {
            "true_x": true_response.x,
            "true_y": true_response.y,
            "clusters": [
                {"D": d, "mean_x": mx, "mean_y": my, "std_radius": sr}
                for d, mx, my, sr in summary_rows
            ],
        }
    return files, summary


def _clone_histograms_campaign(config: CampaignConfig):
    result = run_clone_experiments(config)
    files = {}
    for n_modes in config.mode_counts:
        rows = []
        for fraction in config.d_values:
            histogram = result.histograms[(n_modes, float(fraction))]
            rows.extend(
                (float(fraction), left, right, count)
                for left, right, count in histogram.rows()
            )
        files[f"histograms_n{n_modes}"] = (f"clone_histograms_n{n_modes}.csv",
                                           ("D", "bin_left", "bin_right", "count"), rows)
    return files, {"p_in_expected": result.p_in_expected, "trials": config.trials}


def _cheating_campaign(config: CampaignConfig):
    result = run_clone_experiments(config)
    files = {"cheating": ("cheating.csv", ("D", "n_modes", "accept_rate", "trials"),
                          result.cheating_rows)}
    return files, {
        "p_in_expected": result.p_in_expected,
        "trials": config.trials,
        "acceptance": [
            {"D": d, "n_modes": n, "accept_rate": rate, "trials": trials}
            for d, n, rate, trials in result.cheating_rows
        ],
    }


# experiment id -> campaign; a campaign returns its CSV files, keyed by
# artifact name as (file name, header, rows), and its summary document
_CAMPAIGNS = {
    "response_cloud": _response_campaign,
    "enhancement_condition": _enhancement_campaign,
    "collision_histogram": _collision_campaign,
    "clone_cloud": _clone_cloud_campaign,
    "clone_histograms": _clone_histograms_campaign,
    "cheating_curve": _cheating_campaign,
}


def run_campaign(config: CampaignConfig, out_dir) -> dict[str, Path]:
    """Run one campaign and write its artifact directory.

    Always writes ``config.json`` (the fully resolved configuration,
    sufficient to reproduce the run) and ``summary.json`` with headline
    statistics, plus one or more CSV data files depending on the
    experiment.  Identical configurations produce byte-identical files.
    The campaign runs before the directory is created, so a run that
    fails writes nothing.
    """
    files, summary = _CAMPAIGNS[config.experiment_id](config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"config": out_dir / "config.json"}
    jsonio.dump(config.to_dict(), paths["config"])
    for key, (name, header, rows) in files.items():
        paths[key] = out_dir / name
        _write_csv(paths[key], header, rows)
    paths["summary"] = out_dir / "summary.json"
    jsonio.dump(summary, paths["summary"])
    return paths
