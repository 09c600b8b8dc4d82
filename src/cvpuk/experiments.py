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
``(0,)``              true key, then its verification
``(2, c)``            false keys of chunk ``c``, then their verification
``(4, i)``            true key for the ``i``-th mode count
``(5, i, d, c)``      clones of chunk ``c`` at mode-count index ``i``,
                      fraction index ``d``, then their verification
====================  ==========================================

A campaign's chunk paths share one length, so :func:`_chunks` derives
all of them, the ``(2, c)`` of a false-key population or the ``(5, i,
d, c)`` of every cluster of a clone sweep, in one
:func:`~cvpuk.streams.substreams` call, a single vectorised pass; each
stream has the state of ``substream(seed, *path)``, so the table alone
fixes the draws.

Every chunk draws from its one stream the keys of all 256 rows, then
one ``binomial(m_sessions, p̄)`` for the hit counts of its ``rows``
trials; a partial chunk keeps the first ``rows`` keys, so its rows are
those of a full chunk, and a campaign that verifies nothing stops after
the keys.  The keys take one call per array: one ``(256, 2, 1)`` block
of ``standard_normal`` for the masked sums of false keys (see
:func:`cvpuk.adversary.false_key_sums`; no false key's coefficients are
drawn); ``integers(0, n - arange(s), size=(256, s))`` with ``s =
min(count, n - count)``, the offsets of a partial Fisher–Yates shuffle,
for the replaced positions of clones (none when ``count == n``), then
one such block of normals for their fresh terms' sums (see
:func:`cvpuk.adversary.clone_sums`; a fraction that replaces nothing
draws no key, and its clones share the true key's one masked sum).

A population is verified in blocks of at most ``BLOCK_CHUNKS`` = 4
consecutive chunks, 1,024 rows, taken in the order of their first
trials: one :func:`~cvpuk.protocol.hit_probabilities` pass evaluates
``p̄`` of the block's trials, and then each chunk draws the hit counts of
its own trials from its own stream.  A false-key campaign draws every
chunk's keys before it evaluates any of them: each chunk's stream writes
its 256 rows into one population, placed by the chunk's first trial,
whose masked sums are formed in one pass and, in ``response_cloud``, its
responses in one more; ``collision_histogram`` then verifies the
population block by block.  A clone campaign forms each cluster, one
mode count and one fraction, block by block: one
:func:`~cvpuk.adversary.clone_sums` call draws the clones of the block's
chunks, each stream its positions and then its normals, one
:meth:`~cvpuk.homodyne.ProbeSet.responses` call places them and, unless
the campaign is ``clone_cloud``, the block is verified.  A block never
spans two fractions or two mode counts.  This orders only the work
across streams: each stream draws its keys before its hit counts, as the
table says, and a row's masked sum, response and ``p̄`` carry the same
bits in a block of any size.  Campaigns never trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import jsonio
from .adversary import clone_sums, false_key_sums
from .homodyne import HomodyneChannel, ProbeSet, p_in_theoretical
from .protocol import (
    VerificationConfig,
    binomial_verdicts,
    e_threshold,
    enroll_exact,
    hit_probabilities,
    public_p_in,
    radii,
)
from .scattering import enhancement, generate_key, masked_sums, require_mode_count
from .streams import substream, substreams

__all__ = [
    "EXPERIMENT_IDS",
    "REPORTED_ENHANCEMENT_BAND",
    "CampaignConfig",
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

# span of intensity enhancements reported for existing wavefront-shaping
# set-ups, used as an overlay band in the enhancement-condition table
REPORTED_ENHANCEMENT_BAND = (50.0, 1000.0)

# trials per chunk of a campaign's random streams; part of the stream
# layout (see the table above), so changing it changes every artifact
STREAM_CHUNK = 256
# chunks verified in one p̄ pass and drawn in one clone_sums call, so a block
# holds at most 1,024 rows; rows do not depend on their block, so this moves
# no result, and a block as wide as a mode count was slower and held more memory
BLOCK_CHUNKS = 4


@dataclass(frozen=True)
class CampaignConfig:
    """Flat description of one campaign: physics, protocol and run sizes.

    Defaults reproduce the reference parameter set used throughout the
    bundled experiments (121 modes, uniform illumination, tau 0.8,
    eta 0.55, bin width two shot-noise units, 11 probe states of 2500
    photons, 1000 sessions, error level 0.05).  Construction checks every
    field, so a bad config fails before any work: integer fields must be
    ints, every real field must be finite and inside its ``REAL_INTERVALS``
    entry, the three sweep fields must be lists or tuples, no mode count
    may exceed the double range, ``mode_counts`` and ``d_values`` must not
    repeat an entry, and
    the probe set and verification config it builds check the probe and
    session counts.
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
        object.__setattr__(self, "n_modes", require_mode_count("n_modes", self.n_modes))
        for name, minimum in (("trials", 0), ("seed", 0)):
            object.__setattr__(self, name, jsonio.require_int(name, getattr(self, name), minimum))
        for name in ("mode_counts", "d_values", "photons_per_mode_values"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise TypeError(f"{name} must be a list or tuple, got {getattr(self, name)!r}")
        object.__setattr__(
            self, "mode_counts",
            tuple(require_mode_count("mode_counts", n) for n in self.mode_counts),
        )
        for name, interval in jsonio.REAL_INTERVALS.items():
            value = getattr(self, name)
            if name in ("d_values", "photons_per_mode_values"):
                value = tuple(jsonio.require_real(name, entry, interval) for entry in value)
            else:
                value = jsonio.require_real(name, value, interval)
            object.__setattr__(self, name, value)
        for name in ("mode_counts", "d_values"):  # each entry keys its own artifacts
            entries = getattr(self, name)
            if len(set(entries)) != len(entries):
                raise ValueError(f"{name} must not repeat an entry, got {list(entries)}")
        self.probe_set()  # checks n_probe_states
        self.verification()  # checks m_sessions

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
    def from_dict(cls, data: dict, **overrides) -> "CampaignConfig":
        """The config of a JSON object with ``overrides``, such as a command-line
        seed, in place of its fields; an unknown field raises ValueError."""
        known = {spec.name for spec in fields(cls)}
        return cls(**{**jsonio.require_object("config", data, known), **overrides})


@dataclass(frozen=True)
class CollisionResult:
    """``false_p_ins`` is the read-only ``(trials,)`` array of the false
    keys' in-bin frequencies, row ``t`` that of false key ``t``."""

    true_key_p_in: float
    p_in_expected: float
    true_key_accepted: bool
    false_p_ins: np.ndarray
    false_acceptance_rate: float


@dataclass(frozen=True)
class ResponseCloudResult:
    """``true_response`` is the true key's enrolled ``(x, y)`` under probe 0
    and row ``t`` of ``means`` that of false key ``t``, shape ``(trials, 2)``."""

    true_response: np.ndarray
    means: np.ndarray
    rho_false: float
    rho_true: float
    enhancement: float


@dataclass(frozen=True)
class EnhancementConditionResult:
    """``thresholds[p, i]`` is the detection-threshold enhancement at the
    config's ``photons_per_mode_values[p]`` and ``mode_counts[i]``."""

    thresholds: np.ndarray


@dataclass(frozen=True)
class CloneExperimentsResult:
    """The clone sweep, indexed by ``i`` in the order of ``config.mode_counts``,
    ``d`` in that of ``config.d_values`` and trial ``t``.

    ``true_responses[i]`` is the enrolled ``(x, y)`` of probe 0, row 0 of
    the database's centres; ``means[i, d, t]`` is clone ``t``'s ``(x, y)``
    under probe 0 and ``p_ins[i, d, t]`` its in-bin frequency;
    ``accepted[i, d]`` counts the accepted clones.  A ``clone_cloud`` run
    verifies no clone, so its ``p_ins`` and ``accepted`` have size 0.
    """

    true_responses: np.ndarray
    means: np.ndarray
    p_ins: np.ndarray
    accepted: np.ndarray
    p_in_expected: float


def _require(config: CampaignConfig, *experiment_ids: str) -> None:
    if config.experiment_id not in experiment_ids:
        raise ValueError(
            f"config is for {config.experiment_id!r}, expected one of {experiment_ids}"
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _chunks(trials: int, seed: int, *prefixes: tuple[int, ...]):
    """For each of ``prefixes``, paths of one length, the ``(stream, first
    trial, rows)`` of every chunk, the stream that of ``prefix + (chunk
    index,)``, all from one :func:`~cvpuk.streams.substreams` call; each
    chunk writes at its own trial indices, so the order of a prefix's list
    changes no result."""
    starts = range(0, trials, STREAM_CHUNK)
    streams = iter(substreams(seed, [(*prefix, chunk) for prefix in prefixes
                                     for chunk in range(len(starts))]))
    return [[(next(streams), start, min(STREAM_CHUNK, trials - start)) for start in starts]
            for _ in prefixes]


def _blocks(chunks):
    """The chunks in the order of their first trials, in runs of at most
    ``BLOCK_CHUNKS`` consecutive ones; only the last run's last chunk may
    be partial, so each run's trials follow one another."""
    ordered = sorted(chunks, key=lambda chunk: chunk[1])
    return [ordered[k:k + BLOCK_CHUNKS] for k in range(0, len(ordered), BLOCK_CHUNKS)]


def _verify_chunks(chunks, sums, database, verification):
    """``(p_ins, accepted)`` of a run of consecutive chunks given ``sums``,
    the masked sums of its trials in trial order: the trials' in-bin
    frequencies, in the same order, and how many of them are accepted.

    Each of the :func:`_blocks` of the run takes one
    :func:`~cvpuk.protocol.hit_probabilities` pass over its trials, at most
    1,024 rows; then each of its chunks, in the order of their first
    trials, draws its trials' :func:`~cvpuk.protocol.binomial_verdicts` from
    its own stream.  A row's ``p̄`` has the bits of that row alone, so every
    chunk draws what it would draw verified on its own."""
    p_ins = np.empty(len(sums))
    accepted = 0
    row = 0
    for block in _blocks(chunks):
        p_bars = hit_probabilities(sums[row:row + sum(chunk[2] for chunk in block)], database)
        for stream, _, rows in block:
            _, p_ins[row:row + rows], verdicts = binomial_verdicts(p_bars[:rows], database,
                                                                   verification, stream)
            accepted += int(np.count_nonzero(verdicts))
            p_bars, row = p_bars[rows:], row + rows
    return p_ins, accepted


def _false_key_population(config: CampaignConfig):
    """``(chunks, sums)``: the :func:`_chunks` of the false keys' trials, in
    the order of their first trials, and the masked sums of all 256 keys of
    every chunk, a partial one included, the chunk that starts at trial
    ``t`` at rows ``t`` to ``t + 255``."""
    chunks = sorted(_chunks(config.trials, config.seed, (2,))[0], key=lambda chunk: chunk[1])
    return chunks, false_key_sums(config.n_modes, config.l_over_L, config.tau, STREAM_CHUNK,
                                  *[stream for stream, _, _ in chunks])


def run_collision_histogram(config: CampaignConfig) -> CollisionResult:
    """Verify one true key and a population of false keys.

    Enrolls a single random key exactly, verifies it, then verifies
    ``trials`` fresh random keys against the same database.  Advice on the
    bin width and error level is given once, before any key is drawn, and
    names the caller.
    """
    _require(config, "collision_histogram")
    probes = config.probe_set()
    channel = config.channel()
    verification = config.verification()
    expected = public_p_in(channel, verification.epsilon)

    true_stream = substream(config.seed, 0)
    true_key = generate_key(config.n_modes, config.l_over_L, true_stream)
    database = enroll_exact(true_key, config.tau, probes, channel)
    # what an untraced verify of the true key draws: one chunk of one row
    true_sum = masked_sums(true_key.coefficients[np.newaxis], config.tau, database.mask)
    true_p_ins, true_accepted = _verify_chunks([(true_stream, 0, 1)], true_sum, database,
                                               verification)

    chunks, sums = _false_key_population(config)
    false_p_ins, accepted = _verify_chunks(chunks, sums[:config.trials], database, verification)

    return CollisionResult(
        true_key_p_in=float(true_p_ins[0]),
        p_in_expected=expected,
        true_key_accepted=bool(true_accepted),
        false_p_ins=_read_only(false_p_ins),
        false_acceptance_rate=accepted / config.trials if config.trials else 0.0,
    )


def run_response_cloud(config: CampaignConfig) -> ResponseCloudResult:
    """Phase-space responses of false keys against one enrolled key's mask."""
    _require(config, "response_cloud")
    probes = config.probe_set()

    true_key = generate_key(config.n_modes, config.l_over_L, substream(config.seed, 0))
    database = enroll_exact(true_key, config.tau, probes, config.channel())
    gain = enhancement(true_key, database.mask)
    rho_false, rho_true = radii(config.mu_c, true_key.variance, gain)

    _, sums = _false_key_population(config)
    means = probes.responses(sums[:config.trials], 0)

    return ResponseCloudResult(
        true_response=database.centers[0],
        means=_read_only(means),
        rho_false=rho_false,
        rho_true=rho_true,
        enhancement=gain,
    )


def run_enhancement_condition(config: CampaignConfig) -> EnhancementConditionResult:
    """Detection-threshold enhancement across mode counts and photon budgets.

    For each mean photon number per incoming mode, tabulates the
    enhancement needed for guaranteed false-key detection at every mode
    count.
    """
    _require(config, "enhancement_condition")
    thresholds = np.empty((len(config.photons_per_mode_values), len(config.mode_counts)))
    for p, photons_per_mode in enumerate(config.photons_per_mode_values):
        for i, n_modes in enumerate(config.mode_counts):
            thresholds[p, i] = e_threshold(photons_per_mode * n_modes, n_modes, config.l_over_L)
    return EnhancementConditionResult(_read_only(thresholds))


def run_clone_experiments(config: CampaignConfig) -> CloneExperimentsResult:
    """Clone clouds, in-bin frequencies and acceptances across mode counts.

    For every mode count, enrolls one true key and, for every clone
    fraction, builds ``trials`` independent clones; each clone
    contributes one phase-space response (under the first probe) and,
    unless the campaign is ``clone_cloud``, which writes phase-space
    points only, one full verification run.  A verifying campaign gives
    its advice on the bin width and error level once, before any key is
    drawn, and names the caller.
    """
    _require(config, "clone_cloud", "clone_histograms", "cheating_curve")
    channel = config.channel()
    probes = config.probe_set()
    verification = config.verification()
    verifies = config.experiment_id != "clone_cloud"
    expected = public_p_in(channel, verification.epsilon) if verifies \
        else p_in_theoretical(channel)

    clusters = (len(config.mode_counts), len(config.d_values))
    true_responses = np.empty((clusters[0], 2))
    means = np.empty((*clusters, config.trials, 2))
    p_ins = np.empty((*clusters, config.trials) if verifies else 0)
    accepted = np.zeros(clusters if verifies else 0, dtype=int)
    cluster_chunks = _chunks(config.trials, config.seed,
                             *[(5, i, d) for i in range(clusters[0]) for d in range(clusters[1])])
    for i, n_modes in enumerate(config.mode_counts):
        true_key = generate_key(n_modes, config.l_over_L, substream(config.seed, 4, i))
        database = enroll_exact(true_key, config.tau, probes, channel)
        true_responses[i] = database.centers[0]
        for d, fraction in enumerate(config.d_values):
            for block in _blocks(cluster_chunks[i * clusters[1] + d]):
                start = block[0][1]
                rows = sum(chunk[2] for chunk in block)
                sums = clone_sums(true_key, fraction, config.tau, database.mask, STREAM_CHUNK,
                                  *[stream for stream, _, _ in block])[:rows]
                means[i, d, start:start + rows] = probes.responses(sums, 0)
                if verifies:
                    p_ins[i, d, start:start + rows], verified = _verify_chunks(
                        block, sums, database, verification)
                    accepted[i, d] += verified

    return CloneExperimentsResult(
        true_responses=_read_only(true_responses),
        means=_read_only(means),
        p_ins=_read_only(p_ins),
        accepted=_read_only(accepted),
        p_in_expected=expected,
    )


def _histogram_columns(samples, bin_width: float):
    """``(bin_left, bin_right, counts)`` of histograms of each row of the 2-D
    ``samples`` in ``ceil(1 / bin_width)`` bins splitting [0, 1] evenly, 1.0
    in the last: a ``bin_width`` of 0.3 gives four bins of 0.25.  The edges
    are the bins' columns; ``counts[r]`` counts row ``r``.  The width is a
    ``CampaignConfig.histogram_bin``, which its interval,
    ``REAL_INTERVALS["histogram_bin"]``, caps at 10,000 bins."""
    edges = np.linspace(0.0, 1.0, max(1, math.ceil(round(1.0 / bin_width, 9))) + 1)
    counts = np.array([np.histogram(row, edges)[0] for row in samples], dtype=np.int64)
    return edges[:-1], edges[1:], counts


def _collision_campaign(config: CampaignConfig):
    result = run_collision_histogram(config)
    lefts, rights, counts = _histogram_columns([result.false_p_ins], config.histogram_bin)
    files = {"histogram": ("histogram.csv", (("bin_left", "bin_right", "count"),
                                             (lefts, rights, counts[0])))}
    return files, {
        "p_in_expected": result.p_in_expected,
        "true_key_p_in": result.true_key_p_in,
        "true_key_accepted": result.true_key_accepted,
        "false_acceptance_rate": result.false_acceptance_rate,
        "trials": config.trials,
    }


def _response_campaign(config: CampaignConfig):
    result = run_response_cloud(config)
    files = {"cloud": ("cloud.csv", (("trial", "x", "y"),
                                     (np.arange(config.trials), *result.means.T)))}
    true_x, true_y = result.true_response.tolist()
    return files, {
        "true_x": true_x,
        "true_y": true_y,
        "rho_f": result.rho_false,
        "rho_t": result.rho_true,
        "enhancement": result.enhancement,
        "trials": config.trials,
    }


def _enhancement_campaign(config: CampaignConfig):
    result = run_enhancement_condition(config)
    photons, mode_counts = config.photons_per_mode_values, config.mode_counts
    columns = (np.repeat(photons, len(mode_counts)), np.tile(mode_counts, len(photons)),
               result.thresholds.ravel())
    files = {"thresholds": ("thresholds.csv", (("photons_per_mode", "n_modes", "e_th"), columns))}
    band_low, band_high = REPORTED_ENHANCEMENT_BAND
    return files, {"band_low": band_low, "band_high": band_high}


def _cloud_summary(means: np.ndarray) -> tuple[float, float, float]:
    """Mean point of a ``(trials, 2)`` phase-space cloud and its rms distance
    from that point.

    A cloud of identical points, such as perfect clones, returns that
    point and a spread of exactly 0: the floating-point mean of equal
    values can miss them by an ulp, which would read as a spread of
    about 1e-14.
    """
    if not len(means):
        return 0.0, 0.0, 0.0
    if np.all(means == means[0]):
        return (*means[0].tolist(), 0.0)
    xs, ys = means.T
    mean_x = float(xs.mean())
    mean_y = float(ys.mean())
    return mean_x, mean_y, float(np.sqrt(np.mean((xs - mean_x) ** 2 + (ys - mean_y) ** 2)))


def _clone_cloud_campaign(config: CampaignConfig):
    result = run_clone_experiments(config)
    files = {}
    summary = {"p_in_expected": result.p_in_expected, "trials": config.trials}
    # the clusters one after another, each in trial order
    fractions = np.repeat(config.d_values, config.trials)
    trials = np.tile(np.arange(config.trials), len(config.d_values))
    for n_modes, true_response, means in zip(config.mode_counts, result.true_responses,
                                             result.means):
        files[f"cloud_n{n_modes}"] = (f"clone_cloud_n{n_modes}.csv", (
            ("D", "trial", "x", "y"), (fractions, trials, *means.reshape(-1, 2).T)))
        true_x, true_y = true_response.tolist()
        summary[f"n{n_modes}"] = {
            "true_x": true_x,
            "true_y": true_y,
            "clusters": [
                {"D": d, "mean_x": mx, "mean_y": my, "std_radius": sr}
                for d, (mx, my, sr) in zip(config.d_values, map(_cloud_summary, means))
            ],
        }
    return files, summary


def _clone_histograms_campaign(config: CampaignConfig):
    result = run_clone_experiments(config)
    files = {}
    clusters = len(config.d_values)
    for n_modes, p_ins in zip(config.mode_counts, result.p_ins):
        # one histogram per fraction, one after another
        lefts, rights, counts = _histogram_columns(p_ins, config.histogram_bin)
        columns = (np.repeat(config.d_values, len(lefts)), np.tile(lefts, clusters),
                   np.tile(rights, clusters), counts.ravel())
        files[f"histograms_n{n_modes}"] = (f"clone_histograms_n{n_modes}.csv",
                                           (("D", "bin_left", "bin_right", "count"), columns))
    return files, {"p_in_expected": result.p_in_expected, "trials": config.trials}


def _cheating_campaign(config: CampaignConfig):
    result = run_clone_experiments(config)
    # with no trials nothing is accepted, and the rate is 0 / 1
    rates = result.accepted / max(config.trials, 1)
    fractions, mode_counts = config.d_values, config.mode_counts
    columns = (np.tile(fractions, len(mode_counts)), np.repeat(mode_counts, len(fractions)),
               rates.ravel(), np.full(rates.size, config.trials))
    files = {"cheating": ("cheating.csv", (("D", "n_modes", "accept_rate", "trials"), columns))}
    return files, {
        "p_in_expected": result.p_in_expected,
        "trials": config.trials,
        "acceptance": [
            {"D": d, "n_modes": n, "accept_rate": rate, "trials": config.trials}
            for n, n_rates in zip(mode_counts, rates.tolist())
            for d, rate in zip(fractions, n_rates)
        ],
    }


# experiment id -> campaign; a campaign returns its CSV files, keyed by
# artifact name as (file name, (header, columns)), and its summary document
_CAMPAIGNS = {
    "response_cloud": _response_campaign,
    "enhancement_condition": _enhancement_campaign,
    "collision_histogram": _collision_campaign,
    "clone_cloud": _clone_cloud_campaign,
    "clone_histograms": _clone_histograms_campaign,
    "cheating_curve": _cheating_campaign,
}
EXPERIMENT_IDS = tuple(_CAMPAIGNS)


def run_campaign(config: CampaignConfig, out_dir) -> dict[str, Path]:
    """Run one campaign and write its artifact directory.

    Always writes ``config.json`` (the fully resolved configuration,
    sufficient to reproduce the run) and ``summary.json`` with headline
    statistics, plus one or more CSV data files depending on the
    experiment.  Identical configurations produce byte-identical files.
    The campaign runs before the directory is created, so a run that
    fails writes nothing.  The paths come back in write order.
    """
    files, summary = _CAMPAIGNS[config.experiment_id](config)
    return jsonio.write_artifacts(out_dir, {"config": ("config.json", config.to_dict()), **files,
                                            "summary": ("summary.json", summary)})
