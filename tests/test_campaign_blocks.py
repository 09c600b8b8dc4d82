"""Campaigns draw their trials in chunks; every row must equal its chunk reference.

Trial ``t`` of a purpose is row ``t % STREAM_CHUNK`` of chunk
``t // STREAM_CHUNK``, drawn from the chunk's own stream.  The references
below draw every chunk in full straight from its stream.  A clone row is
built as a ``ScatteringKey`` and evaluated with the one-key functions
(``scattered_amplitude``, ``hit_probability``, and ``verify`` for the
verdict); a false key is drawn as its masked sum alone, one circular
Gaussian per row, and evaluated one row at a time.  Both compare with
``==``: a chunked campaign promises the same bits, not close ones.
"""

import csv
import filecmp
import math

import numpy as np
import pytest

from cvpuk import (
    CampaignConfig,
    Histogram,
    Response,
    ScatteringKey,
    clone_key,
    enroll_exact,
    generate_key,
    optimal_mask,
    run_campaign,
    run_clone_experiments,
    run_collision_histogram,
    run_response_cloud,
    scattered_amplitude,
    substream,
    verify,
)
from cvpuk import experiments
from cvpuk.adversary import clone_rows, false_key_sums, replaced_count
from cvpuk.experiments import STREAM_CHUNK
from cvpuk.homodyne import p_in_theoretical
from cvpuk.protocol import hit_probabilities, hit_probability, verify_block
from cvpuk.scattering import masked_sums


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _point(key, config, mask):
    response = Response.from_amplitude(
        scattered_amplitude(key, config.tau, mask, math.sqrt(config.mu_p))
    )
    return response.x, response.y


def _key(coefficients, mode_count, l_over_L):
    return ScatteringKey(coefficients, mode_count, 0, l_over_L)


def _coefficients(parts, variance):
    """Circular Gaussians from one row's ``(2, count)`` normals, real parts first."""
    return math.sqrt(variance / 2.0) * (parts[0] + 1j * parts[1])


def _reference_false_key_sums(config):
    """The masked sum of every false key of a config, each chunk's
    ``(256, 2, 1)`` normals drawn in full from ``(2, c)``."""
    variance = config.tau * (1.0 - config.l_over_L) / config.n_modes
    sums = []
    for chunk in range(-(-config.trials // STREAM_CHUNK)):
        parts = substream(config.seed, 2, chunk).standard_normal((STREAM_CHUNK, 2, 1))
        sums.extend(_coefficients(row, variance)[0] for row in parts)
    return sums[:config.trials]


def _reference_clones(config, n_index, d_index):
    """Every clone of one cluster, each chunk drawn in full from ``(5, i, d, c)``:
    each row's positions are the first indices of its uniforms' ascending
    order, and the normals of all rows follow all the uniforms."""
    n_modes = config.mode_counts[n_index]
    true_key = generate_key(n_modes, config.l_over_L, substream(config.seed, 4, n_index))
    count = replaced_count(config.d_values[d_index], n_modes)
    clones = []
    for chunk in range(-(-config.trials // STREAM_CHUNK)):
        if count:
            rng = substream(config.seed, 5, n_index, d_index, chunk)
            uniforms = rng.random((STREAM_CHUNK, n_modes))
            normals = rng.standard_normal((STREAM_CHUNK, 2, count))
        for row in range(STREAM_CHUNK):
            coefficients = true_key.coefficients.copy()
            if count:
                positions = np.argsort(uniforms[row])[:count]
                coefficients[positions] = _coefficients(normals[row], true_key.variance)
            clones.append(_key(coefficients, n_modes, config.l_over_L))
    return true_key, clones[:config.trials]


class _Drawn:
    """Generator stand-in whose one binomial draw is already known."""

    def __init__(self, hits):
        self.hits = hits

    def binomial(self, n, p):
        return self.hits


def _reference_verdicts(p_bars, database, config, *path):
    """``(p_in, accepted)`` of every trial given its ``p̄``, one binomial draw
    per full chunk of ``path + (c,)``; the verdict is the protocol's rule
    ``|p_in - P_in| < epsilon``."""
    expected = p_in_theoretical(database.channel)
    outcomes = []
    for start in range(0, len(p_bars), STREAM_CHUNK):
        chunk = list(p_bars[start:start + STREAM_CHUNK])
        padded = chunk + [0.5] * (STREAM_CHUNK - len(chunk))
        hits = substream(config.seed, *path, start // STREAM_CHUNK).binomial(
            config.m_sessions, padded)
        for count in hits[:len(chunk)]:
            p_in = count / config.m_sessions
            outcomes.append((p_in, abs(p_in - expected) < config.epsilon))
    return outcomes


def _reference_response_cloud(config):
    amplitude = math.sqrt(config.mu_p)
    points = [Response.from_amplitude(total * amplitude)
              for total in _reference_false_key_sums(config)]
    return [(point.x, point.y) for point in points]


def _reference_collision(config):
    true_key = generate_key(config.n_modes, config.l_over_L, substream(config.seed, 0))
    database = enroll_exact(true_key, config.tau, config.probe_set(), config.channel())
    p_bars = [hit_probabilities(np.array([total]), database)[0]
              for total in _reference_false_key_sums(config)]
    return _reference_verdicts(p_bars, database, config, 3)


def _reference_clone_cluster(config, n_index, d_index):
    """Points, p_ins and verdicts of one clone cluster.  Each verdict must be
    what ``verify`` gives the clone's count, and row 0 of each chunk what
    ``verify`` draws on its own from the chunk's stream."""
    true_key, clones = _reference_clones(config, n_index, d_index)
    database = enroll_exact(true_key, config.tau, config.probe_set(), config.channel())
    verification = config.verification()
    points = [_point(clone, config, database.mask) for clone in clones]
    p_bars = [hit_probability(clone, database) for clone in clones]
    outcomes = _reference_verdicts(p_bars, database, config, 6, n_index, d_index)
    for trial, (clone, (p_in, accepted)) in enumerate(zip(clones, outcomes)):
        count = round(p_in * config.m_sessions)
        report = verify(clone, database, verification, _Drawn(count))
        assert (report.p_in, report.accepted) == (p_in, accepted)
        if trial % STREAM_CHUNK == 0:
            stream = substream(config.seed, 6, n_index, d_index, trial // STREAM_CHUNK)
            assert verify(clone, database, verification, stream).hits == count
    return points, [p for p, _ in outcomes], [v for _, v in outcomes]


TRIALS = 70


def test_block_geometry_of_the_reference_config():
    assert STREAM_CHUNK == 256
    assert experiments._chunks(0) == []
    assert experiments._chunks(70) == [(0, 0, 70)]
    assert experiments._chunks(600) == [(0, 0, 256), (1, 256, 256), (2, 512, 88)]


def test_response_cloud_rows_equal_isolated_trials(tmp_path):
    config = CampaignConfig(experiment_id="response_cloud", trials=TRIALS, seed=31)
    expected = _reference_response_cloud(config)
    rows = _read_csv(run_campaign(config, tmp_path / "cloud")["cloud"])
    assert [int(row["trial"]) for row in rows] == list(range(TRIALS))
    assert [(float(r["x"]), float(r["y"])) for r in rows] == expected


def test_collision_rows_equal_isolated_verifications(tmp_path):
    config = CampaignConfig(experiment_id="collision_histogram", trials=TRIALS,
                            m_sessions=1000, n_modes=121, mu_p=0.5, seed=32)
    expected = _reference_collision(config)
    result = run_collision_histogram(config)
    assert list(result.false_p_ins) == [p_in for p_in, _ in expected]
    accepted = sum(verdict for _, verdict in expected)
    assert result.false_acceptance_rate == accepted / TRIALS
    # at half a photon per probe every response sits within shot noise of
    # the origin, so some false keys are accepted and the count is a real check
    assert 0 < accepted < TRIALS

    paths = run_campaign(config, tmp_path / "collision")
    counts = [int(row["count"]) for row in _read_csv(paths["histogram"])]
    reference = Histogram.from_samples([p for p, _ in expected], config.histogram_bin)
    assert counts == reference.counts.tolist()


def test_clone_rows_equal_isolated_clones(tmp_path):
    base = dict(trials=TRIALS, m_sessions=1000, d_values=(0.0, 0.02), mode_counts=(121,),
                seed=33)
    cloud_paths = run_campaign(CampaignConfig(experiment_id="clone_cloud", **base),
                               tmp_path / "cloud")
    cheating = CampaignConfig(experiment_id="cheating_curve", **base)
    cheating_paths = run_campaign(cheating, tmp_path / "cheating")
    histogram_paths = run_campaign(CampaignConfig(experiment_id="clone_histograms", **base),
                                   tmp_path / "histograms")

    cloud_rows = _read_csv(cloud_paths["cloud_n121"])
    rates = {float(row["D"]): float(row["accept_rate"])
             for row in _read_csv(cheating_paths["cheating"])}
    histogram_rows = _read_csv(histogram_paths["histograms_n121"])
    seen_accepts = 0
    for d_index, fraction in enumerate(base["d_values"]):
        points, p_ins, verdicts = _reference_clone_cluster(cheating, 0, d_index)
        cluster = [row for row in cloud_rows if float(row["D"]) == fraction]
        assert [int(row["trial"]) for row in cluster] == list(range(TRIALS))
        assert [(float(r["x"]), float(r["y"])) for r in cluster] == points
        assert rates[fraction] == sum(verdicts) / TRIALS
        counts = [int(row["count"]) for row in histogram_rows
                  if float(row["D"]) == fraction]
        assert counts == Histogram.from_samples(p_ins, cheating.histogram_bin).counts.tolist()
        seen_accepts += sum(verdicts)
    assert 0 < seen_accepts < 2 * TRIALS


def _multi_chunk_configs():
    """Configs of the three campaign kinds with two full chunks and a partial one."""
    return [
        CampaignConfig(experiment_id="response_cloud", trials=600, seed=42),
        CampaignConfig(experiment_id="collision_histogram", trials=600, m_sessions=200,
                       seed=42),
        CampaignConfig(experiment_id="cheating_curve", trials=600, m_sessions=200,
                       d_values=(0.0, 0.05), mode_counts=(16, 40), seed=42),
    ]


def test_chunk_order_changes_no_artifact_byte(tmp_path, monkeypatch):
    configs = _multi_chunk_configs()
    reference = {c.experiment_id: run_campaign(c, tmp_path / "ref" / c.experiment_id)
                 for c in configs}
    in_order = experiments._chunks
    monkeypatch.setattr(experiments, "_chunks", lambda trials: in_order(trials)[::-1])
    assert [c for c, _, _ in experiments._chunks(600)] == [2, 1, 0]
    for config in configs:
        paths = run_campaign(config, tmp_path / "reversed" / config.experiment_id)
        assert set(paths) == set(reference[config.experiment_id])
        for key, path in paths.items():
            assert filecmp.cmp(path, reference[config.experiment_id][key], shallow=False), (
                config.experiment_id, key)


def _recorded_p_ins(monkeypatch):
    """Every in-bin frequency the campaigns draw, in drawing order."""
    recorded = []
    original = experiments.verify_block

    def recording(*args, **kwargs):
        p_ins, verdicts = original(*args, **kwargs)
        recorded.extend(p_ins.tolist())
        return p_ins, verdicts

    monkeypatch.setattr(experiments, "verify_block", recording)
    return recorded


@pytest.mark.parametrize("config", _multi_chunk_configs(), ids=lambda c: c.experiment_id)
def test_first_trials_do_not_depend_on_trial_count(config, monkeypatch):
    short = CampaignConfig.from_dict({**config.to_dict(), "trials": 300})
    runner = {"response_cloud": run_response_cloud,
              "collision_histogram": run_collision_histogram,
              "cheating_curve": run_clone_experiments}[config.experiment_id]
    recorded = _recorded_p_ins(monkeypatch)
    long_result = runner(config)
    long_p_ins = list(recorded)
    recorded.clear()
    short_result = runner(short)
    short_p_ins = list(recorded)

    if config.experiment_id == "response_cloud":
        assert short_result.points == long_result.points[:300]
        assert short_p_ins == long_p_ins == []
    elif config.experiment_id == "collision_histogram":
        assert short_result.false_p_ins == long_result.false_p_ins[:300]
        assert short_p_ins == list(short_result.false_p_ins)
    else:
        clusters = len(config.mode_counts) * len(config.d_values)
        assert len(long_p_ins) == 600 * clusters and len(short_p_ins) == 300 * clusters
        for cluster in range(clusters):
            assert (short_p_ins[300 * cluster:300 * (cluster + 1)]
                    == long_p_ins[600 * cluster:600 * cluster + 300])
        for n_modes in config.mode_counts:
            short_points = short_result.clouds[n_modes][1]
            long_points = long_result.clouds[n_modes][1]
            for fraction in config.d_values:
                assert ([p for p in short_points if p[0] == fraction]
                        == [p for p in long_points if p[0] == fraction][:300])


def test_zero_fraction_builds_no_clone_stream(monkeypatch):
    config = CampaignConfig(experiment_id="cheating_curve", trials=300, m_sessions=200,
                            d_values=(0.0, 0.05), mode_counts=(16, 40), seed=43)
    paths = []
    rows = []

    def recording_substream(seed, *path):
        paths.append(path)
        return substream(seed, *path)

    def recording_clone_rows(true_key, fraction, count, rng):
        block = clone_rows(true_key, fraction, count, rng)
        # a copy: the campaign forms its masked sums in the block itself
        rows.append((fraction, block.copy()))
        return block

    monkeypatch.setattr(experiments, "substream", recording_substream)
    monkeypatch.setattr(experiments, "clone_rows", recording_clone_rows)
    result = run_clone_experiments(config)

    clone_paths = sorted(p for p in paths if p[0] == 5)
    assert clone_paths == [(5, i, 1, c) for i in range(2) for c in range(2)]
    assert sorted(p for p in paths if p[0] == 6) == [
        (6, i, d, c) for i in range(2) for d in range(2) for c in range(2)]
    # a D = 0 clone is the true key: no block is built, its one masked sum is reused
    assert [fraction for fraction, _ in rows] == [0.05] * 4
    for n_index, n_modes in enumerate(config.mode_counts):
        true_key = generate_key(n_modes, config.l_over_L, substream(43, 4, n_index))
        database = enroll_exact(true_key, config.tau, config.probe_set(), config.channel())
        expected = _point(true_key, config, database.mask)
        true_response, points, summaries = result.clouds[n_modes]
        assert (true_response.x, true_response.y) == expected
        zero_points = [(x, y) for fraction, _, x, y in points if fraction == 0.0]
        assert zero_points == [expected] * config.trials
        assert summaries[0][3] == 0.0
        histogram = result.histograms[(n_modes, 0.0)]
        assert histogram.counts.sum() == config.trials


# no trials, one trial, a whole number of chunks (16 at one mode, one at
# 1000 modes) and one row past it, and small partial chunks at 1000 modes
EDGE_SIZES = [(1, 0), (1, 1), (1, 16 * STREAM_CHUNK), (1, 16 * STREAM_CHUNK + 1),
              (1000, 0), (1000, 1), (1000, 4), (1000, 5),
              (1000, STREAM_CHUNK), (1000, STREAM_CHUNK + 1)]


@pytest.mark.parametrize("n_modes,trials", EDGE_SIZES)
def test_edge_block_sizes_match_isolated_trials(n_modes, trials):
    cloud_config = CampaignConfig(experiment_id="response_cloud", n_modes=n_modes,
                                  trials=trials, seed=51)
    points = run_response_cloud(cloud_config).points
    assert [(x, y) for _, x, y in points] == _reference_response_cloud(cloud_config)
    assert [t for t, _, _ in points] == list(range(trials))

    collision = CampaignConfig(experiment_id="collision_histogram", n_modes=n_modes,
                               trials=trials, m_sessions=500, seed=52)
    result = run_collision_histogram(collision)
    expected = _reference_collision(collision)
    assert list(result.false_p_ins) == [p_in for p_in, _ in expected]
    accepted = sum(verdict for _, verdict in expected)
    assert result.false_acceptance_rate == (accepted / trials if trials else 0.0)


@pytest.mark.parametrize("n_modes,trials", EDGE_SIZES)
def test_edge_block_sizes_match_isolated_clones(n_modes, trials):
    config = CampaignConfig(experiment_id="cheating_curve", mode_counts=(n_modes,),
                            d_values=(0.0, 0.5), trials=trials, m_sessions=500, seed=53)
    result = run_clone_experiments(config)
    _, point_rows, _ = result.clouds[n_modes]
    rates = {d: rate for d, _, rate, _ in result.cheating_rows}
    for d_index, fraction in enumerate(config.d_values):
        points, p_ins, verdicts = _reference_clone_cluster(config, 0, d_index)
        assert [(x, y) for d, _, x, y in point_rows if d == fraction] == points
        assert rates[fraction] == (sum(verdicts) / trials if trials else 0.0)
        histogram = result.histograms[(n_modes, fraction)]
        assert histogram.counts.tolist() == Histogram.from_samples(
            p_ins, config.histogram_bin).counts.tolist()


def test_block_builders_match_single_keys():
    true_key = generate_key(64, 0.2, substream(61, 0))

    sums = false_key_sums(64, 0.2, 0.8, 5, substream(61, 1))
    assert sums.shape == (5,)
    assert sums[:1].tobytes() == false_key_sums(64, 0.2, 0.8, 1, substream(61, 1)).tobytes()
    parts = substream(61, 1).standard_normal((8, 2, 1))
    for total, row_parts in zip(sums, parts):
        assert total == _coefficients(row_parts, 0.8 * true_key.variance)[0]

    clone, replaced = clone_key(true_key, 0.25, substream(61, 2))
    assert np.array_equal(clone_rows(true_key, 0.25, 1, substream(61, 2))[0],
                          clone.coefficients)
    assert replaced.tolist() == substream(61, 2).random((1, 64)).argsort(axis=1)[0, :16].tolist()
    # the normals follow all the uniforms, so row 0 of a 5-row draw
    # replaces the same positions as the one-row draw, with other values
    clones = clone_rows(true_key, 0.25, 5, substream(61, 2))
    rng = substream(61, 2)
    orders = rng.random((5, 64)).argsort(axis=1)
    normals = rng.standard_normal((5, 2, 16))
    for row, order, row_normals in zip(clones, orders, normals):
        expected = true_key.coefficients.copy()
        expected[order[:16]] = _coefficients(row_normals, true_key.variance)
        assert np.array_equal(row, expected)

    assert false_key_sums(64, 0.2, 0.8, 0, substream(61, 1)).shape == (0,)
    for tau in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="tau"):
            false_key_sums(64, 0.2, tau, 1, substream(61, 1))
    assert clone_rows(true_key, 0.25, 0, substream(61, 2)).shape == (0, 64)
    # a fraction that replaces nothing copies the key and never touches the stream
    assert clone_rows(true_key, 0.0, 3, None).tobytes() == np.tile(
        true_key.coefficients, (3, 1)).tobytes()


def test_block_builders_refuse_non_finite_rows():
    true_key = generate_key(4, 0.2, substream(62, 0))

    class Poisoned:
        def standard_normal(self, shape):
            return np.full(shape, np.nan)

        def random(self, shape):
            return np.zeros(shape)

    with pytest.raises(ValueError, match="finite"):
        false_key_sums(4, 0.2, 0.8, 2, Poisoned())
    with pytest.raises(ValueError, match="finite"):
        clone_rows(true_key, 0.5, 1, Poisoned())


def test_masked_sums_rows_carry_the_one_key_bits():
    for n_modes in (1, 2, 7, 8, 9, 121, 256, 625, 1000, 2049):
        keys = [generate_key(n_modes, 0.2, substream(63, n_modes, t)) for t in range(6)]
        mask = optimal_mask(keys[0], 0.8)
        rows = np.array([k.coefficients for k in keys])
        block = masked_sums(rows, 0.8, mask)
        assert block.shape == (6,)
        for key, total in zip(keys, block):
            single = scattered_amplitude(key, 0.8, mask, 1.0)
            assert total.tobytes() == np.complex128(single).tobytes()
        # forming the products in the block itself changes no bit
        assert masked_sums(rows, 0.8, mask, overwrite_input=True).tobytes() == block.tobytes()
        # under its own optimal mask every product of a key cancels its
        # imaginary part, which exposes any change in how products round;
        # numpy rounds a (1, 1) block against a (1,) mask vector unlike the
        # (1,) key itself, so the one-row, one-mode case needs checking
        single = np.complex128(scattered_amplitude(keys[0], 0.8, mask, 1.0))
        for count in (1, 2, 5, STREAM_CHUNK):
            tiled = np.tile(keys[0].coefficients, (count, 1))
            block = masked_sums(tiled, 0.8, mask)
            assert [total.tobytes() for total in block] == [single.tobytes()] * count
            in_place = masked_sums(tiled, 0.8, mask, overwrite_input=True)
            assert in_place.tobytes() == block.tobytes()
    with pytest.raises(ValueError, match="mask length"):
        masked_sums(np.ones((3, 5), dtype=complex), 0.8, mask)
    for tau in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="tau"):
            masked_sums(np.ones((3, 1000), dtype=complex), tau, mask)


def test_block_verification_equals_single_verifications():
    config = CampaignConfig(experiment_id="cheating_curve", m_sessions=1000)
    true_key = generate_key(121, 0.2, substream(64, 0))
    database = enroll_exact(true_key, 0.8, config.probe_set(), config.channel())
    keys = [true_key] + [clone_key(true_key, d, substream(64, 1, i))[0]
                         for i, d in enumerate((0.01, 0.03, 0.05, 1.0))]
    sums = masked_sums(np.array([k.coefficients for k in keys]), 0.8, database.mask)
    p_bars = hit_probabilities(sums, database)
    assert p_bars.tolist() == [hit_probability(key, database) for key in keys]
    # equal sums, evaluated once, still give every row its own p̄
    repeats = [0, 3, 0, 0, 3, 1]
    assert hit_probabilities(sums[repeats], database).tolist() == p_bars[repeats].tolist()
    p_ins, verdicts = verify_block(sums, database, config.verification(), substream(64, 2))
    hits = substream(64, 2).binomial(1000, p_bars.tolist())
    assert p_ins.tolist() == (hits / 1000).tolist()
    for key, count, p_in, verdict in zip(keys, hits, p_ins, verdicts):
        report = verify(key, database, config.verification(), _Drawn(count))
        assert (p_in, bool(verdict)) == (report.p_in, report.accepted)
    report = verify(keys[0], database, config.verification(), substream(64, 2))
    assert (p_ins[0], bool(verdicts[0])) == (report.p_in, report.accepted)
    assert 0 < int(np.count_nonzero(verdicts)) < len(keys)
    empty_p_ins, empty_verdicts = verify_block(sums[:0], database, config.verification(),
                                               substream(64, 3))
    assert empty_p_ins.shape == empty_verdicts.shape == (0,)
    assert hit_probabilities(sums[:0], database).shape == (0,)
