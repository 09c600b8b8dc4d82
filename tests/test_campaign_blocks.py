"""Campaigns run in blocks of trials; every row must equal its trial built alone.

The references below rebuild single trials from their own sub-streams
with the one-key functions (``false_key``/``clone_key``,
``scattered_amplitude``, ``hit_probability``, ``verify``) and compare
with ``==``: a blocked campaign promises the same bits, not close ones.
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
    clone_key,
    enroll_exact,
    false_key,
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
from cvpuk.adversary import clone_rows, false_key_rows
from cvpuk.experiments import EXPERIMENT_IDS
from cvpuk.protocol import hit_probabilities, hit_probability, verify_block
from cvpuk.scattering import masked_sums


def _rows(n_modes):
    return max(1, experiments.BLOCK_CELLS // n_modes)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _point(key, config, mask):
    response = Response.from_amplitude(
        scattered_amplitude(key, config.tau, mask, math.sqrt(config.mu_p))
    )
    return response.x, response.y


def _isolated_response_cloud(config):
    """(x, y) of every false key of a response_cloud config, one key at a time."""
    true_key = generate_key(config.n_modes, config.l_over_L, substream(config.seed, 0))
    mask = optimal_mask(true_key, config.tau)
    return [
        _point(false_key(config.n_modes, config.l_over_L, substream(config.seed, 2, t)),
               config, mask)
        for t in range(config.trials)
    ]


def _isolated_collision(config):
    """(p_in, accepted) of every false key of a collision config, one key at a time.

    Each p_in is checked twice: from ``verify`` and from one binomial draw
    at ``hit_probability`` on the same stream.
    """
    true_key = generate_key(config.n_modes, config.l_over_L, substream(config.seed, 0))
    database = enroll_exact(true_key, config.tau, config.probe_set(), config.channel())
    outcomes = []
    for t in range(config.trials):
        impostor = false_key(config.n_modes, config.l_over_L, substream(config.seed, 2, t))
        report = verify(impostor, database, config.verification(),
                        substream(config.seed, 3, t))
        hits = substream(config.seed, 3, t).binomial(
            config.m_sessions, hit_probability(impostor, database))
        assert report.p_in == hits / config.m_sessions
        outcomes.append((report.p_in, report.accepted))
    return outcomes


def _isolated_clones(config, n_index, d_index):
    """Points, p_ins and verdicts of one clone cluster, one clone at a time."""
    n_modes = config.mode_counts[n_index]
    fraction = config.d_values[d_index]
    true_key = generate_key(n_modes, config.l_over_L, substream(config.seed, 4, n_index))
    database = enroll_exact(true_key, config.tau, config.probe_set(), config.channel())
    points, p_ins, verdicts = [], [], []
    for t in range(config.trials):
        clone, _ = clone_key(true_key, fraction,
                             substream(config.seed, 5, n_index, d_index, t))
        points.append(_point(clone, config, database.mask))
        report = verify(clone, database, config.verification(),
                        substream(config.seed, 6, n_index, d_index, t))
        p_ins.append(report.p_in)
        verdicts.append(report.accepted)
    return points, p_ins, verdicts


# 70 trials of 121 modes make two full blocks of 33 rows and one of 4, so
# the checks below cover a first, a middle and a last row of a block
TRIALS = 70
CHECKED_TRIALS = (0, 16, 32, 33, 49, 65, 66, 69)


def test_block_geometry_of_the_reference_config():
    assert _rows(121) == 33
    blocks = experiments._blocks(TRIALS, 121)
    assert [(b.start, b.stop) for b in blocks] == [(0, 33), (33, 66), (66, 70)]
    assert _rows(1) == 4096 and _rows(1000) == 4 and _rows(5000) == 1


def test_response_cloud_rows_equal_isolated_trials(tmp_path):
    config = CampaignConfig(experiment_id="response_cloud", trials=TRIALS, seed=31)
    expected = _isolated_response_cloud(config)
    rows = _read_csv(run_campaign(config, tmp_path / "cloud")["cloud"])
    assert len(rows) == TRIALS
    for t in CHECKED_TRIALS:
        assert int(rows[t]["trial"]) == t
        assert (float(rows[t]["x"]), float(rows[t]["y"])) == expected[t]
    assert [(float(r["x"]), float(r["y"])) for r in rows] == expected


def test_collision_rows_equal_isolated_verifications(tmp_path):
    config = CampaignConfig(experiment_id="collision_histogram", trials=TRIALS,
                            m_sessions=1000, n_modes=121, mu_p=0.5, seed=32)
    expected = _isolated_collision(config)
    result = run_collision_histogram(config)
    for t in CHECKED_TRIALS:
        assert result.false_p_ins[t] == expected[t][0]
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
        points, p_ins, verdicts = _isolated_clones(cheating, 0, d_index)
        cluster = [row for row in cloud_rows if float(row["D"]) == fraction]
        for t in CHECKED_TRIALS:
            assert int(cluster[t]["trial"]) == t
            assert (float(cluster[t]["x"]), float(cluster[t]["y"])) == points[t]
        assert [(float(r["x"]), float(r["y"])) for r in cluster] == points
        assert rates[fraction] == sum(verdicts) / TRIALS
        counts = [int(row["count"]) for row in histogram_rows
                  if float(row["D"]) == fraction]
        assert counts == Histogram.from_samples(p_ins, cheating.histogram_bin).counts.tolist()
        seen_accepts += sum(verdicts)
    assert 0 < seen_accepts < 2 * TRIALS


def _small_configs():
    clone = dict(trials=9, m_sessions=200, d_values=(0.0, 0.05), mode_counts=(16, 300),
                 seed=41)
    return [
        CampaignConfig(experiment_id="response_cloud", trials=45, seed=41),
        CampaignConfig(experiment_id="enhancement_condition", seed=41),
        CampaignConfig(experiment_id="collision_histogram", trials=45, m_sessions=200,
                       seed=41),
        *(CampaignConfig(experiment_id=e, **clone)
          for e in ("clone_cloud", "clone_histograms", "cheating_curve")),
    ]


@pytest.mark.parametrize("block_cells", [1, 10**9], ids=["one_row", "beyond_trials"])
def test_block_size_changes_no_artifact_byte(tmp_path, monkeypatch, block_cells):
    configs = _small_configs()
    assert sorted(c.experiment_id for c in configs) == sorted(EXPERIMENT_IDS)
    reference = {c.experiment_id: run_campaign(c, tmp_path / "ref" / c.experiment_id)
                 for c in configs}
    monkeypatch.setattr(experiments, "BLOCK_CELLS", block_cells)
    # one row per block, or one block holding every trial
    assert _rows(16) == (1 if block_cells == 1 else 10**9 // 16)
    for config in configs:
        paths = run_campaign(config, tmp_path / "patched" / config.experiment_id)
        assert set(paths) == set(reference[config.experiment_id])
        for key, path in paths.items():
            assert filecmp.cmp(path, reference[config.experiment_id][key], shallow=False), (
                config.experiment_id, key)


EDGE_SIZES = [(n, trials) for n in (1, 1000)
              for trials in (0, 1, _rows(n), _rows(n) + 1)]


@pytest.mark.parametrize("n_modes,trials", EDGE_SIZES)
def test_edge_block_sizes_match_isolated_trials(n_modes, trials):
    cloud_config = CampaignConfig(experiment_id="response_cloud", n_modes=n_modes,
                                  trials=trials, seed=51)
    points = run_response_cloud(cloud_config).points
    assert [(x, y) for _, x, y in points] == _isolated_response_cloud(cloud_config)
    assert [t for t, _, _ in points] == list(range(trials))

    collision = CampaignConfig(experiment_id="collision_histogram", n_modes=n_modes,
                               trials=trials, m_sessions=500, seed=52)
    result = run_collision_histogram(collision)
    expected = _isolated_collision(collision)
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
        points, p_ins, verdicts = _isolated_clones(config, 0, d_index)
        assert [(x, y) for d, _, x, y in point_rows if d == fraction] == points
        assert rates[fraction] == (sum(verdicts) / trials if trials else 0.0)
        histogram = result.histograms[(n_modes, fraction)]
        assert histogram.counts.tolist() == Histogram.from_samples(
            p_ins, config.histogram_bin).counts.tolist()


def test_block_builders_match_single_keys():
    true_key = generate_key(64, 0.2, substream(61, 0))

    def generators(tag):
        return [substream(61, tag, t) for t in range(5)]

    impostors = false_key_rows(64, 0.2, generators(1))
    for row, rng in zip(impostors, generators(1)):
        assert np.array_equal(row, false_key(64, 0.2, rng).coefficients)
    clones = clone_rows(true_key, 0.25, generators(2))
    for row, rng in zip(clones, generators(2)):
        assert np.array_equal(row, clone_key(true_key, 0.25, rng)[0].coefficients)
    assert false_key_rows(64, 0.2, []).shape == (0, 64)
    assert clone_rows(true_key, 0.25, []).shape == (0, 64)


def test_block_builders_refuse_non_finite_rows():
    true_key = generate_key(4, 0.2, substream(62, 0))

    class Poisoned:
        def standard_normal(self, shape):
            return np.full(shape, np.nan)

        def choice(self, n, size, replace):
            return np.arange(size)

    with pytest.raises(ValueError, match="finite"):
        false_key_rows(4, 0.2, [substream(62, 1), Poisoned()])
    with pytest.raises(ValueError, match="finite"):
        clone_rows(true_key, 0.5, [Poisoned()])


def test_masked_sums_rows_carry_the_one_key_bits():
    for n_modes in (1, 2, 7, 8, 9, 121, 256, 625, 1000, 2049):
        keys = [generate_key(n_modes, 0.2, substream(63, n_modes, t)) for t in range(6)]
        mask = optimal_mask(keys[0], 0.8)
        block = masked_sums(np.array([k.coefficients for k in keys]), 0.8, mask)
        assert block.shape == (6,)
        for key, total in zip(keys, block):
            single = scattered_amplitude(key, 0.8, mask, 1.0)
            assert total.tobytes() == np.complex128(single).tobytes()
        # under its own optimal mask every product of a key cancels its
        # imaginary part, which exposes any change in how products round;
        # numpy rounds a (1, 1) block against a (1,) mask vector unlike the
        # (1,) key itself, so the one-row, one-mode case needs checking
        single = np.complex128(scattered_amplitude(keys[0], 0.8, mask, 1.0))
        for rows in (1, 2, 5):
            block = masked_sums(np.tile(keys[0].coefficients, (rows, 1)), 0.8, mask)
            assert [total.tobytes() for total in block] == [single.tobytes()] * rows
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
    p_ins, verdicts = verify_block(sums, database, config.verification(),
                                   [substream(64, 2, i) for i in range(len(keys))])
    for i, key in enumerate(keys):
        report = verify(key, database, config.verification(), substream(64, 2, i))
        assert (p_ins[i], bool(verdicts[i])) == (report.p_in, report.accepted)
    empty_p_ins, empty_verdicts = verify_block(sums[:0], database, config.verification(), [])
    assert empty_p_ins.shape == empty_verdicts.shape == (0,)
    assert hit_probabilities(sums[:0], database).shape == (0,)

