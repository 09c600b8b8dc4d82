"""Campaigns draw their trials in chunks; every row must equal its chunk reference.

Trial ``t`` of a purpose is row ``t % STREAM_CHUNK`` of chunk
``t // STREAM_CHUNK``, drawn from the chunk's own stream.  The references
below draw every chunk in full straight from its stream.  A clone row is
its sufficient statistic, evaluated on its own: the true key's masked
sum, less the true key's masked terms at the row's replaced positions
(a plain Fisher–Yates loop over the row's offsets), plus one circular
Gaussian; its response by ``quadrature_means`` and its
``p̄`` by ``hit_probabilities`` of that row alone.  A false key is drawn
as its masked sum alone, one circular Gaussian per row, and evaluated
one row at a time.  Both compare with ``==``: a chunked campaign
promises the same bits, not close ones.  ``p̄`` itself is checked
against an mpmath oracle, within a stated bound.
"""

import csv
import filecmp
import math

import mpmath
import numpy as np
import pytest

from cvpuk import (
    CampaignConfig,
    ProbeSet,
    VerificationConfig,
    clone_key,
    enroll_exact,
    generate_key,
    m_threshold,
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
from cvpuk.adversary import clone_sums, false_key_sums, replaced_count
from cvpuk.experiments import STREAM_CHUNK
from cvpuk.homodyne import p_in_theoretical, quadrature_means
from cvpuk.protocol import hit_probabilities, verify_block
from cvpuk.scattering import masked_sums, masked_terms


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _point(key, config, mask):
    """A key's ``(x, y)`` under probe 0, whose amplitude is ``sqrt(mu_p)``."""
    amplitude = scattered_amplitude(key, config.tau, mask, math.sqrt(config.mu_p))
    return tuple(quadrature_means(np.complex128(amplitude)).tolist())


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


def _offsets(rng, rows, n_modes, count):
    """A chunk's Fisher–Yates offsets, ``(rows, s)`` with ``s = min(count, n - count)``:
    the offset of step ``i`` lies in ``[0, n - i)``."""
    steps = min(count, n_modes - count)
    return rng.integers(0, n_modes - np.arange(steps), size=(rows, steps))


def _reference_positions(offsets, n_modes, count):
    """One row's replaced positions by a plain Fisher–Yates loop: step ``i``
    swaps slot ``i`` with slot ``i + offset``; the first ``count`` slots, or,
    when more than half are replaced, every slot after the kept ones."""
    slots = list(range(n_modes))
    for i, offset in enumerate(offsets.tolist()):
        slots[i], slots[i + offset] = slots[i + offset], slots[i]
    return slots[:count] if count <= n_modes - count else slots[len(offsets):]


def _reference_clone_sums(config, true_key, mask, n_index, d_index):
    """The masked sum of every clone of one cluster, each chunk drawn in full
    from ``(5, i, d, c)`` and each row summed alone: the true sum less the
    true terms at the row's Fisher–Yates positions, plus the row's circular
    Gaussian of variance ``count * tau * variance / n``.  The normals of all
    rows follow all the offsets."""
    n_modes = true_key.mode_count
    count = replaced_count(config.d_values[d_index], n_modes)
    true_sum = masked_sums(true_key.coefficients, config.tau, mask)
    terms = masked_terms(true_key.coefficients, config.tau, mask)
    variance = count * config.tau * true_key.variance / n_modes
    sums = []
    for chunk in range(-(-config.trials // STREAM_CHUNK)):
        if not count:
            sums.extend([true_sum] * STREAM_CHUNK)
            continue
        rng = substream(config.seed, 5, n_index, d_index, chunk)
        offsets = _offsets(rng, STREAM_CHUNK, n_modes, count)
        normals = rng.standard_normal((STREAM_CHUNK, 2, 1))
        for row_offsets, row_normals in zip(offsets, normals):
            positions = _reference_positions(row_offsets, n_modes, count)
            sums.append(true_sum - np.sum(terms[positions])
                        + _coefficients(row_normals, variance)[0])
    return sums[:config.trials]


class _Drawn:
    """Generator stand-in whose one binomial draw is already known."""

    def __init__(self, hits):
        self.hits = hits

    def binomial(self, n, p):
        return np.full(np.shape(p), self.hits)


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
    return [tuple(quadrature_means(total * amplitude).tolist())
            for total in _reference_false_key_sums(config)]


def _reference_collision(config):
    true_key = generate_key(config.n_modes, config.l_over_L, substream(config.seed, 0))
    database = enroll_exact(true_key, config.tau, config.probe_set(), config.channel())
    p_bars = [hit_probabilities(np.array([total]), database)[0]
              for total in _reference_false_key_sums(config)]
    return _reference_verdicts(p_bars, database, config, 3)


def _reference_clone_cluster(config, n_index, d_index):
    """Points, p_ins and verdicts of one clone cluster.  Row 0 of each chunk
    must be what one binomial draw of its ``p̄`` gives on its own."""
    n_modes = config.mode_counts[n_index]
    true_key = generate_key(n_modes, config.l_over_L, substream(config.seed, 4, n_index))
    database = enroll_exact(true_key, config.tau, config.probe_set(), config.channel())
    sums = _reference_clone_sums(config, true_key, database.mask, n_index, d_index)
    amplitude = math.sqrt(config.mu_p)
    points = [tuple(quadrature_means(total * amplitude).tolist()) for total in sums]
    p_bars = [float(hit_probabilities(np.array([total]), database)[0]) for total in sums]
    outcomes = _reference_verdicts(p_bars, database, config, 6, n_index, d_index)
    for trial in range(0, len(sums), STREAM_CHUNK):
        stream = substream(config.seed, 6, n_index, d_index, trial // STREAM_CHUNK)
        hits = stream.binomial(config.m_sessions, p_bars[trial])
        assert hits / config.m_sessions == outcomes[trial][0]
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
    # the default histogram_bin of 0.01 makes 100 bins
    reference, _ = np.histogram([p for p, _ in expected], np.linspace(0.0, 1.0, 101))
    assert counts == reference.tolist()


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
        # the default histogram_bin of 0.01 makes 100 bins
        assert counts == np.histogram(p_ins, np.linspace(0.0, 1.0, 101))[0].tolist()
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
        assert short_result.means.tolist() == long_result.means[:300].tolist()
        assert short_p_ins == long_p_ins == []
    elif config.experiment_id == "collision_histogram":
        assert short_result.false_p_ins.tolist() == long_result.false_p_ins[:300].tolist()
        # the true key is verified first, as row 0 of a block of its own
        assert short_p_ins == [short_result.true_key_p_in, *short_result.false_p_ins]
    else:
        clusters = len(config.mode_counts) * len(config.d_values)
        assert len(long_p_ins) == 600 * clusters and len(short_p_ins) == 300 * clusters
        for cluster in range(clusters):
            assert (short_p_ins[300 * cluster:300 * (cluster + 1)]
                    == long_p_ins[600 * cluster:600 * cluster + 300])
        shape = (len(config.mode_counts), len(config.d_values))
        assert short_result.means.shape[:2] == long_result.means.shape[:2] == shape
        assert short_result.means.tolist() == long_result.means[:, :, :300].tolist()


def test_zero_fraction_builds_no_clone_stream(monkeypatch):
    config = CampaignConfig(experiment_id="cheating_curve", trials=300, m_sessions=200,
                            d_values=(0.0, 0.05), mode_counts=(16, 40), seed=43)
    paths = []
    rows = []

    def recording_substream(seed, *path):
        paths.append(path)
        return substream(seed, *path)

    def recording_clone_sums(true_key, fraction, tau, mask, rows_drawn, rng):
        rows.append((fraction, rng))
        return clone_sums(true_key, fraction, tau, mask, rows_drawn, rng)

    monkeypatch.setattr(experiments, "substream", recording_substream)
    monkeypatch.setattr(experiments, "clone_sums", recording_clone_sums)
    result = run_clone_experiments(config)

    clone_paths = sorted(p for p in paths if p[0] == 5)
    assert clone_paths == [(5, i, 1, c) for i in range(2) for c in range(2)]
    assert sorted(p for p in paths if p[0] == 6) == [
        (6, i, d, c) for i in range(2) for d in range(2) for c in range(2)]
    # a D = 0 clone is the true key: no stream is built, its one masked sum is reused
    assert [fraction for fraction, _ in rows] == [0.0, 0.0, 0.05, 0.05] * 2
    assert [rng is None for _, rng in rows] == [True, True, False, False] * 2
    for n_index, n_modes in enumerate(config.mode_counts):
        true_key = generate_key(n_modes, config.l_over_L, substream(43, 4, n_index))
        database = enroll_exact(true_key, config.tau, config.probe_set(), config.channel())
        expected = _point(true_key, config, database.mask)
        assert tuple(result.true_responses[n_index].tolist()) == expected
        means = result.means[n_index, 0]
        assert [tuple(point) for point in means.tolist()] == [expected] * config.trials
        assert experiments._cloud_summary(means)[2] == 0.0
        counts, _ = np.histogram(result.p_ins[n_index, 0], np.linspace(0.0, 1.0, 101))
        assert counts.sum() == config.trials


# no trials, one trial, a whole number of chunks (16 at one mode, one at
# 1000 modes) and one row past it, and small partial chunks at 1000 modes
EDGE_SIZES = [(1, 0), (1, 1), (1, 16 * STREAM_CHUNK), (1, 16 * STREAM_CHUNK + 1),
              (1000, 0), (1000, 1), (1000, 4), (1000, 5),
              (1000, STREAM_CHUNK), (1000, STREAM_CHUNK + 1)]


@pytest.mark.parametrize("n_modes,trials", EDGE_SIZES)
def test_edge_block_sizes_match_isolated_trials(n_modes, trials):
    cloud_config = CampaignConfig(experiment_id="response_cloud", n_modes=n_modes,
                                  trials=trials, seed=51)
    means = run_response_cloud(cloud_config).means
    assert means.shape == (trials, 2)
    expected = _reference_response_cloud(cloud_config)
    assert [tuple(point) for point in means.tolist()] == expected

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
    for d_index in range(len(config.d_values)):
        points, p_ins, verdicts = _reference_clone_cluster(config, 0, d_index)
        assert [tuple(point) for point in result.means[0, d_index].tolist()] == points
        assert result.accepted[0, d_index] == sum(verdicts)
        assert result.p_ins[0, d_index].tolist() == p_ins


def test_block_builders_match_single_keys():
    true_key = generate_key(64, 0.2, substream(61, 0))

    sums = false_key_sums(64, 0.2, 0.8, 5, substream(61, 1))
    assert sums.shape == (5,)
    assert sums[:1].tobytes() == false_key_sums(64, 0.2, 0.8, 1, substream(61, 1)).tobytes()
    parts = substream(61, 1).standard_normal((8, 2, 1))
    for total, row_parts in zip(sums, parts):
        assert total == _coefficients(row_parts, 0.8 * true_key.variance)[0]

    clone, replaced = clone_key(true_key, 0.25, substream(61, 2))
    rng = substream(61, 2)
    assert replaced.tolist() == _reference_positions(_offsets(rng, 1, 64, 16)[0], 64, 16)
    expected = true_key.coefficients.copy()
    expected[replaced] = _coefficients(rng.standard_normal((2, 16)), true_key.variance)
    assert clone.coefficients.tobytes() == expected.tobytes()
    # clone sums pick positions as clone_key does; their one normal per row
    # follows all the offsets
    mask = optimal_mask(true_key, 0.8)
    true_sum = masked_sums(true_key.coefficients, 0.8, mask)
    terms = masked_terms(true_key.coefficients, 0.8, mask)
    sums = clone_sums(true_key, 0.25, 0.8, mask, 5, substream(61, 2))
    rng = substream(61, 2)
    orders = [_reference_positions(row, 64, 16) for row in _offsets(rng, 5, 64, 16)]
    normals = rng.standard_normal((5, 2, 1))
    assert orders[0] == replaced.tolist()
    for total, positions, row_normals in zip(sums, orders, normals):
        fresh = _coefficients(row_normals, 16 * 0.8 * true_key.variance / 64)[0]
        assert total == true_sum - np.sum(terms[positions]) + fresh

    assert false_key_sums(64, 0.2, 0.8, 0, substream(61, 1)).shape == (0,)
    assert clone_sums(true_key, 0.25, 0.8, mask, 0, substream(61, 2)).shape == (0,)
    for tau in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="tau"):
            false_key_sums(64, 0.2, tau, 1, substream(61, 1))
        with pytest.raises(ValueError, match="tau"):
            clone_sums(true_key, 0.25, tau, mask, 1, substream(61, 2))
    # a fraction that replaces nothing gives the true sum and never touches the stream
    assert clone_sums(true_key, 0.0, 0.8, mask, 3, None).tobytes() == np.full(
        3, true_sum).tobytes()


def test_non_finite_rows_are_refused_where_their_response_is_formed():
    # a generator's draws are finite, so the block builders check nothing;
    # every path to a verdict forms the rows' responses, which are checked
    true_key = generate_key(4, 0.2, substream(62, 0))

    class Poisoned:
        def standard_normal(self, shape):
            return np.full(shape, np.nan)

        def integers(self, low, high, size):
            return np.zeros(size, dtype=np.intp)

    mask = optimal_mask(true_key, 0.8)
    for sums in (false_key_sums(4, 0.2, 0.8, 2, Poisoned()),
                 clone_sums(true_key, 0.5, 0.8, mask, 1, Poisoned())):
        with pytest.raises(ValueError, match="finite"):
            ProbeSet(3, 2500.0).responses(sums)


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
        # under its own optimal mask every product of a key cancels its
        # imaginary part, which exposes any change in how products round;
        # numpy rounds a (1, 1) block against a (1,) mask vector unlike the
        # (1,) key itself, so the one-row, one-mode case needs checking
        single = np.complex128(scattered_amplitude(keys[0], 0.8, mask, 1.0))
        for count in (1, 2, 5, STREAM_CHUNK):
            tiled = np.tile(keys[0].coefficients, (count, 1))
            block = masked_sums(tiled, 0.8, mask)
            assert [total.tobytes() for total in block] == [single.tobytes()] * count
    with pytest.raises(ValueError, match="mask length"):
        masked_sums(np.ones((3, 5), dtype=complex), 0.8, mask)
    for tau in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="tau"):
            masked_sums(np.ones((3, 1000), dtype=complex), tau, mask)


def test_probe_responses_rows_carry_the_one_key_bits():
    for n_modes in (1, 2, 121, 625):
        keys = [generate_key(n_modes, 0.2, substream(65, n_modes, t)) for t in range(6)]
        mask = optimal_mask(keys[0], 0.8)
        sums = masked_sums(np.array([k.coefficients for k in keys]), 0.8, mask)
        for mu_p in (2500.0, 3.0):
            probes = ProbeSet(11, mu_p)
            block = probes.responses(sums)
            assert block.shape == (6, 11, 2)
            for key, rows in zip(keys, block):
                single = probes.responses(masked_sums(key.coefficients, 0.8, mask))
                assert rows.tobytes() == single.tobytes()
            # column 0 is what the campaign clouds formed by hand from probe
            # 0's amplitude, also for D = 0 clones, which repeat the true sum
            campaign = quadrature_means(sums * math.sqrt(mu_p))
            assert block[:, 0].tobytes() == campaign.tobytes()
            repeated = np.full(STREAM_CHUNK, sums[0])
            assert probes.responses(repeated)[:, 0].tobytes() == quadrature_means(
                repeated * math.sqrt(mu_p)).tobytes()


def test_block_verification_equals_single_verifications():
    config = CampaignConfig(experiment_id="cheating_curve", m_sessions=1000)
    true_key = generate_key(121, 0.2, substream(64, 0))
    database = enroll_exact(true_key, 0.8, config.probe_set(), config.channel())
    keys = [true_key] + [clone_key(true_key, d, substream(64, 1, i))[0]
                         for i, d in enumerate((0.01, 0.03, 0.05, 1.0))]
    sums = masked_sums(np.array([k.coefficients for k in keys]), 0.8, database.mask)
    p_bars = hit_probabilities(sums, database)
    _assert_near_oracle(p_bars, sums, database)
    assert p_bars.tolist() == [_p_bar_alone(key, database) for key in keys]
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


def _reference_hit_probabilities(sums, database):
    """``p̄`` of every row on its own: each cell's mass from two scalar
    ``math.erf`` calls in a list comprehension, each row's mean by ``math.fsum``."""
    amplitudes = sums[:, np.newaxis] * database.probe_set.amplitudes()
    means = quadrature_means(amplitudes).reshape(len(sums), 2 * database.probe_set.size)
    half = 0.5 * database.channel.bin_width
    scale = math.sqrt(2.0) * database.channel.shot_noise
    highs = ((database.centers + half).ravel() - means) / scale
    lows = ((database.centers - half).ravel() - means) / scale
    cells = means.shape[1]
    return np.clip([
        math.fsum([0.5 * (math.erf(high) - math.erf(low)) for high, low in zip(*row)]) / cells
        for row in zip(highs.tolist(), lows.tolist())
    ], 0.0, 1.0)


def _reference_p_bar(key, database):
    """Reference ``p̄`` of one key, from the masked sum of its ``(n,)`` row."""
    total = masked_sums(key.coefficients, database.setup_loss, database.mask)
    return float(_reference_hit_probabilities(np.array([total]), database)[0])


@pytest.mark.parametrize("n_modes", [1, 2, 121])
def test_untraced_verify_draws_one_binomial_of_the_reference_p_bar(n_modes):
    # at the paper's session count, where one hit is 1 / M, about 4.4e-8, of p_in
    config = CampaignConfig(experiment_id="cheating_curve")
    true_key = generate_key(n_modes, 0.2, substream(73, n_modes, 0))
    database = enroll_exact(true_key, 0.8, config.probe_set(), config.channel())
    verification = VerificationConfig(m_threshold(1e-3, 1e-3), 1e-3, 1e-3)
    keys = {
        "genuine": true_key,
        "false": generate_key(n_modes, 0.2, substream(73, n_modes, 1)),
        "3% clone": clone_key(true_key, 0.03, substream(73, n_modes, 2))[0],
    }
    for stream, (name, key) in enumerate(keys.items(), start=3):
        p_bar = _reference_p_bar(key, database)
        expected = substream(73, n_modes, stream).binomial(verification.sessions, p_bar)
        report = verify(key, database, verification, substream(73, n_modes, stream))
        assert report.hits == expected, name


def _oracle_p_bars(sums, database):
    """``p̄`` of every row at 50 digits: the mean over the cells of
    ``(erf(high) - erf(low)) / 2``, at the erf arguments ``hit_probabilities``
    forms in double precision, ``(edge - mean) / (sqrt(2) sigma)``."""
    means = database.probe_set.responses(sums).reshape(len(sums), -1)
    half = 0.5 * database.channel.bin_width
    scale = math.sqrt(2.0) * database.channel.shot_noise
    highs = ((database.centers + half).ravel() - means) / scale
    lows = ((database.centers - half).ravel() - means) / scale
    with mpmath.workdps(50):
        return [mpmath.fsum(mpmath.erf(high) - mpmath.erf(low) for high, low in zip(*row))
                / (2 * means.shape[1]) for row in zip(highs.tolist(), lows.tolist())]


def _assert_near_oracle(p_bars, sums, database):
    """Each erf value lies within one ulp, at most 2**-53, of the true one, so
    each cell's mass lies within 2**-53 plus its roundings; the ``2N``-term sum
    and the mean add at most ``(2N + 1) 2**-53`` relative to first order.  So
    ``|p̄ - oracle| <= 2**-52 + (2N + 1) 2**-53 oracle``, with a factor 2 on the
    absolute term for the second-order terms."""
    relative = (2 * database.probe_set.size + 1) * 2.0**-53
    with mpmath.workdps(50):
        for row, (p_bar, oracle) in enumerate(zip(p_bars.tolist(),
                                                  _oracle_p_bars(sums, database))):
            assert abs(p_bar - oracle) <= 2.0**-52 + relative * oracle, (row, p_bar, oracle)


def _p_bar_alone(key, database):
    """``p̄`` of one key, evaluated in a block of its own."""
    total = masked_sums(key.coefficients, database.setup_loss, database.mask)
    return float(hit_probabilities(np.array([total]), database)[0])


def test_hit_probabilities_meet_the_oracle_and_carry_the_bits_of_their_row_alone():
    config = CampaignConfig(experiment_id="collision_histogram")
    true_key = generate_key(121, 0.2, substream(71, 0))
    database = enroll_exact(true_key, 0.8, config.probe_set(), config.channel())
    true_sum = masked_sums(true_key.coefficients[np.newaxis], 0.8, database.mask)
    false_sums = false_key_sums(121, 0.2, 0.8, 4097, substream(71, 1))
    blocks = {
        # far from every bin, where the two erf values of each cell nearly cancel
        "far false keys": np.concatenate((false_sums[:64], 30.0 * false_sums[:64])),
        "D = 0 duplicates": np.concatenate((np.repeat(true_sum, 5), false_sums[:3], true_sum)),
        "one row": true_sum,
        "4,097 rows": false_sums,
    }
    # the bits of each row, which the blocks share: the true sum appears six
    # times, and the first 64 false sums in two blocks
    bits = {}
    for name, sums in blocks.items():
        p_bars = hit_probabilities(sums, database)
        # the oracle takes about 1 ms a row, so it checks every 32nd of the 4,097
        step = 32 if len(sums) > 1000 else 1
        _assert_near_oracle(p_bars[::step], sums[::step], database)
        for row, (total, p_bar) in enumerate(zip(sums, p_bars)):
            alone = hit_probabilities(total[np.newaxis], database).tobytes()
            assert p_bar.tobytes() == alone == bits.setdefault(total, alone), (name, row)
