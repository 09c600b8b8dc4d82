import csv
import dataclasses
import filecmp
import json
import math

import numpy as np
import pytest

from cvpuk import (
    CampaignConfig,
    e_threshold,
    m_threshold,
    run_campaign,
    run_clone_experiments,
    run_collision_histogram,
    run_enhancement_condition,
    run_response_cloud,
    substream,
)
from cvpuk import experiments, jsonio
from cvpuk.cli import main
from cvpuk.experiments import EXPERIMENT_IDS, REPORTED_ENHANCEMENT_BAND, STREAM_CHUNK
from cvpuk import HomodyneChannel, VerificationConfig, enroll_exact, generate_key, ProbeSet
from cvpuk.adversary import false_key_sums
from cvpuk.protocol import hit_probabilities, verify_block


@pytest.mark.parametrize("field,entries", [
    ("mode_counts", [16, 16]),
    ("d_values", [0.0, 0.05, 0.05]),
    ("d_values", [0, 0.0]),
])
def test_config_refuses_a_repeated_entry(tmp_path, capsys, field, entries):
    # each mode count and each fraction keys its own clone artifacts, so a
    # repeated entry would overwrite one cluster's rows with another's
    with pytest.raises(ValueError, match=field):
        CampaignConfig(experiment_id="clone_cloud", **{field: tuple(entries)})
    config_path = tmp_path / "campaign.json"
    config_path.write_text(json.dumps({"experiment_id": "clone_cloud", "trials": 5,
                                       field: entries}))
    out_dir = tmp_path / "out"
    assert main(["campaign", "--config", str(config_path), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(experiment_id="nope")
    with pytest.raises(ValueError):
        CampaignConfig(experiment_id="collision_histogram", histogram_bin=0.0)
    with pytest.raises(ValueError):
        CampaignConfig(experiment_id="collision_histogram", trials=-1)
    with pytest.raises(ValueError):
        CampaignConfig.from_dict({"experiment_id": "collision_histogram", "bogus": 1})
    for field, value in (
        ("n_modes", 0),
        ("seed", -1),
        ("n_probe_states", 2),
        ("m_sessions", 0),
        ("mode_counts", (121, 0)),
        ("tau", 0.0),
        ("tau", 1.5),
        ("tau", math.nan),
        ("l_over_L", 1.0),
        ("l_over_L", -0.1),
        ("mu_p", 0.0),
        ("mu_p", math.inf),
        ("eta", 0.0),
        ("eta", 1.01),
        ("delta_over_sigma", 0.0),
        ("delta_over_sigma", math.inf),
        ("epsilon", 0.0),
        ("epsilon", 1.0),
        ("zeta", 1.0),
        ("zeta", math.nan),
        ("histogram_bin", 1.5),
        ("histogram_bin", math.nan),
        ("histogram_bin", 9.99e-5),
        ("histogram_bin", 5e-324),
        # a width of 1e-9 would ask for a billion edges, about 8 GB
        ("histogram_bin", 1e-9),
        ("histogram_bin", -0.1),
        ("histogram_bin", math.inf),
        ("mu_p", 10**400),
        ("m_sessions", 2**63),
        ("d_values", (0.0, 1.5)),
        ("d_values", (-0.01,)),
        ("d_values", (math.nan,)),
        ("photons_per_mode_values", (0.0,)),
        ("photons_per_mode_values", (1.0, math.inf)),
    ):
        with pytest.raises(ValueError):
            CampaignConfig(experiment_id="collision_histogram", **{field: value})
    for field in ("n_modes", "n_probe_states", "m_sessions", "trials", "seed"):
        with pytest.raises(TypeError):
            CampaignConfig(experiment_id="collision_histogram", **{field: True})
    with pytest.raises(TypeError):
        CampaignConfig.from_dict({"experiment_id": "collision_histogram", "m_sessions": 1.5})
    with pytest.raises(TypeError):
        CampaignConfig(experiment_id="clone_cloud", mode_counts=(121, 2.5))
    for field, value in (("tau", True), ("mu_p", "2500"), ("d_values", (0.0, False)),
                         ("histogram_bin", True)):
        with pytest.raises(TypeError, match=field):
            CampaignConfig(experiment_id="clone_cloud", **{field: value})
    # a string is not iterated character by character, and a scalar is named
    for field in ("mode_counts", "d_values", "photons_per_mode_values"):
        for value in ("0.5", 0.5, 16, None):
            with pytest.raises(TypeError, match=f"^{field} must be a list or tuple"):
                CampaignConfig.from_dict({"experiment_id": "clone_cloud", field: value})
    # the interval ends that are allowed
    CampaignConfig(experiment_id="cheating_curve", tau=1.0, eta=1.0, l_over_L=0.0,
                   histogram_bin=1.0, d_values=(0.0, 1.0))
    # zero trials stays a valid (empty) campaign
    assert CampaignConfig(experiment_id="collision_histogram", trials=0).trials == 0


def test_config_round_trip():
    config = CampaignConfig(experiment_id="cheating_curve", trials=7, seed=99)
    document = config.to_dict()
    assert document["seed"] == 99
    assert document["d_values"] == [0.0, 0.01, 0.02, 0.03, 0.05]
    assert CampaignConfig.from_dict(document) == config


# each run_* and the experiment ids it serves
_RUNS = {
    run_collision_histogram: ("collision_histogram",),
    run_response_cloud: ("response_cloud",),
    run_enhancement_condition: ("enhancement_condition",),
    run_clone_experiments: ("clone_cloud", "clone_histograms", "cheating_curve"),
}


@pytest.mark.parametrize("run", _RUNS, ids=lambda run: run.__name__)
def test_config_requires_matching_experiment(run):
    assert sorted(id_ for ids in _RUNS.values() for id_ in ids) == sorted(EXPERIMENT_IDS)
    for experiment_id in EXPERIMENT_IDS:
        if experiment_id not in _RUNS[run]:
            config = CampaignConfig(experiment_id=experiment_id, trials=1)
            with pytest.raises(ValueError, match=rf"config is for '{experiment_id}', "
                                                 rf"expected one of \("):
                run(config)


@pytest.mark.parametrize("field,value,error", [
    ("n_probe_states", 2, ValueError), ("n_probe_states", True, TypeError),
    ("m_sessions", 0, ValueError), ("m_sessions", 2**63, ValueError),
    ("m_sessions", 1.5, TypeError),
])
def test_config_refusal_names_the_field_typed(field, value, error):
    # the probe set and the verification config check these fields; a refusal
    # names the config's field, not their parameters size and sessions
    with pytest.raises(error, match=f"^{field} must "):
        CampaignConfig(experiment_id="cheating_curve", **{field: value})


def test_histogram_construction():
    samples = [0.0, 0.005, 0.5, 1.0]
    rows = list(experiments._histogram_rows(samples, 0.01))
    lefts, rights, counts = zip(*rows)
    assert lefts[0] == 0.0
    assert rights[-1] == 1.0
    assert len(counts) == 100
    assert sum(counts) == len(samples) == 4
    assert counts[0] == 2  # 0.0 and 0.005
    assert counts[-1] == 1  # 1.0 lands in the closing bin
    # the mode bin is the first fullest row: max keeps the first of equal keys
    assert max(rows, key=lambda row: row[2])[:2] == (0.0, 0.01)


def test_histogram_bin_width_follows_the_config_interval():
    # CampaignConfig checks the width against REAL_INTERVALS["histogram_bin"],
    # [1e-4, 1] (see test_config_validation); its narrowest width gives 10,000 bins
    assert len(list(experiments._histogram_rows([0.1], 1e-4))) == 10_000


def test_histogram_rows():
    rows = list(experiments._histogram_rows([0.25], 0.25))
    assert len(rows) == 4
    assert rows[1] == (0.25, 0.5, 1)
    # the CSV writer formats by repr, which spells a numpy scalar np.float64(...)
    assert [tuple(map(type, row)) for row in rows] == [(float, float, int)] * 4


def _small_collision_config(seed=3):
    # at M_th(epsilon, zeta) sessions the Chernoff bound makes the true
    # key's acceptance the protocol's guarantee; at 300 sessions it is
    # accepted with probability 0.937 only, and about one seed in 16 fails
    return CampaignConfig(
        experiment_id="collision_histogram", trials=40,
        m_sessions=m_threshold(0.05, 0.05), seed=seed,
    )


def test_collision_histogram_behaviour():
    result = run_collision_histogram(_small_collision_config())
    assert result.true_key_accepted
    assert abs(result.true_key_p_in - result.p_in_expected) < 0.05
    assert result.false_acceptance_rate <= 0.05
    assert len(result.false_p_ins) == 40
    with pytest.raises(ValueError):
        result.false_p_ins[0] = 1.0
    counts, _ = np.histogram(result.false_p_ins, np.linspace(0.0, 1.0, 101))
    assert counts.sum() == 40


def test_collision_histogram_trials_are_order_independent():
    config = _small_collision_config()
    result = run_collision_histogram(config)
    # rebuild trial 7 in isolation from its addressed streams
    probes = ProbeSet(config.n_probe_states, config.mu_p)
    channel = HomodyneChannel.from_delta_ratio(config.eta, config.delta_over_sigma)
    true_key = generate_key(config.n_modes, config.l_over_L, substream(config.seed, 0))
    database = enroll_exact(true_key, config.tau, probes, channel)
    verification = VerificationConfig(config.m_sessions, config.epsilon, config.zeta)
    # trial 7 is row 7 of chunk 0, whose one stream holds the chunk's
    # (256, 2, 1) normal block and then one binomial draw: its masked sum is
    # row 7 of the block, and its hit count the 8th of the draw
    stream = substream(config.seed, 2, 0)
    parts = stream.standard_normal((STREAM_CHUNK, 2, 1))
    variance = config.tau * (1.0 - config.l_over_L) / config.n_modes
    sums = math.sqrt(variance / 2.0) * (parts[:8, 0, 0] + 1j * parts[:8, 1, 0])
    hits = stream.binomial(
        config.m_sessions, [hit_probabilities(sums[i:i + 1], database)[0] for i in range(8)])
    assert hits[7] / config.m_sessions == result.false_p_ins[7]
    # row 0 of a chunk is what a one-row draw gives, and its verification
    # follows the chunk's 256 keys on the same stream
    stream = substream(config.seed, 2, 0)
    first = false_key_sums(config.n_modes, config.l_over_L, config.tau, STREAM_CHUNK,
                           stream)[:1]
    assert first.tobytes() == sums[:1].tobytes() == false_key_sums(
        config.n_modes, config.l_over_L, config.tau, 1, substream(config.seed, 2, 0)).tobytes()
    _, p_ins, _ = verify_block(first, database, verification, stream)
    assert p_ins[0] == result.false_p_ins[0]


def test_collision_histogram_reproducible():
    first = run_collision_histogram(_small_collision_config())
    second = run_collision_histogram(_small_collision_config())
    assert first.false_p_ins.tolist() == second.false_p_ins.tolist()
    assert first.true_key_p_in == second.true_key_p_in
    different = run_collision_histogram(_small_collision_config(seed=4))
    assert different.false_p_ins.tolist() != first.false_p_ins.tolist()


def test_collision_histogram_zero_trials():
    config = CampaignConfig(
        experiment_id="collision_histogram", trials=0, m_sessions=200, seed=1
    )
    result = run_collision_histogram(config)
    counts, _ = np.histogram(result.false_p_ins, np.linspace(0.0, 1.0, 101))
    assert result.false_p_ins.size == 0
    assert counts.sum() == 0
    assert result.false_acceptance_rate == 0.0
    assert 0.0 <= result.true_key_p_in <= 1.0


def test_response_cloud_radii_and_tails():
    config = CampaignConfig(
        experiment_id="response_cloud", n_modes=256, trials=300, seed=6
    )
    result = run_response_cloud(config)
    assert result.rho_false == 10.0
    assert result.rho_true == pytest.approx(
        math.sqrt(result.enhancement) * result.rho_false / 4.0, rel=1e-12
    )
    # true response magnitude realizes the enrolled power identity
    mu_c = config.mu_c
    variance = 0.8 / 256
    true_x, true_y = result.true_response
    power = true_x**2 + true_y**2
    assert power == pytest.approx(2.0 * result.enhancement * variance * mu_c, rel=1e-12)
    distances = [math.hypot(x, y) for x, y in result.means.tolist()]
    inside = sum(d <= 1.5 * result.rho_false for d in distances)
    assert inside / len(distances) >= 0.95


def test_response_cloud_scales_with_probe_photons():
    base = run_response_cloud(
        CampaignConfig(experiment_id="response_cloud", n_modes=256, trials=50, seed=7)
    )
    boosted = run_response_cloud(
        CampaignConfig(
            experiment_id="response_cloud", n_modes=256, trials=50, seed=7, mu_p=10000.0
        )
    )
    assert boosted.rho_false == 2.0 * base.rho_false
    assert boosted.rho_true == pytest.approx(2.0 * base.rho_true, rel=1e-12)
    assert boosted.true_response.tolist() == (2.0 * base.true_response).tolist()
    assert boosted.means.tolist() == (2.0 * base.means).tolist()


def test_enhancement_condition_table(tmp_path):
    config = CampaignConfig(
        experiment_id="enhancement_condition", mode_counts=(121, 256), seed=1,
        photons_per_mode_values=(2000.0 / 121.0, 7.8125),
    )
    result = run_enhancement_condition(config)
    summary = json.loads(run_campaign(config, tmp_path)["summary"].read_text())
    assert (summary["band_low"], summary["band_high"]) == REPORTED_ENHANCEMENT_BAND
    assert result.thresholds.shape == (2, 2)
    by_value = {}
    for photons_per_mode, thresholds in zip(config.photons_per_mode_values,
                                            result.thresholds.tolist()):
        for n_modes, threshold in zip(config.mode_counts, thresholds):
            expected = e_threshold(photons_per_mode * n_modes, n_modes, config.l_over_L)
            assert threshold == expected
            by_value.setdefault(photons_per_mode, set()).add(round(threshold, 9))
    # the threshold depends on the photon number per mode only
    for thresholds in by_value.values():
        assert len(thresholds) == 1
    assert any(
        abs(t - 23.280625) < 1e-9 for ts in by_value.values() for t in ts
    )
    assert any(abs(t - 27.04) < 1e-9 for ts in by_value.values() for t in ts)


def test_enhancement_condition_asymptote():
    config = CampaignConfig(
        experiment_id="enhancement_condition", mode_counts=(121,), seed=1,
        photons_per_mode_values=(1e12,),
    )
    result = run_enhancement_condition(config)
    assert result.thresholds[0, 0] == pytest.approx(16.0, abs=1e-4)
    with pytest.raises(ValueError):
        dataclasses.replace(config, photons_per_mode_values=(0.0,))


def test_clone_experiments_small():
    # at M_th(epsilon, zeta) sessions the Chernoff bound guarantees that a
    # perfect clone is accepted with probability above 1 - zeta, so the
    # first assertion is the protocol's own promise; at 300 sessions the
    # acceptance probability is only 0.937 and a 60-trial rate of
    # 1 - zeta or more is a coin flip
    config = CampaignConfig(
        experiment_id="cheating_curve",
        trials=60,
        m_sessions=m_threshold(0.05, 0.05),
        d_values=(0.0, 0.05),
        mode_counts=(121,),
        seed=8,
    )
    result = run_clone_experiments(config)
    # index i follows mode_counts (121,), d follows d_values (0.0, 0.05)
    rates = result.accepted / config.trials
    assert rates[0, 0] >= 1.0 - config.zeta
    assert rates[0, 1] <= rates[0, 0]
    assert result.accepted.shape == (1, 2)
    assert result.p_ins.shape == (1, 2, 60)
    assert result.means.shape == (1, 2, 60, 2)
    assert result.means[0, 0].tolist() == [result.true_responses[0].tolist()] * 60
    assert result.p_in_expected == pytest.approx(0.6826894921370859, rel=1e-12)


def test_clone_cloud_runs_no_verification(monkeypatch, tmp_path):
    config = CampaignConfig(
        experiment_id="clone_cloud", trials=20, m_sessions=100,
        d_values=(0.0, 0.03), mode_counts=(16, 32), seed=11,
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("clone_cloud must not verify")

    with monkeypatch.context() as patch:
        patch.setattr("cvpuk.experiments.verify_block", forbidden)
        cloud = run_clone_experiments(config)
        paths = run_campaign(config, tmp_path / "cloud")
    assert set(paths) == {"config", "summary", "cloud_n16", "cloud_n32"}
    assert cloud.p_ins.size == 0
    assert cloud.accepted.size == 0
    # clones come from their own streams, so the verifying run sees the same
    # clouds, and so the same cluster summaries; lists make == compare every value
    cheating = run_clone_experiments(dataclasses.replace(config, experiment_id="cheating_curve"))
    assert cloud.true_responses.tolist() == cheating.true_responses.tolist()
    assert cloud.means.tolist() == cheating.means.tolist()
    assert cheating.accepted.shape == (2, 2)


def test_clone_histograms_concentrate_near_p_in_only_for_tiny_fractions():
    config = CampaignConfig(
        experiment_id="clone_histograms",
        trials=200,
        m_sessions=1000,
        d_values=(0.01, 0.03, 0.05),
        mode_counts=(256, 625),
        seed=9,
    )
    result = run_clone_experiments(config)
    expected = result.p_in_expected

    def mass_near_expected(p_ins):
        # the default histogram_bin of 0.01 makes 100 bins
        counts, edges = np.histogram(p_ins, np.linspace(0.0, 1.0, 101))
        centers = 0.5 * (edges[:-1] + edges[1:])
        near = np.abs(centers - expected) < config.epsilon
        return float(counts[near].sum()) / p_ins.size

    # index i follows mode_counts (256, 625), d follows d_values (0.01, 0.03, 0.05)
    assert mass_near_expected(result.p_ins[1, 0]) >= 0.2
    assert mass_near_expected(result.p_ins[1, 2]) <= 0.05
    # imperfect clones beyond a few percent barely ever pass at 256+ modes
    rates = result.accepted / config.trials
    assert rates[0, 1] < 0.1
    assert rates[1, 1] < 0.1


def test_each_clone_writer_derives_only_what_it_writes(monkeypatch, tmp_path):
    # cluster summaries are written by clone_cloud alone, histograms by
    # clone_histograms and collision_histogram alone
    def forbidden(*args, **kwargs):
        raise AssertionError("this writer does not write it")

    sweep = {"trials": 10, "m_sessions": 50, "d_values": [0.0, 0.02], "mode_counts": [16],
             "seed": 2}
    monkeypatch.setattr(experiments, "_cloud_summary", forbidden)
    for experiment_id in ("clone_histograms", "cheating_curve"):
        config = CampaignConfig.from_dict({**sweep, "experiment_id": experiment_id})
        run_campaign(config, tmp_path / experiment_id)
    monkeypatch.setattr(experiments, "_histogram_rows", forbidden)
    config = CampaignConfig.from_dict({**sweep, "experiment_id": "cheating_curve"})
    run_campaign(config, tmp_path / "cheating_only")


def _check_headers(path, expected):
    with open(path, "r", encoding="utf-8") as handle:
        assert handle.readline().strip() == expected


def test_campaign_writes_collision_artifacts(tmp_path):
    config = _small_collision_config()
    paths = run_campaign(config, tmp_path / "out")
    assert paths["config"].exists()
    assert paths["summary"].exists()
    _check_headers(paths["histogram"], "bin_left,bin_right,count")
    import json

    echoed = json.loads(paths["config"].read_text())
    assert echoed["seed"] == config.seed
    assert echoed["trials"] == 40
    assert echoed["mu_p"] == 2500.0  # resolved default materialized
    summary = json.loads(paths["summary"].read_text())
    assert summary["true_key_accepted"] is True
    assert "p_in_expected" in summary


# histogram_bin sets the bin count, ceil(1 / histogram_bin), and the bins
# split [0, 1] evenly, so 0.3 makes four bins of 0.25
@pytest.mark.parametrize("histogram_bin,edges", [
    (0.3, [0.0, 0.25, 0.5, 0.75, 1.0]),
    (1.0, [0.0, 1.0]),
])
def test_histogram_bin_sets_the_bin_count(tmp_path, histogram_bin, edges):
    config = CampaignConfig.from_dict(
        {"experiment_id": "collision_histogram", "trials": 3, "histogram_bin": histogram_bin})
    paths = run_campaign(config, tmp_path / "out")
    rows = [line.split(",") for line in paths["histogram"].read_text().splitlines()[1:]]
    assert [(float(left), float(right)) for left, right, _ in rows] == list(
        zip(edges[:-1], edges[1:]))
    assert sum(int(count) for _, _, count in rows) == 3


def test_campaign_writes_cloud_and_cheating_artifacts(tmp_path):
    cloud_config = CampaignConfig(
        experiment_id="clone_cloud", trials=10, m_sessions=50,
        d_values=(0.0, 0.02), mode_counts=(16,), seed=2,
    )
    paths = run_campaign(cloud_config, tmp_path / "cloud")
    _check_headers(paths["cloud_n16"], "D,trial,x,y")

    cheat_config = CampaignConfig(
        experiment_id="cheating_curve", trials=10, m_sessions=50,
        d_values=(0.0, 0.02), mode_counts=(16,), seed=2,
    )
    paths = run_campaign(cheat_config, tmp_path / "cheat")
    _check_headers(paths["cheating"], "D,n_modes,accept_rate,trials")

    hist_config = CampaignConfig(
        experiment_id="clone_histograms", trials=10, m_sessions=50,
        d_values=(0.0, 0.02), mode_counts=(16,), seed=2,
    )
    paths = run_campaign(hist_config, tmp_path / "hist")
    _check_headers(paths["histograms_n16"], "D,bin_left,bin_right,count")

    response_config = CampaignConfig(experiment_id="response_cloud", trials=10, seed=2)
    paths = run_campaign(response_config, tmp_path / "resp")
    _check_headers(paths["cloud"], "trial,x,y")

    threshold_config = CampaignConfig(experiment_id="enhancement_condition", seed=2)
    paths = run_campaign(threshold_config, tmp_path / "enh")
    _check_headers(paths["thresholds"], "photons_per_mode,n_modes,e_th")


def test_campaign_outputs_are_byte_identical(tmp_path):
    config = _small_collision_config(seed=12)
    first = run_campaign(config, tmp_path / "a")
    second = run_campaign(config, tmp_path / "b")
    for key in first:
        assert filecmp.cmp(first[key], second[key], shallow=False), key

    cheat = CampaignConfig(
        experiment_id="cheating_curve", trials=10, m_sessions=100,
        d_values=(0.0, 0.03), mode_counts=(16, 32), seed=12,
    )
    first = run_campaign(cheat, tmp_path / "c")
    second = run_campaign(cheat, tmp_path / "d")
    for key in first:
        assert filecmp.cmp(first[key], second[key], shallow=False), key


def _csv_writer_oracle(path, header, rows):
    """The artifact writer as ``csv.writer`` does it: floats by ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def test_write_csv_bytes_equal_csv_writer(tmp_path, monkeypatch):
    header = ("a", "b", "c")
    rows = [(0, -0.0, 1e-300), (5e-324, 0.1 + 0.2, -(2**70)), (1 / 3, -7, 1.7976931348623157e308),
            (2.0, math.pi * 1e-17, 123456789.12345679)]
    jsonio.write_csv(tmp_path / "fast.csv", header, rows)
    _csv_writer_oracle(tmp_path / "oracle.csv", header, rows)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    # every artifact of every campaign, and the trace of a traced verification
    configs = [CampaignConfig(experiment_id=eid, trials=20, m_sessions=100, n_modes=16,
                              mode_counts=(4, 16), seed=14) for eid in EXPERIMENT_IDS]
    key = generate_key(16, 0.2, substream(14, 0))
    database = enroll_exact(key, 0.8, ProbeSet(11, 2500.0),
                            HomodyneChannel.from_delta_ratio(0.55, 2.0))
    jsonio.dump(key.to_dict(), tmp_path / "key.json")
    jsonio.dump(database.to_dict(), tmp_path / "database.json")

    def artifacts(root):
        paths = {(config.experiment_id, name): path for config in configs
                 for name, path in run_campaign(config, root / config.experiment_id).items()}
        main(["verify", "--database", str(tmp_path / "database.json"),
              "--key", str(tmp_path / "key.json"), "--sessions", "200", "--trace",
              "--out", str(root / "verify")])
        for name in ("report.json", "trace.csv"):
            paths[("verify", name)] = root / "verify" / name
        return paths

    fast = artifacts(tmp_path / "fast")
    monkeypatch.setattr(jsonio, "write_csv", _csv_writer_oracle)
    oracle = artifacts(tmp_path / "oracle")
    assert set(oracle) == set(fast)
    for name, path in oracle.items():
        assert path.read_bytes() == fast[name].read_bytes(), name


@pytest.mark.parametrize("experiment_id,campaign", [
    ("response_cloud", "run_response_cloud"),
    ("enhancement_condition", "run_enhancement_condition"),
    ("collision_histogram", "run_collision_histogram"),
    ("clone_cloud", "run_clone_experiments"),
    ("clone_histograms", "run_clone_experiments"),
    ("cheating_curve", "run_clone_experiments"),
])
def test_failing_campaign_writes_no_directory(tmp_path, monkeypatch, experiment_id, campaign):
    def broken(config):
        raise RuntimeError("campaign failed")

    monkeypatch.setattr(f"cvpuk.experiments.{campaign}", broken)
    out_dir = tmp_path / "nested" / "out"
    with pytest.raises(RuntimeError, match="campaign failed"):
        run_campaign(CampaignConfig(experiment_id=experiment_id, trials=3), out_dir)
    assert not out_dir.exists()
    assert not (tmp_path / "nested").exists()
