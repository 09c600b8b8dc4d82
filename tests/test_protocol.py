import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvpuk import (
    CrpDatabase,
    DegenerateKeyError,
    HomodyneChannel,
    PhaseMask,
    ProbeSet,
    ScatteringKey,
    VerificationConfig,
    clone_key,
    e_threshold,
    enhancement,
    enroll_exact,
    enroll_sampled,
    enrollment_error,
    generate_key,
    jsonio,
    m_threshold,
    p_in_theoretical,
    radii,
    scattered_amplitude,
    substream,
    verify,
)
from cvpuk.protocol import hit_probability


def _setup(n_modes=121, seed=100, mu_p=2500.0, n_probes=11):
    key = generate_key(n_modes, 0.2, substream(seed, 0))
    tau = 0.8
    probes = ProbeSet(n_probes, mu_p)
    channel = HomodyneChannel.from_delta_ratio(0.55, 2.0)
    return key, tau, probes, channel


# ----------------------------------------------------------------- thresholds


def test_m_threshold_values():
    assert m_threshold(0.05, 0.05) == 4427
    assert m_threshold(1e-3, 1e-3) == 22802708
    assert 2.2e7 <= m_threshold(1e-3, 1e-3) <= 2.4e7


def test_m_threshold_strictly_exceeds_bound():
    for epsilon in (0.01, 0.05, 0.1, 0.5):
        for zeta in (0.001, 0.05, 0.5):
            assert m_threshold(epsilon, zeta) > 3.0 * math.log(2.0 / zeta) / epsilon**2


@pytest.mark.parametrize("epsilon,zeta", [(0.0, 0.05), (1.0, 0.05), (0.05, 0.0), (0.05, 2.0)])
def test_m_threshold_rejects_bad_parameters(epsilon, zeta):
    with pytest.raises(ValueError):
        m_threshold(epsilon, zeta)


def test_e_threshold_values():
    assert e_threshold(2000.0, 121, 0.2) == pytest.approx(23.280625, rel=1e-12)
    assert 22.0 <= e_threshold(2000.0, 121, 0.2) <= 24.0
    assert e_threshold(2000.0, 256, 0.2) == pytest.approx(27.04, rel=1e-12)
    assert e_threshold(1e14, 1, 0.0) == pytest.approx(16.0, abs=1e-4)
    with pytest.raises(ValueError):
        e_threshold(0.0, 121, 0.2)
    with pytest.raises(ValueError):
        e_threshold(2000.0, 121, 1.0)
    for args in ((math.nan, 121, 0.2), (2000.0, 121, math.nan)):
        with pytest.raises(ValueError):
            e_threshold(*args)
    # a photon number per mode that rounds to 0 is refused, not divided by
    with pytest.raises(ValueError, match="underflow"):
        e_threshold(5e-324, 121, 0.2)


def test_e_threshold_out_of_range_names_the_photons_per_mode():
    # 1e-310 overflows the square, 1e-308 only the factor 16; 1e-305 still fits
    for mean_challenge_photons in (1e-310, 3e-309, 1e-308):
        with pytest.raises(ValueError, match="photons per mode"):
            e_threshold(mean_challenge_photons, 1, 0.0)
    assert e_threshold(1e-305, 1, 0.0) == 16.0 * (1.0 + 0.75 / math.sqrt(1e-305)) ** 2


def test_radii_values():
    rho_false, rho_true = radii(2000.0, 0.8 / 256, 201.0)
    assert rho_false == 10.0
    assert rho_true == pytest.approx(35.443617196894564, rel=1e-12)
    assert 35.0 <= rho_true <= 36.0

    rho_false, rho_true = radii(123.0, 0.01, 16.0)
    assert rho_true == rho_false

    assert radii(1.0, 1.0, 4.0)[0] == 4.0
    for args in ((0.0, 1.0, 1.0), (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0),
                 (1.0, 1.0, math.nan)):
        with pytest.raises(ValueError):
            radii(*args)


def test_enrollment_sample_size_helpers():
    assert enrollment_error(25) == 1.0
    # planning numbers for a slow, one-off enrollment at verification error 1e-3
    xi_target = 0.1 * 1e-3
    per_quadrature = round((5.0 / xi_target) ** 2)
    assert per_quadrature == 2_500_000_000
    # two quadratures for each of 10 probe states
    assert 2 * 10 * per_quadrature == 50_000_000_000
    with pytest.raises(ValueError):
        enrollment_error(0)


# ----------------------------------------------------------------- enrollment


def test_enroll_exact_structure():
    key, tau, probes, channel = _setup()
    database = enroll_exact(key, tau, probes, channel)
    assert database.centers.shape == (probes.size, 2)
    assert database.xi.shape == (probes.size,)
    assert np.all(database.xi == 0.0)
    assert database.enrollment_error == 0.0
    assert database.setup_loss == tau
    assert database.target_mode == key.target_mode

    magnitudes = np.hypot(database.centers[:, 0], database.centers[:, 1])
    assert np.allclose(magnitudes, magnitudes[0], rtol=1e-12)

    # probe phases rotate the response rigidly in steps of 2*pi/N
    step = 2.0 * math.pi / probes.size
    angles = np.arctan2(database.centers[:, 1], database.centers[:, 0])
    for k, angle in enumerate(angles):
        expected = math.remainder(angles[0] + k * step, 2.0 * math.pi)
        assert math.remainder(angle - expected, 2.0 * math.pi) == pytest.approx(
            0.0, abs=1e-9
        )


def test_enroll_exact_response_power_identity():
    key, tau, probes, channel = _setup(seed=101)
    database = enroll_exact(key, tau, probes, channel)
    mu_c = tau * probes.mean_photons
    gain = enhancement(key, tau, database.mask, mu_c)
    expected = 2.0 * gain * key.variance * mu_c
    for x, y in database.centers:
        power = x**2 + y**2
        assert abs(power - expected) <= 1e-9 * expected


def test_enroll_exact_degenerate_key():
    _, tau, probes, channel = _setup(n_modes=4)
    dead = ScatteringKey(np.zeros(4, dtype=complex), 4, 0, 1.0)
    with pytest.raises(DegenerateKeyError):
        enroll_exact(dead, tau, probes, channel)


def test_enroll_sampled_error_tag():
    key, tau, probes, channel = _setup(n_modes=16)
    database = enroll_sampled(key, tau, probes, channel, 25, substream(102, 0))
    assert np.all(database.xi == 1.0)
    assert database.enrollment_error == 1.0
    with pytest.raises(ValueError):
        enroll_sampled(key, tau, probes, channel, 0, substream(102, 1))


def test_enroll_sampled_converges_to_exact():
    key, tau, probes, channel = _setup(n_modes=16, n_probes=3)
    exact = enroll_exact(key, tau, probes, channel)
    sampled = enroll_sampled(key, tau, probes, channel, 10_000_000, substream(103, 0))
    for (e_x, e_y), (s_x, s_y) in zip(exact.centers, sampled.centers):
        assert abs(s_x - e_x) <= 1e-2
        assert abs(s_y - e_y) <= 1e-2


def test_enroll_sampled_draws_one_normal_per_cell_in_probe_order():
    # the mean of M_e draws from N(m, sigma) is one draw from
    # N(m, sigma / sqrt(M_e)), taken probe by probe, x before y
    key, tau, probes, channel = _setup(n_modes=16, n_probes=5)
    exact = enroll_exact(key, tau, probes, channel)
    sampled = enroll_sampled(key, tau, probes, channel, 400, substream(114, 0))
    standard_error = channel.shot_noise / 20.0
    normals = substream(114, 0).standard_normal((probes.size, 2))
    assert np.allclose(sampled.centers, exact.centers + standard_error * normals,
                       rtol=0.0, atol=1e-12)
    assert np.all(sampled.xi == enrollment_error(400))


def test_enroll_sampled_z_scores_are_standard_normal():
    per_quadrature = 25
    z_scores = []
    for seed in range(4):
        key, tau, probes, channel = _setup(n_modes=16, seed=115 + seed, n_probes=501)
        truth = enroll_exact(key, tau, probes, channel).centers
        sampled = enroll_sampled(key, tau, probes, channel, per_quadrature,
                                 substream(115, seed)).centers
        z_scores.append((sampled - truth) * math.sqrt(per_quadrature) / channel.shot_noise)
    z_scores = np.concatenate(z_scores).ravel()
    n = z_scores.size
    assert n == 4 * 2 * 501
    assert abs(float(z_scores.mean())) <= 4.0 / math.sqrt(n)
    assert abs(float(z_scores.var(ddof=1)) - 1.0) <= 4.0 * math.sqrt(2.0 / (n - 1))


# ----------------------------------------------------------------- database


def test_database_validation():
    key, tau, probes, channel = _setup(n_modes=8, n_probes=3)
    database = enroll_exact(key, tau, probes, channel)

    def rebuild(centers=database.centers, xi=database.xi, setup_loss=0.8):
        return CrpDatabase(database.target_mode, database.mask, centers, xi,
                           probes, channel, setup_loss)

    assert rebuild().centers.tolist() == database.centers.tolist()
    with pytest.raises(ValueError):
        rebuild(centers=database.centers[:2])
    with pytest.raises(ValueError):
        rebuild(centers=database.centers[:, 0])
    with pytest.raises(ValueError):
        rebuild(xi=database.xi[:2])
    for bad in (math.nan, math.inf):
        centers = database.centers.copy()
        centers[1, 0] = bad
        with pytest.raises(ValueError):
            rebuild(centers=centers)
        with pytest.raises(ValueError):
            rebuild(xi=[0.0, bad, 0.0])
    with pytest.raises(ValueError):
        rebuild(xi=[0.0, -1e-3, 0.0])
    with pytest.raises(ValueError):
        rebuild(setup_loss=0.0)
    # stored arrays are immutable
    with pytest.raises(ValueError):
        database.centers[0, 0] = 1.0


def test_database_from_dict_validation():
    key, tau, probes, channel = _setup(n_modes=8, n_probes=3)
    document = enroll_exact(key, tau, probes, channel).to_dict()
    records = document["records"]
    for broken in (
        records[:2],  # k = 2 missing
        records[:2] + [dict(records[1])],  # k = 1 twice
        records[:2] + [dict(records[2], k=3)],  # k out of range
        records[:2] + [dict(records[2], x=math.nan)],
        records[:2] + [dict(records[2], xi=math.inf)],
        records[:2] + [dict(records[2], xi=-1.0)],
    ):
        with pytest.raises(ValueError):
            CrpDatabase.from_dict(dict(document, records=broken))
    # integer fields refuse bools and non-integers rather than truncating them
    for broken in (
        dict(document, records=records[:2] + [dict(records[2], k=2.7)]),
        dict(document, records=[dict(records[0], k=False)] + records[1:]),
        dict(document, probe_set=dict(document["probe_set"], size=3.6)),
        dict(document, target_mode=0.5),
    ):
        with pytest.raises(TypeError):
            CrpDatabase.from_dict(broken)
    # record order in the file does not matter
    restored = CrpDatabase.from_dict(dict(document, records=records[::-1]))
    assert restored.to_dict() == document


def test_database_json_roundtrip():
    key, tau, probes, channel = _setup(n_modes=16, n_probes=5)
    database = enroll_exact(key, tau, probes, channel)
    document = database.to_dict()
    assert set(document) == {
        "target_mode", "probe_set", "channel", "setup_loss", "mask", "records",
    }
    assert set(document["records"][0]) == {"k", "x", "y", "xi"}
    restored = CrpDatabase.from_dict(json.loads(jsonio.dumps(document)))
    assert restored.probe_set == database.probe_set
    assert restored.channel == database.channel
    assert restored.setup_loss == database.setup_loss
    assert np.array_equal(restored.mask.phases, database.mask.phases)
    assert np.array_equal(restored.centers, database.centers)
    assert np.array_equal(restored.xi, database.xi)
    # reading checks every real field; a valid file keeps its bytes
    assert jsonio.dumps(restored.to_dict()) == jsonio.dumps(document)


# ----------------------------------------------------------------- verify


def test_verify_true_key_accepted():
    key, tau, probes, channel = _setup(seed=104)
    database = enroll_exact(key, tau, probes, channel)
    config = VerificationConfig(1000, 0.05, 0.05)
    report = verify(key, database, config, substream(104, 1))
    assert report.accepted
    assert abs(report.p_in - report.p_in_expected) < 0.05
    assert report.p_in_expected == p_in_theoretical(channel)
    assert report.sessions == 1000
    assert 0 <= report.hits <= 1000
    assert report.enrollment_error == 0.0


def test_verify_false_key_rejected():
    key, tau, probes, channel = _setup(seed=105)
    database = enroll_exact(key, tau, probes, channel)
    config = VerificationConfig(1000, 0.05, 0.05)
    impostor = generate_key(key.mode_count, 0.2, substream(105, 1))
    report = verify(impostor, database, config, substream(105, 2))
    assert not report.accepted
    assert report.p_in < report.p_in_expected / 2.0


def test_verify_single_session():
    key, tau, probes, channel = _setup(n_modes=16, seed=106)
    database = enroll_exact(key, tau, probes, channel)
    config = VerificationConfig(1, 0.5, 0.05)
    with pytest.warns(UserWarning):  # 0.5 is deliberately not small against p_in
        report = verify(key, database, config, substream(106, 1))
    assert report.hits in (0, 1)
    assert report.p_in in (0.0, 1.0)


def test_verify_mode_count_mismatch():
    key, tau, probes, channel = _setup(n_modes=16, seed=107)
    database = enroll_exact(key, tau, probes, channel)
    wrong_key = generate_key(8, 0.2, substream(107, 1))
    config = VerificationConfig(10, 0.05, 0.05)
    # the one check is masked_sums', on the traced and the binomial path alike
    for trace in (False, True):
        with pytest.raises(ValueError, match="mask length"):
            verify(wrong_key, database, config, substream(107, 2), trace=trace)


def test_verify_uses_enrolled_throughput():
    # verify takes the set-up throughput from the database, so a genuine
    # key passes under the tau it was enrolled with, whatever that is
    key, _, probes, channel = _setup(seed=113)
    database = enroll_exact(key, 0.3, probes, channel)
    assert database.setup_loss == 0.3
    config = VerificationConfig(1000, 0.05, 0.05)
    assert verify(key, database, config, substream(113, 1)).accepted
    # the same records stored under another throughput no longer match
    relabelled = CrpDatabase(database.target_mode, database.mask, database.centers,
                             database.xi, probes, channel, 0.8)
    assert not verify(key, relabelled, config, substream(113, 1)).accepted


def test_verify_warns_on_large_error_level():
    key, tau, probes, channel = _setup(n_modes=16, seed=108)
    database = enroll_exact(key, tau, probes, channel)
    config = VerificationConfig(10, 0.4, 0.05)
    with pytest.warns(UserWarning):
        verify(key, database, config, substream(108, 1))


def test_verify_trace_hits_recomputable_from_database():
    # bins are a pure function of the stored records, whatever key is probed
    key, tau, probes, channel = _setup(seed=109)
    database = enroll_exact(key, tau, probes, channel)
    config = VerificationConfig(500, 0.05, 0.05)
    tampered, _ = clone_key(key, 0.5, substream(109, 1))
    for probe_key, stream in ((key, 2), (tampered, 3)):
        report = verify(
            probe_key, database, config, substream(109, stream), trace=True
        )
        assert len(report.session_trace) == 500
        for k, theta, outcome, hit in report.session_trace:
            center = database.centers[k, 0 if theta == 0.0 else 1]
            half = 0.5 * channel.bin_width
            assert hit == (center - half <= outcome <= center + half)


def test_verify_session_hits_uncorrelated():
    key, tau, probes, channel = _setup(seed=110)
    database = enroll_exact(key, tau, probes, channel)
    sessions = 4427
    config = VerificationConfig(sessions, 0.05, 0.05)
    report = verify(key, database, config, substream(110, 1), trace=True)
    hits = np.array([row[3] for row in report.session_trace], dtype=float)
    lag_one = float(np.corrcoef(hits[:-1], hits[1:])[0, 1])
    assert abs(lag_one) < 4.0 / math.sqrt(sessions)


def test_rejection_rate_monotone_in_error_level():
    key, tau, probes, channel = _setup(seed=111)
    database = enroll_exact(key, tau, probes, channel)
    config = VerificationConfig(1000, 0.05, 0.05)
    expected = p_in_theoretical(channel)
    p_ins = []
    for trial in range(500):
        impostor = generate_key(key.mode_count, 0.2, substream(111, 1, trial))
        report = verify(impostor, database, config, substream(111, 2, trial))
        p_ins.append(report.p_in)
    p_ins = np.array(p_ins)
    rates = [
        float((np.abs(p_ins - expected) >= epsilon).mean())
        for epsilon in (0.3, 0.2, 0.1, 0.05, 0.02)
    ]
    assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_verification_config_validation():
    with pytest.raises(ValueError):
        VerificationConfig(0, 0.05, 0.05)
    # numpy's binomial takes a 64-bit count; one more must be refused, not overflow
    assert VerificationConfig(2**63 - 1, 0.05, 0.05).sessions == 2**63 - 1
    with pytest.raises(ValueError, match="sessions"):
        VerificationConfig(2**63, 0.05, 0.05)
    with pytest.raises(ValueError):
        VerificationConfig(10, 0.0, 0.05)
    with pytest.raises(ValueError):
        VerificationConfig(10, 0.05, 1.0)


def test_report_serialization():
    key, tau, probes, channel = _setup(n_modes=16, seed=112)
    database = enroll_exact(key, tau, probes, channel)
    config = VerificationConfig(100, 0.05, 0.05)
    report = verify(key, database, config, substream(112, 1))
    document = report.to_dict()
    assert document["accepted"] == (abs(document["p_in"] - document["p_in_expected"]) < 0.05)
    assert document["sessions"] == 100
    assert document["hits"] == report.hits


# ----------------------------------------------------------------- hit probability


def test_hit_probability_of_exactly_enrolled_genuine_key_is_p_in():
    for n_modes, seed in ((16, 120), (121, 121), (256, 122)):
        key, tau, probes, channel = _setup(n_modes=n_modes, seed=seed)
        database = enroll_exact(key, tau, probes, channel)
        assert abs(hit_probability(key, database) - p_in_theoretical(channel)) <= 1e-12


def _hit_probability_oracle(key, database):
    """Mean bin mass over the cells, in 40-digit arithmetic from the same doubles."""
    amplitudes = scattered_amplitude(key, database.setup_loss, database.mask,
                                     database.probe_set.amplitudes())
    means = np.column_stack((math.sqrt(2.0) * amplitudes.real,
                             math.sqrt(2.0) * amplitudes.imag))
    half = 0.5 * database.channel.bin_width
    lows = database.centers - half
    highs = database.centers + half
    with mpmath.workdps(40):
        sigma = mpmath.mpf(database.channel.shot_noise)
        total = mpmath.fsum(
            mpmath.ncdf((mpmath.mpf(high) - mpmath.mpf(mean)) / sigma)
            - mpmath.ncdf((mpmath.mpf(low) - mpmath.mpf(mean)) / sigma)
            for mean, low, high in zip(means.flat, lows.flat, highs.flat)
        )
        return float(total / means.size)


def test_hit_probability_matches_mpmath_oracle():
    key, tau, probes, channel = _setup(seed=123)
    database = enroll_exact(key, tau, probes, channel)
    clone, _ = clone_key(key, 0.03, substream(123, 1))
    impostor = generate_key(key.mode_count, 0.2, substream(123, 2))
    for probe_key in (clone, impostor):
        expected = _hit_probability_oracle(probe_key, database)
        assert abs(hit_probability(probe_key, database) - expected) <= 1e-12
    # the clone sits between the false key and the genuine key
    assert hit_probability(impostor, database) < hit_probability(clone, database)
    assert hit_probability(clone, database) < p_in_theoretical(channel)


def test_traced_and_binomial_hit_counts_share_their_distribution():
    # the per-session path is the reference: its hit count and the single
    # binomial draw of the untraced path are both Binomial(M, p_bar)
    key, tau, probes, channel = _setup(seed=124)
    database = enroll_exact(key, tau, probes, channel)
    clone, _ = clone_key(key, 0.03, substream(124, 1))
    p_bar = hit_probability(clone, database)
    sessions, runs = 1000, 2000
    config = VerificationConfig(sessions, 0.05, 0.05)
    mean = sessions * p_bar
    variance = sessions * p_bar * (1.0 - p_bar)
    for trace, stream in ((True, 2), (False, 3)):
        hits = np.array([
            verify(clone, database, config, substream(124, stream, run), trace=trace).hits
            for run in range(runs)
        ], dtype=float)
        assert abs(float(hits.mean()) - mean) <= 4.0 * math.sqrt(variance / runs), trace
        ratio = float(hits.var(ddof=1)) / variance
        assert abs(ratio - 1.0) <= 4.0 * math.sqrt(2.0 / (runs - 1)), trace


def test_verify_at_paper_session_count():
    sessions = m_threshold(1e-3, 1e-3)
    key, tau, probes, channel = _setup(seed=125)
    database = enroll_exact(key, tau, probes, channel)
    config = VerificationConfig(sessions, 1e-3, 1e-3)
    genuine = verify(key, database, config, substream(125, 1))
    assert genuine.sessions == 22_802_708
    assert genuine.accepted
    impostor = generate_key(key.mode_count, 0.2, substream(125, 2))
    false = verify(impostor, database, config, substream(125, 3))
    assert not false.accepted
    assert false.p_in < genuine.p_in_expected / 2.0


@st.composite
def _keys_and_databases(draw):
    n_modes = draw(st.integers(1, 24))
    n_probes = draw(st.integers(3, 6))
    l_over_L = draw(st.floats(0.0, 0.9))
    enrolled = generate_key(n_modes, l_over_L, substream(draw(st.integers(0, 2**32)), 0))
    probes = ProbeSet(n_probes, draw(st.floats(1.0, 1e4)))
    channel = HomodyneChannel.from_delta_ratio(draw(st.floats(0.1, 1.0)),
                                               draw(st.floats(2.0, 3.9)))
    tau = draw(st.floats(0.05, 1.0))
    exact = enroll_exact(enrolled, tau, probes, channel)
    # centres anywhere, or near the enrolled responses, where bins hold the most mass
    offsets = draw(st.lists(st.floats(-1e3, 1e3), min_size=2 * n_probes,
                            max_size=2 * n_probes))
    scale = draw(st.sampled_from((0.0, 1e-9, 1e-3, 1.0)))
    centers = exact.centers + scale * np.reshape(offsets, (n_probes, 2))
    database = CrpDatabase(exact.target_mode, exact.mask, centers, exact.xi,
                           probes, channel, tau)
    if draw(st.booleans()):
        key = enrolled
    else:
        key = generate_key(n_modes, l_over_L, substream(draw(st.integers(0, 2**32)), 1))
    return key, database


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_keys_and_databases())
def test_hit_probability_never_exceeds_p_in(key_and_database):
    # a bin centred on the outcome mean holds the most Gaussian mass, so
    # 0 <= p_bar <= P_in; the 1e-12 allows for rounding in the bin edges
    key, database = key_and_database
    p_bar = hit_probability(key, database)
    assert 0.0 <= p_bar <= p_in_theoretical(database.channel) + 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_keys_and_databases(), st.lists(st.floats(0.0, 1e300), min_size=6, max_size=6))
def test_database_json_round_trip_gives_the_exact_doubles(key_and_database, xi):
    _, exact = key_and_database
    size = exact.probe_set.size
    database = CrpDatabase(exact.target_mode, exact.mask, exact.centers, xi[:size],
                           exact.probe_set, exact.channel, exact.setup_loss)
    restored = CrpDatabase.from_dict(json.loads(jsonio.dumps(database.to_dict())))
    for name in ("centers", "xi"):
        assert getattr(restored, name).tobytes() == getattr(database, name).tobytes()
    assert restored.mask.phases.tobytes() == database.mask.phases.tobytes()
    assert (restored.target_mode, restored.probe_set, restored.channel,
            restored.setup_loss) == (database.target_mode, database.probe_set,
                                     database.channel, database.setup_loss)
