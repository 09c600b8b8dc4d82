import dataclasses
import json
import math
import platform
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvpuk import (
    CampaignConfig,
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
    run_clone_experiments,
    run_collision_histogram,
    substream,
    verify,
)
from cvpuk.protocol import (_ERF_EDGES, _accepted, _erf, binomial_verdicts, hit_probabilities,
                             public_p_in)
from cvpuk.scattering import masked_sums


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


@pytest.mark.parametrize("epsilon,zeta", [
    (0.0, 0.05), (1.0, 0.05), (0.05, 0.0), (0.05, 2.0),
    (True, 0.05), pytest.param("0.05", 0.05, id="'0.05'-0.05"), (0.05, True),
    pytest.param(0.05, "0.05", id="0.05-'0.05'"),
])
def test_m_threshold_rejects_bad_parameters(epsilon, zeta):
    with pytest.raises((TypeError, ValueError), match="zeta" if epsilon == 0.05 else "epsilon"):
        m_threshold(epsilon, zeta)


_KEY = generate_key(4, 0.2, substream(6, 0))

# (entry point, its call with one parameter open, that parameter's name, and
# values the parameter refuses: True and a numeric string, which float() and
# int() would read as valid values, a non-integral count where it is an int,
# and the interval's excluded edge)
REFUSED_PARAMETERS = [
    ("ProbeSet", lambda v: ProbeSet(v, 2500.0), "n_probe_states", (True, "11", 11.5, 2)),
    ("ProbeSet", lambda v: ProbeSet(11, v), "mu_p", (True, "2500", 0.0)),
    ("HomodyneChannel", lambda v: HomodyneChannel(v, 1.9), "eta", (True, "0.55", 0.0)),
    ("HomodyneChannel", lambda v: HomodyneChannel(0.55, v), "bin_width", (True, "1.9", 0.0)),
    ("from_delta_ratio", lambda v: HomodyneChannel.from_delta_ratio(v, 2.0), "eta",
     (True, "0.55", 0.0)),
    ("from_delta_ratio", lambda v: HomodyneChannel.from_delta_ratio(0.55, v),
     "delta_over_sigma", (True, "2", 0.0)),
    ("VerificationConfig", lambda v: VerificationConfig(v, 0.05, 0.05), "m_sessions",
     (True, "1000", 1000.5, 0)),
    ("VerificationConfig", lambda v: VerificationConfig(1000, v, 0.05), "epsilon",
     (True, "0.05", 0.0)),
    ("VerificationConfig", lambda v: VerificationConfig(1000, 0.05, v), "zeta",
     (True, "0.05", 1.0)),
    ("public_p_in", lambda v: public_p_in(HomodyneChannel.from_delta_ratio(0.55, 2.0), v),
     "epsilon", (math.nan, "0.05", True, -1.0)),
    ("enrollment_error", enrollment_error, "per_quadrature_samples", (True, "25", 2.5, 0)),
    ("ScatteringKey", lambda v: ScatteringKey(np.ones(4), v), "l_over_L", (True, "0.2", 1.0)),
    ("clone_key", lambda v: clone_key(_KEY, v, substream(6, 1)), "fraction",
     (True, "0.1", -0.01)),
    ("e_threshold", lambda v: e_threshold(v, 121, 0.2), "mu_c",
     (True, "2000", 0.0, math.inf)),
    ("radii", lambda v: radii(v, 1.0, 4.0), "mu_c",
     (True, "2000", 0.0, math.inf)),
    ("radii", lambda v: radii(2000.0, v, 4.0), "variance", (True, "1", 0.0, math.inf)),
    ("radii", lambda v: radii(2000.0, 1.0, v), "enhancement", (True, "4", 0.0, math.inf)),
]


@pytest.mark.parametrize("call,name,value", [
    pytest.param(call, name, value, id=f"{entry}.{name}={value!r}")
    for entry, call, name, values in REFUSED_PARAMETERS for value in values
])
def test_entry_points_refuse_ill_typed_and_out_of_range_parameters(call, name, value):
    with pytest.raises((TypeError, ValueError), match=name):
        call(value)


def test_e_threshold_values():
    assert e_threshold(2000.0, 121, 0.2) == pytest.approx(23.280625, rel=1e-12)
    assert 22.0 <= e_threshold(2000.0, 121, 0.2) <= 24.0
    assert e_threshold(2000.0, 256, 0.2) == pytest.approx(27.04, rel=1e-12)
    assert e_threshold(1e14, 1, 0.0) == pytest.approx(16.0, abs=1e-4)
    with pytest.raises(ValueError):
        e_threshold(0.0, 121, 0.2)
    with pytest.raises(ValueError, match="l_over_L"):
        e_threshold(2000.0, 121, 1.0)
    with pytest.raises(ValueError, match="n_modes"):
        e_threshold(2000.0, 0, 0.2)
    for args in ((math.nan, 121, 0.2), (2000.0, 121, math.nan)):
        with pytest.raises(ValueError):
            e_threshold(*args)
    # a photon number per mode that rounds to 0 is refused, not divided by
    with pytest.raises(ValueError, match="^photons per mode underflow to 0 at mu_c 5e-324$"):
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
    assert database.centers.shape == (probes.n_probe_states, 2)
    assert database.enrollment_error == 0.0
    assert type(database.enrollment_error) is float
    assert database.tau == tau

    magnitudes = np.hypot(database.centers[:, 0], database.centers[:, 1])
    assert np.allclose(magnitudes, magnitudes[0], rtol=1e-12)

    # probe phases rotate the response rigidly in steps of 2*pi/N
    step = 2.0 * math.pi / probes.n_probe_states
    angles = np.arctan2(database.centers[:, 1], database.centers[:, 0])
    for k, angle in enumerate(angles):
        expected = math.remainder(angles[0] + k * step, 2.0 * math.pi)
        assert math.remainder(angle - expected, 2.0 * math.pi) == pytest.approx(
            0.0, abs=1e-9
        )


def test_enroll_exact_response_power_identity():
    key, tau, probes, channel = _setup(seed=101)
    database = enroll_exact(key, tau, probes, channel)
    mu_c = tau * probes.mu_p
    gain = enhancement(key, database.mask)
    expected = 2.0 * gain * key.variance * mu_c
    for x, y in database.centers:
        power = x**2 + y**2
        assert abs(power - expected) <= 1e-9 * expected


def test_enroll_exact_degenerate_key():
    _, tau, probes, channel = _setup(n_modes=4)
    dead = ScatteringKey(np.zeros(4, dtype=complex), 0.0)
    with pytest.raises(DegenerateKeyError):
        enroll_exact(dead, tau, probes, channel)


def test_enroll_sampled_error_tag():
    key, tau, probes, channel = _setup(n_modes=16)
    database = enroll_sampled(key, tau, probes, channel, 25, substream(102, 0))
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
    normals = substream(114, 0).standard_normal((probes.n_probe_states, 2))
    assert np.allclose(sampled.centers, exact.centers + standard_error * normals,
                       rtol=0.0, atol=1e-12)
    assert sampled.enrollment_error == enrollment_error(400)


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

    def rebuild(centers=database.centers, error=0.0, tau=0.8):
        return CrpDatabase(database.mask, centers, error, probes, channel, tau)

    assert rebuild().centers.tolist() == database.centers.tolist()
    assert [spec.name for spec in dataclasses.fields(database)] == [
        "mask", "centers", "enrollment_error", "probe_set", "channel", "tau"]
    with pytest.raises(ValueError):
        rebuild(centers=database.centers[:2])
    with pytest.raises(ValueError):
        rebuild(centers=database.centers[:, 0])
    with pytest.raises(TypeError):
        rebuild(error=[0.0, 0.0, 0.0])
    for bad in (math.nan, math.inf):
        centers = database.centers.copy()
        centers[1, 0] = bad
        with pytest.raises(ValueError):
            rebuild(centers=centers)
        with pytest.raises(ValueError):
            rebuild(error=bad)
    with pytest.raises(ValueError):
        rebuild(error=-1e-3)
    # a bare comparison would read True as the valid throughput 1.0
    for bad in (True, np.bool_(True), "0.25"):
        with pytest.raises(TypeError):
            rebuild(error=bad)
        with pytest.raises(TypeError, match="tau"):
            rebuild(tau=bad)
    for bad in (0.0, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau"):
            rebuild(tau=bad)
    assert rebuild(tau=1).tau == 1.0
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
    ):
        with pytest.raises(ValueError):
            CrpDatabase.from_dict(dict(document, records=broken))
    for bad in (math.inf, -1.0):
        with pytest.raises(ValueError, match="enrollment_error"):
            CrpDatabase.from_dict(dict(document, enrollment_error=bad))
    with pytest.raises(KeyError, match="enrollment_error"):
        CrpDatabase.from_dict({name: value for name, value in document.items()
                               if name != "enrollment_error"})
    # integer fields refuse bools and non-integers rather than truncating them
    for broken in (
        dict(document, records=records[:2] + [dict(records[2], k=2.7)]),
        dict(document, records=[dict(records[0], k=False)] + records[1:]),
        dict(document, probe_set=dict(document["probe_set"], size=3.6)),
        dict(document, enrollment_error=True),
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
        "probe_set", "channel", "setup_loss", "enrollment_error", "mask", "records",
    }
    assert all(set(record) == {"k", "x", "y"} for record in document["records"])
    restored = CrpDatabase.from_dict(json.loads(jsonio.dumps(document)))
    assert restored.probe_set == database.probe_set
    assert restored.channel == database.channel
    assert restored.tau == database.tau
    assert np.array_equal(restored.mask.phases, database.mask.phases)
    assert np.array_equal(restored.centers, database.centers)
    assert restored.enrollment_error == database.enrollment_error
    # reading checks every real field; a valid file keeps its bytes
    assert jsonio.dumps(restored.to_dict()) == jsonio.dumps(document)


def test_key_and_database_round_trips_keep_negative_zeros():
    # the key reader views its [re, im] pairs as complex numbers; re + 1j * im
    # would turn a -0.0 real part into 0.0
    key = ScatteringKey(np.array([complex(-0.0, 0.0), complex(0.0, -0.0),
                                  complex(-0.0, -0.0), 1 - 1j]), 0.2)
    restored = ScatteringKey.from_dict(json.loads(jsonio.dumps(key.to_dict())))
    assert restored.coefficients.tobytes() == key.coefficients.tobytes()
    _, tau, probes, channel = _setup(n_modes=4, n_probes=3)
    exact = enroll_exact(key, tau, probes, channel)
    centers = exact.centers.copy()
    centers[0] = centers[2, 1] = -0.0
    database = CrpDatabase(exact.mask, centers, 0.0, probes, channel, tau)
    restored = CrpDatabase.from_dict(json.loads(jsonio.dumps(database.to_dict())))
    assert restored.centers.tobytes() == database.centers.tobytes()
    assert restored.mask.phases.tobytes() == database.mask.phases.tobytes()


# ----------------------------------------------------------------- verify


def test_a_hit_frequency_exactly_epsilon_from_p_in_is_rejected():
    # the acceptance window |p_in - P_in| < epsilon is open; each difference
    # here is exact in binary, so the edge itself is compared
    config = VerificationConfig(1000, 0.25, 0.05)
    assert not _accepted(0.5, 0.75, config)
    assert not _accepted(1.0, 0.75, config)
    assert _accepted(math.nextafter(0.5, 1.0), 0.75, config)
    assert _accepted(np.array([0.5, 0.625, 1.0]), 0.75, config).tolist() == [False, True, False]


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
    impostor = generate_key(key.n_modes, 0.2, substream(105, 1))
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
    assert database.tau == 0.3
    config = VerificationConfig(1000, 0.05, 0.05)
    assert verify(key, database, config, substream(113, 1)).accepted
    # the same records stored under another throughput no longer match
    relabelled = CrpDatabase(database.mask, database.centers,
                             database.enrollment_error, probes, channel, 0.8)
    assert not verify(key, relabelled, config, substream(113, 1)).accepted


def _advice(call):
    """The first word of each warning ``call`` gives, after checking that
    each one points at this file, the caller, not into the package."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        call()
    assert [(warning.category, warning.filename) for warning in record] == [
        (UserWarning, __file__)] * len(record)
    return [str(warning.message).split()[0] for warning in record]


def test_verify_warns_on_large_error_level():
    key, tau, probes, _ = _setup(n_modes=16, seed=108)

    def calls(ratio, config):
        database = enroll_exact(key, tau, probes, HomodyneChannel.from_delta_ratio(0.55, ratio))
        campaign = {"delta_over_sigma": ratio, "epsilon": config.epsilon, "trials": 3,
                    "m_sessions": 10, "n_modes": 16, "mode_counts": (16,),
                    "d_values": (0.0, 0.5)}
        return {
            "traced verify": lambda: verify(key, database, config, substream(108, 1),
                                            trace=True),
            "untraced verify": lambda: verify(key, database, config, substream(108, 1)),
            # a campaign advises once, before its sweep, at its own caller
            "collision campaign": lambda: run_collision_histogram(
                CampaignConfig(experiment_id="collision_histogram", **campaign)),
            "clone campaign": lambda: run_clone_experiments(
                CampaignConfig(experiment_id="cheating_curve", **campaign)),
        }

    for name, call in calls(2.0, VerificationConfig(10, 0.4, 0.05)).items():
        assert _advice(call) == ["epsilon"], name
    # the bin-width advice, at the edges of the bracket [2 sigma, 4 sigma)
    config = VerificationConfig(10, 0.05, 0.05)
    for ratio, advice in ((1.9, ["bin_width"]), (2.0, []), (3.99, []), (4.0, ["bin_width"])):
        for name, call in calls(ratio, config).items():
            assert _advice(call) == advice, (ratio, name)


def test_binomial_verdicts_give_no_advice():
    key, tau, probes, _ = _setup(n_modes=16, seed=108)
    channel = HomodyneChannel.from_delta_ratio(0.55, 4.0)
    database = enroll_exact(key, tau, probes, channel)
    sums = masked_sums(key.coefficients[np.newaxis], tau, database.mask)
    assert _advice(lambda: binomial_verdicts(hit_probabilities(sums, database), database,
                                             VerificationConfig(10, 0.4, 0.05),
                                             substream(108, 1))) == []


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


def test_verify_trace_holds_25_bytes_per_session():
    # the trace is one record array, not a Python object per session; about
    # 25 bytes are held and 58 at peak, against 104 and 130 for tuples
    key, tau, probes, channel = _setup(seed=112)
    database = enroll_exact(key, tau, probes, channel)
    sessions = 200_000
    config = VerificationConfig(sessions, 0.05, 0.05)
    verify(key, database, config, substream(112, 1), trace=True)  # warm-up
    tracemalloc.start()
    try:
        report = verify(key, database, config, substream(112, 1), trace=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 32 * sessions
    assert peak <= 80 * sessions
    trace = report.session_trace
    assert trace.dtype.names == ("k", "theta", "outcome", "hit")
    assert trace.itemsize == 25 and len(trace) == sessions
    assert int(trace.hit.sum()) == report.hits
    with pytest.raises(ValueError):
        trace.hit[0] = 1 - trace.hit[0]
    with pytest.raises(ValueError):
        trace[0] = trace[1]


def test_rejection_rate_monotone_in_error_level():
    key, tau, probes, channel = _setup(seed=111)
    database = enroll_exact(key, tau, probes, channel)
    config = VerificationConfig(1000, 0.05, 0.05)
    expected = p_in_theoretical(channel)
    p_ins = []
    for trial in range(500):
        impostor = generate_key(key.n_modes, 0.2, substream(111, 1, trial))
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
    assert VerificationConfig(2**63 - 1, 0.05, 0.05).m_sessions == 2**63 - 1
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


def _p_bar(key, database):
    """``p̄`` of one key, from its masked sum under the database's mask."""
    sums = masked_sums(key.coefficients[np.newaxis], database.tau, database.mask)
    return float(hit_probabilities(sums, database)[0])


def test_hit_probability_of_exactly_enrolled_genuine_key_is_p_in():
    for n_modes, seed in ((16, 120), (121, 121), (256, 122)):
        key, tau, probes, channel = _setup(n_modes=n_modes, seed=seed)
        database = enroll_exact(key, tau, probes, channel)
        assert abs(_p_bar(key, database) - p_in_theoretical(channel)) <= 1e-12


def _hit_probability_oracle(key, database):
    """Mean bin mass over the cells, in 40-digit arithmetic from the doubles of the
    key, the database and its probes: the key's quadrature means are ``sqrt(2)
    (Re, Im)`` of the paper's field ``sum_j c_j sqrt(tau / n) e^{i phi_j} alpha_k``."""
    half = 0.5 * database.channel.bin_width
    lows = database.centers - half
    highs = database.centers + half
    probes = database.probe_set
    with mpmath.workdps(40):
        coupling = mpmath.sqrt(mpmath.mpf(database.tau) / key.n_modes)
        masked = mpmath.fsum(mpmath.mpc(c) * coupling * mpmath.expj(phi) for c, phi
                             in zip(key.coefficients.tolist(), database.mask.phases.tolist()))
        fields = [masked * mpmath.sqrt(probes.mu_p)
                  * mpmath.expj(2 * mpmath.pi * k / probes.n_probe_states) for k in range(probes.n_probe_states)]
        means = [part * mpmath.sqrt(2) for field in fields for part in (field.real, field.imag)]
        sigma = mpmath.mpf(database.channel.shot_noise)
        total = mpmath.fsum(
            mpmath.ncdf((mpmath.mpf(high) - mean) / sigma)
            - mpmath.ncdf((mpmath.mpf(low) - mean) / sigma)
            for mean, low, high in zip(means, lows.flat, highs.flat)
        )
        return float(total / len(means))


def test_hit_probability_matches_mpmath_oracle():
    key, tau, probes, channel = _setup(seed=123)
    database = enroll_exact(key, tau, probes, channel)
    clone, _ = clone_key(key, 0.03, substream(123, 1))
    impostor = generate_key(key.n_modes, 0.2, substream(123, 2))
    for probe_key in (clone, impostor):
        expected = _hit_probability_oracle(probe_key, database)
        assert abs(_p_bar(probe_key, database) - expected) <= 1e-12
    # the clone sits between the false key and the genuine key
    assert _p_bar(impostor, database) < _p_bar(clone, database)
    assert _p_bar(clone, database) < p_in_theoretical(channel)


# ------------------------------------------------------------------------ erf

# math.erf is the C library's erf, which _erf follows only where that is glibc's
_GLIBC = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                            reason="math.erf is glibc's only on glibc")
# |x| < 1.25 and |x| >= 6, where _erf gives glibc's bits
_BIT_EXACT = (st.floats(-1.25, 1.25, exclude_min=True, exclude_max=True)
              | st.floats(min_value=6.0) | st.floats(max_value=-6.0))


def _erf_edges():
    """Each bucket edge of |x| with its two neighbours, both signs."""
    edges = np.array(_ERF_EDGES)
    near = np.concatenate((np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)))
    return np.concatenate((near, -near))


def _erf_bits_match(x):
    expected = np.array([math.erf(value) for value in x.tolist()])
    return _erf(x).tobytes() == expected.tobytes()


@_GLIBC
def test_erf_carries_math_erf_bits_below_1_25_and_from_6():
    # fdlibm's 1/0.35 edge is a high word, 0x4006DB6E, with a zero low word
    assert _ERF_EDGES[3] == np.array([0x4006DB6E << 32], np.uint64).view(float)[0]
    grid = np.concatenate((np.linspace(-1.25, 1.25, 200_001)[1:-1],
                           np.linspace(6.0, 40.0, 20_001), np.linspace(-40.0, -6.0, 20_001),
                           [0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, 1e-300, math.inf, -math.inf]))
    assert _erf_bits_match(grid)
    edges = _erf_edges()
    exact = edges[(np.abs(edges) < 1.25) | (np.abs(edges) >= 6.0)]
    assert exact.size == 2 * (3 * 2 + 1 + 2)  # edges at 2**-28 and 0.84375, below 1.25, 6 and up
    assert _erf_bits_match(exact)
    # a block of any shape, also an empty one, keeps its shape
    assert _erf(grid[:24].reshape(2, 3, 4)).tobytes() == _erf(grid[:24]).tobytes()
    assert _erf(grid[:0].reshape(0, 3)).shape == (0, 3)


@_GLIBC
@settings(max_examples=300, deadline=None)
@given(st.lists(_BIT_EXACT, min_size=1, max_size=64))
def test_erf_carries_math_erf_bits_on_any_block(values):
    assert _erf_bits_match(np.array(values))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
def test_erf_is_odd(values):
    x = np.array(values)
    assert _erf(-x).tobytes() == (-_erf(x)).tobytes()


def _erf_ulps(x):
    """|_erf(x) - erf(x)| in units of 2**-53, the spacing of doubles in [0.5, 1),
    where erf lies for |x| >= 1.25, against erf at 50 digits."""
    with mpmath.workdps(50):
        return [abs(float((mpmath.mpf(got) - mpmath.erf(value)) * 2**53))
                for value, got in zip(x.tolist(), _erf(x).tolist())]


def test_erf_is_within_one_ulp_between_1_25_and_6():
    edges = _erf_edges()
    x = np.concatenate((np.linspace(1.25, 6.0, 4_001)[:-1], -np.linspace(1.25, 6.0, 401)[:-1],
                        edges[(np.abs(edges) >= 1.25) & (np.abs(edges) < 6.0)]))
    assert max(_erf_ulps(x)) < 1.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1.25, 6.0, exclude_max=True) | st.floats(-6.0, -1.25, exclude_min=True),
                min_size=1, max_size=16))
def test_erf_is_within_one_ulp_on_any_block(values):
    assert max(_erf_ulps(np.array(values))) < 1.0


def test_traced_and_binomial_hit_counts_share_their_distribution():
    # the per-session path is the reference: its hit count and the single
    # binomial draw of the untraced path are both Binomial(M, p_bar)
    key, tau, probes, channel = _setup(seed=124)
    database = enroll_exact(key, tau, probes, channel)
    clone, _ = clone_key(key, 0.03, substream(124, 1))
    p_bar = _p_bar(clone, database)
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
    impostor = generate_key(key.n_modes, 0.2, substream(125, 2))
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
    database = CrpDatabase(exact.mask, centers, exact.enrollment_error,
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
    p_bar = _p_bar(key, database)
    assert 0.0 <= p_bar <= p_in_theoretical(database.channel) + 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_keys_and_databases(), st.floats(0.0, 1e300))
def test_database_json_round_trip_gives_the_exact_doubles(key_and_database, error):
    _, exact = key_and_database
    database = CrpDatabase(exact.mask, exact.centers, error,
                           exact.probe_set, exact.channel, exact.tau)
    restored = CrpDatabase.from_dict(json.loads(jsonio.dumps(database.to_dict())))
    assert restored.centers.tobytes() == database.centers.tobytes()
    assert restored.mask.phases.tobytes() == database.mask.phases.tobytes()
    assert (restored.enrollment_error, restored.probe_set, restored.channel,
            restored.tau) == (database.enrollment_error, database.probe_set,
                                     database.channel, database.tau)
