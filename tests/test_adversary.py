import math

import numpy as np
import pytest
from scipy import stats

from cvpuk import (
    CampaignConfig,
    HomodyneChannel,
    PhaseMask,
    ProbeSet,
    Response,
    VerificationConfig,
    clone_key,
    enroll_exact,
    false_key,
    generate_key,
    optimal_mask,
    radii,
    run_clone_experiments,
    scattered_amplitude,
    substream,
    verify,
)
from cvpuk.adversary import false_key_sums, replaced_count
from cvpuk.scattering import masked_sums


def _channel():
    return HomodyneChannel.from_delta_ratio(0.55, 2.0)


def test_false_key_matches_generator_contract():
    key = false_key(256, 0.2, substream(200, 0))
    assert key.variance == 0.003125
    assert key.mode_count == 256


def test_false_key_never_equals_true_key():
    true_key = generate_key(16, 0.2, substream(201, 0))
    rng = substream(201, 1)
    for _ in range(10_000):
        impostor = false_key(16, 0.2, rng)
        assert not np.array_equal(impostor.coefficients, true_key.coefficients)


def test_false_key_responses_concentrate_near_origin():
    # Gaussian tail oracle: fraction outside 1.5 * rho_f is exp(-18), so
    # effectively zero against the 2% allowance
    n_modes, mu_p, tau = 256, 2500.0, 0.8
    true_key = generate_key(n_modes, 0.2, substream(202, 0))
    mask = optimal_mask(true_key, tau)
    mu_c = tau * mu_p
    rho_false, _ = radii(mu_c, true_key.variance, 201.0)
    rng = substream(202, 1)
    amplitude = math.sqrt(mu_p)
    outside = 0
    trials = 10_000
    for _ in range(trials):
        impostor = false_key(n_modes, 0.2, rng)
        response = Response.from_amplitude(
            scattered_amplitude(impostor, tau, mask, amplitude)
        )
        outside += math.hypot(response.x, response.y) > 1.5 * rho_false
    assert outside / trials <= 0.02


SUM_SAMPLES = 4000


@pytest.mark.parametrize("mask_kind", ["optimal", "random"])
@pytest.mark.parametrize("n_modes", [1, 121, 625])
def test_false_key_sums_match_explicit_false_keys(n_modes, mask_kind):
    # the masked sum of a false key seen through a mask that does not depend
    # on it is CN(0, tau (1 - l/L) / n); draw it both ways and compare
    tau, l_over_L = 0.8, 0.2
    true_key = generate_key(n_modes, l_over_L, substream(210, n_modes))
    if mask_kind == "optimal":
        mask = optimal_mask(true_key, tau)
    else:
        mask = PhaseMask(substream(211, n_modes).uniform(-math.pi, math.pi, n_modes))
    rng = substream(212, n_modes)
    explicit = masked_sums(
        np.array([generate_key(n_modes, l_over_L, rng).coefficients
                  for _ in range(SUM_SAMPLES)]), tau, mask)
    drawn = false_key_sums(n_modes, l_over_L, tau, SUM_SAMPLES, substream(213, n_modes))
    variance = tau * (1.0 - l_over_L) / n_modes
    # five standard errors: E|S|^2 = v with sd v, E[S] = 0 with sd sqrt(v),
    # E[S^2] = 0 with sd sqrt(2) v (the fourth moment of a circular Gaussian)
    bound = 5.0 / math.sqrt(SUM_SAMPLES)
    for sums in (explicit, drawn):
        assert np.mean(np.abs(sums) ** 2) == pytest.approx(variance, rel=bound)
        assert abs(np.mean(sums)) < bound * math.sqrt(variance)
        assert abs(np.mean(sums ** 2)) < bound * math.sqrt(2.0) * variance
    for explicit_part, drawn_part in ((explicit.real, drawn.real),
                                      (explicit.imag, drawn.imag),
                                      (np.abs(explicit) ** 2, np.abs(drawn) ** 2)):
        assert stats.ks_2samp(explicit_part, drawn_part).pvalue > 1e-3


def test_replaced_count_rounding():
    assert replaced_count(0.03, 625) == 19
    assert replaced_count(0.02, 625) == 13  # 12.5 rounds away from zero
    assert replaced_count(0.5, 1) == 1
    assert replaced_count(0.0, 100) == 0
    assert replaced_count(1.0, 100) == 100
    assert replaced_count(0.03, 121) == 4
    with pytest.raises(ValueError):
        replaced_count(1.1, 10)


def test_clone_identity_at_zero_fraction():
    true_key = generate_key(64, 0.2, substream(203, 0))
    clone, replaced = clone_key(true_key, 0.0, substream(203, 1))
    assert np.array_equal(clone.coefficients, true_key.coefficients)
    assert replaced.size == 0


def test_clone_total_randomization():
    true_key = generate_key(64, 0.2, substream(204, 0))
    clone, replaced = clone_key(true_key, 1.0, substream(204, 1))
    assert sorted(replaced.tolist()) == list(range(64))
    assert not np.any(clone.coefficients == true_key.coefficients)


def test_clone_preserves_unreplaced_coefficients():
    true_key = generate_key(625, 0.2, substream(205, 0))
    clone, replaced = clone_key(true_key, 0.03, substream(205, 1))
    assert len(set(replaced.tolist())) == replaced.size == 19
    kept = np.setdiff1d(np.arange(625), replaced)
    assert np.array_equal(clone.coefficients[kept], true_key.coefficients[kept])
    assert not np.any(clone.coefficients[replaced] == true_key.coefficients[replaced])


def test_clone_replaced_index_uniformity():
    true_key = generate_key(16, 0.2, substream(206, 0))
    rng = substream(206, 1)
    trials = 2000
    counts = np.zeros(16)
    for _ in range(trials):
        _, replaced = clone_key(true_key, 0.25, rng)
        counts[replaced] += 1
    frequency = counts / trials
    tolerance = 3.0 * math.sqrt(0.25 * 0.75 / trials)
    assert np.all(np.abs(frequency - 0.25) <= tolerance)


def test_clone_distance_grows_with_fraction():
    n_modes, mu_p = 121, 2500.0
    true_key = generate_key(n_modes, 0.2, substream(207, 0))
    tau = 0.8
    mask = optimal_mask(true_key, tau)
    amplitude = math.sqrt(mu_p)
    true_response = Response.from_amplitude(
        scattered_amplitude(true_key, tau, mask, amplitude)
    )
    rng = substream(207, 1)
    fractions = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1]
    means = []
    for fraction in fractions:
        distances = []
        for _ in range(500):
            clone, _ = clone_key(true_key, fraction, rng)
            response = Response.from_amplitude(
                scattered_amplitude(clone, tau, mask, amplitude)
            )
            distances.append(
                math.hypot(response.x - true_response.x, response.y - true_response.y)
            )
        means.append(float(np.mean(distances)))
    assert all(a < b for a, b in zip(means, means[1:]))


def _clone_campaign(experiment_id, mode_counts, d_values, trials, seed, sessions=1000):
    """Clone sweep at the reference physics: 11 probes of 2500 photons,
    tau 0.8, eta 0.55, bin width two shot-noise units, error level 0.05."""
    return run_clone_experiments(CampaignConfig(
        experiment_id=experiment_id, mode_counts=mode_counts, d_values=d_values,
        trials=trials, m_sessions=sessions, seed=seed,
    ))


def _accept_rates(result):
    return {(n_modes, fraction): rate for fraction, n_modes, rate, _ in result.cheating_rows}


def test_clone_cloud_zero_fraction_collapses_to_true_response():
    result = _clone_campaign("clone_cloud", (32,), (0.0,), 50, seed=208)
    true_response, points, summaries = result.clouds[32]
    assert len(points) == 50
    for _, _, x, y in points:
        assert x == true_response.x
        assert y == true_response.y
    fraction, mean_x, mean_y, spread = summaries[0]
    assert fraction == 0.0
    assert spread == 0.0


def test_clone_cloud_separation_grows_with_fraction():
    result = _clone_campaign(
        "clone_cloud", (121,), (0.01, 0.02, 0.03, 0.04, 0.05), 500, seed=209
    )
    true_response, _, summaries = result.clouds[121]
    true_point = np.array([true_response.x, true_response.y])
    separations = [
        math.hypot(mean_x - true_point[0], mean_y - true_point[1])
        for _, mean_x, mean_y, _ in summaries
    ]
    assert all(a < b for a, b in zip(separations, separations[1:]))


def test_clone_cloud_relative_separation_grows_with_modes():
    # more modes concentrate the clone cloud around its displaced mean,
    # so the separation measured in cloud-spread units increases
    result = _clone_campaign("clone_cloud", (121, 625), (0.03,), 500, seed=210)
    ratios = {}
    for n_modes in (121, 625):
        true_response, _, summaries = result.clouds[n_modes]
        _, mean_x, mean_y, spread = summaries[0]
        separation = math.hypot(mean_x - true_response.x, mean_y - true_response.y)
        ratios[n_modes] = separation / spread
    assert ratios[625] > ratios[121]


def test_cheating_probability_perfect_clone():
    result = _clone_campaign("cheating_curve", (64,), (0.0,), 200, seed=212, sessions=500)
    assert _accept_rates(result)[(64, 0.0)] >= 1.0 - 0.05  # 1 - zeta


def test_cheating_probability_total_randomization_matches_false_keys():
    n_modes, seed = 121, 213
    result = _clone_campaign("cheating_curve", (n_modes,), (1.0,), 200, seed=seed)
    clone_rate = _accept_rates(result)[(n_modes, 1.0)]
    # the campaign's true key for its first mode count, on stream (4, 0)
    true_key = generate_key(n_modes, 0.2, substream(seed, 4, 0))
    database = enroll_exact(true_key, 0.8, ProbeSet(11, 2500.0), _channel())
    config = VerificationConfig(1000, 0.05, 0.05)
    accepted = 0
    for trial in range(200):
        impostor = false_key(n_modes, 0.2, substream(seed, 2, trial))
        accepted += verify(
            impostor, database, config, substream(seed, 3, trial)
        ).accepted
    false_rate = accepted / 200
    assert clone_rate <= 0.01
    assert abs(clone_rate - false_rate) <= 0.02


def test_cheating_probability_decreases_with_fraction():
    result = _clone_campaign("cheating_curve", (256,), (0.01, 0.05), 200, seed=214)
    rates = _accept_rates(result)
    assert rates[(256, 0.05)] <= rates[(256, 0.01)]


def test_clone_fraction_bounds():
    true_key = generate_key(8, 0.2, substream(216, 0))
    for fraction in (-0.1, 1.1):
        with pytest.raises(ValueError):
            clone_key(true_key, fraction, substream(216, 1))
