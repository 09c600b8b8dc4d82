import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from cvpuk import (
    CampaignConfig,
    HomodyneChannel,
    PhaseMask,
    ProbeSet,
    VerificationConfig,
    clone_key,
    enroll_exact,
    false_key,
    generate_key,
    optimal_mask,
    radii,
    run_clone_experiments,
    substream,
    verify,
)
from cvpuk import experiments
from cvpuk.adversary import _replaced_positions, clone_sums, false_key_sums, replaced_count
from cvpuk.scattering import masked_sums


def _channel():
    return HomodyneChannel.from_delta_ratio(0.55, 2.0)


def test_false_key_matches_generator_contract():
    key = false_key(256, 0.2, substream(200, 0))
    assert key.variance == 0.003125
    assert key.n_modes == 256


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
    mask = optimal_mask(true_key)
    mu_c = tau * mu_p
    rho_false, _ = radii(mu_c, true_key.variance, 201.0)
    rng = substream(202, 1)
    probes = ProbeSet(11, mu_p)
    outside = 0
    trials = 10_000
    for _ in range(trials):
        impostor = false_key(n_modes, 0.2, rng)
        x, y = probes.responses(masked_sums(impostor.coefficients, tau, mask))[0]
        outside += math.hypot(x, y) > 1.5 * rho_false
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
        mask = optimal_mask(true_key)
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


def _durstenfeld_walk(n, count, offsets):
    """Replaced positions of one row by a plain-Python partial Fisher–Yates
    walk: step ``i`` swaps slot ``i`` with slot ``i + offsets[i]``."""
    slots = list(range(n))
    for i, offset in enumerate(offsets):
        slots[i], slots[i + offset] = slots[i + offset], slots[i]
    return slots[:count] if count == len(offsets) else slots[len(offsets):]


@pytest.mark.parametrize("fraction", [0.001, 0.3, 0.9995])
def test_replaced_positions_beyond_the_int16_range_follow_the_plain_walk(fraction):
    # 70,000 slots overflow a 16-bit table; each row is the walk over its own
    # offsets, the same integers(0, n - arange(s), size=(rows, s)) draw
    n_modes, rows = 70_000, 3
    true_key = generate_key(n_modes, 0.2, substream(219, 0))
    count = replaced_count(fraction, n_modes)
    steps = min(count, n_modes - count)
    positions = _replaced_positions(true_key, fraction, rows, substream(219, 1))
    assert positions.dtype == np.intp and positions.flags.c_contiguous
    assert positions.shape == (rows, count)
    offsets = substream(219, 1).integers(0, n_modes - np.arange(steps), size=(rows, steps))
    assert offsets.max() >= 2**15  # some swap reaches past the 16-bit range
    for row, row_offsets in zip(positions.tolist(), offsets.tolist()):
        assert row == _durstenfeld_walk(n_modes, count, row_offsets)


@pytest.mark.parametrize("count", [3, 7, 10])
def test_replaced_positions_are_uniform_subsets(count):
    n_modes, rows = 10, 20_000
    true_key = generate_key(n_modes, 0.2, substream(218, 0))
    fraction = count / n_modes
    rng = substream(218, count)
    positions = _replaced_positions(true_key, fraction, rows, rng)
    assert positions.shape == (rows, count)
    assert positions.min() >= 0 and positions.max() < n_modes
    assert all(len(set(row)) == count for row in positions.tolist())
    if count == n_modes:  # every position is replaced, so nothing is drawn
        assert rng.bit_generator.state == substream(218, count).bit_generator.state
    # row 0 of a block is what a one-row draw picks: clone_key against clone_sums
    _, replaced = clone_key(true_key, fraction, substream(218, count))
    assert replaced.tolist() == positions[0].tolist()
    assert (_replaced_positions(true_key, fraction, 7, substream(218, count)).tolist()
            == positions[:7].tolist())
    # a uniform count-subset holds any one position with probability count / n
    # and any two with count (count - 1) / (n (n - 1)); a swap that favours
    # some slots shifts the pairs even where it keeps the marginals
    included = np.zeros((rows, n_modes))
    np.put_along_axis(included, positions, 1.0, axis=1)
    together = included.T @ included / rows
    single = count / n_modes
    pair = count * (count - 1) / (n_modes * (n_modes - 1))
    off_diagonal = ~np.eye(n_modes, dtype=bool)
    assert np.all(np.abs(np.diag(together) - single)
                  <= 4.0 * math.sqrt(single * (1.0 - single) / rows))
    assert np.all(np.abs(together[off_diagonal] - pair)
                  <= 4.0 * math.sqrt(pair * (1.0 - pair) / rows))


def test_a_four_stream_clone_block_near_half_the_modes_peaks_below_9_mb():
    # a block of four 256-row chunks at n = 625, D = 0.5 walks 312 steps over
    # 1,024 rows; its step targets are formed one step at a time, so no
    # (steps, rows) table of 64-bit targets is held beside the slot table
    n_modes, fraction, rows = 625, 0.5, 256
    true_key = generate_key(n_modes, 0.2, substream(220, 0))
    mask = optimal_mask(true_key)
    clone_sums(true_key, fraction, 0.8, mask, rows, substream(220, 1))  # warm-up
    streams = [substream(220, 2, chunk) for chunk in range(4)]
    tracemalloc.start()
    try:
        sums = clone_sums(true_key, fraction, 0.8, mask, rows, *streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums.shape == (4 * rows,)
    assert peak < 9e6


def test_clone_distance_grows_with_fraction():
    n_modes, mu_p = 121, 2500.0
    true_key = generate_key(n_modes, 0.2, substream(207, 0))
    tau = 0.8
    mask = optimal_mask(true_key)
    probes = ProbeSet(11, mu_p)
    true_x, true_y = probes.responses(masked_sums(true_key.coefficients, tau, mask))[0]
    rng = substream(207, 1)
    fractions = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1]
    means = []
    for fraction in fractions:
        distances = []
        for _ in range(500):
            clone, _ = clone_key(true_key, fraction, rng)
            x, y = probes.responses(masked_sums(clone.coefficients, tau, mask))[0]
            distances.append(math.hypot(x - true_x, y - true_y))
        means.append(float(np.mean(distances)))
    assert all(a < b for a, b in zip(means, means[1:]))


def test_clone_sums_follow_the_masked_sums_of_built_clones():
    # the campaigns draw a clone as its sufficient statistic; its law must
    # be that of a clone_key clone seen through the same mask, in every part
    n_modes, fraction, rows = 121, 0.05, 4000
    true_key = generate_key(n_modes, 0.2, substream(217, 0))
    mask = optimal_mask(true_key)
    drawn = clone_sums(true_key, fraction, 0.8, mask, rows, substream(217, 1))
    rng = substream(217, 2)
    built = masked_sums(np.array([clone_key(true_key, fraction, rng)[0].coefficients
                                  for _ in range(rows)]), 0.8, mask)
    for part in (np.real, np.imag, np.abs):
        assert stats.ks_2samp(part(drawn), part(built)).pvalue > 1e-3, part.__name__


def _clone_campaign(experiment_id, mode_counts, d_values, trials, seed, sessions=1000):
    """Clone sweep at the reference physics: 11 probes of 2500 photons,
    tau 0.8, eta 0.55, bin width two shot-noise units, error level 0.05."""
    return run_clone_experiments(CampaignConfig(
        experiment_id=experiment_id, mode_counts=mode_counts, d_values=d_values,
        trials=trials, m_sessions=sessions, seed=seed,
    ))


def _accept_rates(result):
    """Acceptance rate of each clone cluster, indexed like ``result.accepted``."""
    return result.accepted / result.p_ins.shape[2]


def _summaries(means):
    """The ``(mean_x, mean_y, std_radius)`` that the clone_cloud summary writes
    for each fraction's cloud of ``means``."""
    return [experiments._cloud_summary(points) for points in means]


def test_clone_cloud_zero_fraction_collapses_to_true_response():
    result = _clone_campaign("clone_cloud", (32,), (0.0,), 50, seed=208)
    true_response, means = result.true_responses[0], result.means[0]
    assert means.shape == (1, 50, 2)
    for x, y in means[0].tolist():
        assert x == true_response[0]
        assert y == true_response[1]
    mean_x, mean_y, spread = _summaries(means)[0]
    assert (mean_x, mean_y) == tuple(true_response.tolist())
    assert spread == 0.0


def test_clone_cloud_separation_grows_with_fraction():
    result = _clone_campaign(
        "clone_cloud", (121,), (0.01, 0.02, 0.03, 0.04, 0.05), 500, seed=209
    )
    true_point = result.true_responses[0]
    separations = [
        math.hypot(mean_x - true_point[0], mean_y - true_point[1])
        for mean_x, mean_y, _ in _summaries(result.means[0])
    ]
    assert all(a < b for a, b in zip(separations, separations[1:]))


def test_clone_cloud_relative_separation_grows_with_modes():
    # more modes concentrate the clone cloud around its displaced mean,
    # so the separation measured in cloud-spread units increases
    result = _clone_campaign("clone_cloud", (121, 625), (0.03,), 500, seed=210)
    ratios = {}
    for i, n_modes in enumerate((121, 625)):
        true_x, true_y = result.true_responses[i]
        mean_x, mean_y, spread = _summaries(result.means[i])[0]
        separation = math.hypot(mean_x - true_x, mean_y - true_y)
        ratios[n_modes] = separation / spread
    assert ratios[625] > ratios[121]


def test_cheating_probability_perfect_clone():
    result = _clone_campaign("cheating_curve", (64,), (0.0,), 200, seed=212, sessions=500)
    assert _accept_rates(result)[0, 0] >= 1.0 - 0.05  # 1 - zeta


def test_cheating_probability_total_randomization_matches_false_keys():
    n_modes, seed = 121, 213
    result = _clone_campaign("cheating_curve", (n_modes,), (1.0,), 200, seed=seed)
    clone_rate = _accept_rates(result)[0, 0]
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
    assert rates[0, 1] <= rates[0, 0]


def test_clone_fraction_bounds():
    true_key = generate_key(8, 0.2, substream(216, 0))
    for fraction in (-0.1, 1.1):
        with pytest.raises(ValueError):
            clone_key(true_key, fraction, substream(216, 1))
