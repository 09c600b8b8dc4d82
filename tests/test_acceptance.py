"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances are fixed here and nowhere else."""

import filecmp
import math
import time

import numpy as np

from cvpuk import (
    CampaignConfig,
    HomodyneChannel,
    ProbeSet,
    VerificationConfig,
    e_threshold,
    enhancement,
    enroll_exact,
    generate_key,
    m_threshold,
    optimal_mask,
    p_in_theoretical,
    radii,
    run_campaign,
    run_clone_experiments,
    run_collision_histogram,
    substream,
    verify,
)
from cvpuk import experiments

ERF_ONE_OVER_SQRT2 = 0.6826894921370859  # erf(1/sqrt(2)), frozen from mpmath


def _verdict(number, name, checks):
    passed = all(checks.values())
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed, {k: v for k, v in checks.items() if not v}


def test_criterion_1_theoretical_constants():
    channel = HomodyneChannel.from_delta_ratio(0.55, 2.0)
    sessions = m_threshold(1e-3, 1e-3)
    rho_false, rho_true = radii(2000.0, 0.8 / 256, 201.0)
    checks = {
        "p_in at 2 sigma": abs(p_in_theoretical(channel) - ERF_ONE_OVER_SQRT2) <= 1e-9,
        "session threshold": 2.2e7 <= sessions <= 2.4e7,
        "enhancement threshold": 22.0 <= e_threshold(2000.0, 121, 0.2) <= 24.0,
        "false radius exact": rho_false == 10.0,
        "true radius": 35.0 <= rho_true <= 36.0,
    }
    _verdict(1, "theoretical constants", checks)


def test_criterion_2_enhancement_scaling():
    checks = {}
    for stream, n_modes in ((0, 121), (1, 256)):
        rng = substream(1000, stream)
        gains = []
        for _ in range(200):
            key = generate_key(n_modes, 0.2, rng)
            gains.append(enhancement(key, optimal_mask(key)))
        expected = math.pi * n_modes / 4.0
        checks[f"mean gain at {n_modes} modes"] = (
            abs(float(np.mean(gains)) - expected) <= 0.10 * expected
        )
    _verdict(2, "enhancement scaling", checks)


def test_criterion_3_collision_resistance():
    started = time.monotonic()
    config = CampaignConfig(
        experiment_id="collision_histogram",
        n_modes=121, l_over_L=0.2, mu_p=2500.0, tau=0.8, eta=0.55,
        delta_over_sigma=2.0, n_probe_states=11,
        m_sessions=1000, epsilon=0.05, zeta=0.05,
        trials=500, histogram_bin=0.01, seed=2001,
    )
    result = run_collision_histogram(config)
    elapsed = time.monotonic() - started
    expected = result.p_in_expected
    # the mode bin is the first fullest row: max keeps the first of equal keys
    mode_left, mode_right, _ = max(
        experiments._histogram_rows(result.false_p_ins, config.histogram_bin),
        key=lambda row: row[2],
    )
    checks = {
        "true key accepted": result.true_key_accepted,
        "99% of false keys rejected": result.false_acceptance_rate <= 0.01,
        "histogram mode below half p_in": mode_left < expected / 2.0
        and 0.5 * (mode_left + mode_right) < expected / 2.0,
        "median false p_in small": float(np.median(result.false_p_ins)) <= 0.2 * expected,
        "runtime under 5 minutes": elapsed < 300.0,
    }
    _verdict(3, "collision resistance", checks)


def test_criterion_4_ensemble_statistics():
    n_keys, n_modes, mu_p, tau = 10_000, 121, 2500.0, 0.8
    mu_c = tau * mu_p
    variance = (1.0 - 0.2) / n_modes
    rng = substream(1001, 0)
    probe_amplitude = math.sqrt(mu_p)
    # fixed, non-optimized mask: a frozen random mask
    from cvpuk import PhaseMask

    mask = PhaseMask(substream(1001, 1).uniform(-math.pi, math.pi, n_modes))
    # the paper's field sum_j c_j sqrt(tau / n) e^{i phi_j} alpha under probe 0
    weights = math.sqrt(tau / n_modes) * np.exp(1j * mask.phases)
    powers = np.empty(n_keys)
    for i in range(n_keys):
        key = generate_key(n_modes, 0.2, rng)
        amplitude = np.sum(key.coefficients * weights) * probe_amplitude
        x = math.sqrt(2.0) * amplitude.real
        y = math.sqrt(2.0) * amplitude.imag
        powers[i] = x * x + y * y
    expected_power = 2.0 * variance * mu_c
    standard_error = float(powers.std(ddof=1)) / math.sqrt(n_keys)
    checks = {
        "mean quadrature power": abs(float(powers.mean()) - expected_power)
        <= 3.0 * standard_error,
    }

    key = generate_key(n_modes, 0.2, substream(1001, 2))
    probes = ProbeSet(11, mu_p)
    channel = HomodyneChannel.from_delta_ratio(0.55, 2.0)
    database = enroll_exact(key, tau, probes, channel)
    gain = enhancement(key, database.mask)
    enrolled_power = 2.0 * gain * key.variance * mu_c
    checks["enrolled records satisfy the power identity"] = all(
        abs(x**2 + y**2 - enrolled_power) <= 1e-9 * enrolled_power
        for x, y in database.centers
    )
    _verdict(4, "ensemble statistics", checks)


def test_criterion_5_chernoff_coverage():
    started = time.monotonic()
    sessions = m_threshold(0.05, 0.05)
    assert sessions == 4427
    n_modes, runs = 121, 200
    probes = ProbeSet(11, 2500.0)
    channel = HomodyneChannel.from_delta_ratio(0.55, 2.0)
    key = generate_key(n_modes, 0.2, substream(1002, 0))
    database = enroll_exact(key, 0.8, probes, channel)
    config = VerificationConfig(sessions, 0.05, 0.05)
    expected = p_in_theoretical(channel)
    failures = 0
    for run in range(runs):
        report = verify(key, database, config, substream(1002, 1, run))
        failures += abs(report.p_in - expected) >= 0.05
    bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / runs)
    elapsed = time.monotonic() - started
    checks = {
        "coverage within bound": failures / runs <= bound,
        "runtime minutes": elapsed < 600.0,
    }
    _verdict(5, "statistical coverage of the session threshold", checks)


def _monotone_with_one_soft_inversion(rates, trials):
    inversions = 0
    for previous, current in zip(rates, rates[1:]):
        if current > previous:
            inversions += 1
            slack = 2.0 * math.sqrt(
                previous * (1.0 - previous) / trials + current * (1.0 - current) / trials
            )
            if current - previous > slack or inversions > 1:
                return False
    return True


def test_criterion_6_clone_detectability():
    started = time.monotonic()
    config = CampaignConfig(
        experiment_id="cheating_curve",
        n_modes=121, l_over_L=0.2, mu_p=2500.0, tau=0.8, eta=0.55,
        delta_over_sigma=2.0, n_probe_states=11,
        m_sessions=1000, epsilon=0.05, zeta=0.05,
        trials=500, seed=2002,
        d_values=(0.0, 0.01, 0.02, 0.03, 0.05),
        mode_counts=(121, 256, 625),
    )
    result = run_clone_experiments(config)
    # rates[i, d]: index i follows mode_counts, d follows d_values
    rates = (result.accepted / config.trials).tolist()
    elapsed = time.monotonic() - started

    checks = {"runtime": elapsed < 3600.0}
    for n_modes, d_rates in zip(config.mode_counts, rates):
        checks[f"perfect clone accepted at {n_modes} modes"] = d_rates[0] >= 1.0 - config.zeta
        checks[f"monotone in fraction at {n_modes} modes"] = _monotone_with_one_soft_inversion(
            d_rates, config.trials
        )
    at_reference_fraction = [d_rates[config.d_values.index(0.03)] for d_rates in rates]
    checks["non-increasing in mode count at 3%"] = all(
        a >= b for a, b in zip(at_reference_fraction, at_reference_fraction[1:])
    )
    _verdict(6, "clone detectability", checks)


def test_criterion_7_determinism(tmp_path):
    configs = (
        CampaignConfig(experiment_id="collision_histogram", trials=25, m_sessions=200, seed=7),
        CampaignConfig(
            experiment_id="cheating_curve", trials=10, m_sessions=100,
            d_values=(0.0, 0.03), mode_counts=(16, 32), seed=7,
        ),
        CampaignConfig(experiment_id="response_cloud", trials=25, seed=7),
    )
    checks = {}
    for index, config in enumerate(configs):
        first = run_campaign(config, tmp_path / f"{index}_a")
        second = run_campaign(config, tmp_path / f"{index}_b")
        checks[config.experiment_id] = all(
            filecmp.cmp(first[key], second[key], shallow=False) for key in first
        )
    _verdict(7, "determinism of campaign artifacts", checks)
