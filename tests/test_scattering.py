import cmath
import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvpuk import (
    DegenerateKeyError,
    HomodyneChannel,
    PhaseMask,
    ProbeSet,
    ScatteringKey,
    enhancement,
    enroll_exact,
    generate_key,
    optimal_mask,
    substream,
    wrap_phase,
)
from cvpuk import jsonio
from cvpuk.adversary import false_key_sums
from cvpuk.scattering import ensemble_variance, masked_sums


def test_generated_variance_matches_parameters():
    key = generate_key(256, 0.2, substream(1, 0))
    assert key.variance == 0.003125
    assert key.n_modes == 256
    assert key.coefficients.shape == (256,)
    assert np.all(np.isfinite(key.coefficients))


def test_generated_ensemble_statistics():
    # law of large numbers over the generator itself as the oracle
    n_keys, n_modes = 100_000, 121
    rng = substream(2, 0)
    target = 0.8 / 121
    power_sum = 0.0
    mean_sum = 0.0 + 0.0j
    for _ in range(n_keys):
        key = generate_key(n_modes, 0.2, rng)
        power_sum += float(np.mean(np.abs(key.coefficients) ** 2))
        mean_sum += complex(np.mean(key.coefficients))
    mean_power = power_sum / n_keys
    assert abs(mean_power - target) <= 0.01 * target
    total = n_keys * n_modes
    assert abs(mean_sum / n_keys) <= 5.0 * math.sqrt(target / total)


@pytest.mark.parametrize("mode_count,l_over_L", [
    (0, 0.2), (4, -0.1), (4, 1.0),
    # float() and int() would read each of these as a valid value
    (True, 0.2), pytest.param("4", 0.2, id="'4'-0.2"), (4.5, 0.2), (4, True),
    pytest.param(4, "0.2", id="4-'0.2'"),
])
def test_generate_key_rejects_bad_parameters(mode_count, l_over_L):
    # the message names the parameter at fault
    with pytest.raises((TypeError, ValueError),
                       match="l_over_L" if mode_count == 4 else "n_modes"):
        generate_key(mode_count, l_over_L, substream(3, 0))


def test_mode_count_beyond_the_double_range_is_refused_by_name():
    # the largest double as an integer divides; one more would be refused
    # rather than raise an OverflowError naming no parameter at 2**1024
    largest = int(sys.float_info.max)
    assert ensemble_variance(largest, 0.2) == 0.8 / sys.float_info.max
    for mode_count in (largest + 1, 10**400):
        with pytest.raises(ValueError, match=r"^n_modes must not exceed the double range, "
                                             rf"got a {len(str(mode_count))}-digit integer$"):
            ensemble_variance(mode_count, 0.2)


def test_zero_variance_key_is_refused():
    # l_over_L = 1 leaves a key no variance, hence no enhancement reference
    with pytest.raises(ValueError, match="l_over_L"):
        ScatteringKey(np.zeros(1, dtype=complex), 1.0)
    document = ScatteringKey(np.zeros(1, dtype=complex), 0.0).to_dict()
    with pytest.raises(ValueError, match="l_over_L"):
        ScatteringKey.from_dict(dict(document, l_over_L=1.0))


def test_key_coefficients_are_immutable():
    key = generate_key(8, 0.2, substream(4, 0))
    with pytest.raises(ValueError):
        key.coefficients[0] = 1.0


def _unit_key(coefficients):
    """A key with exactly the given reflection coefficients."""
    return ScatteringKey(np.asarray(coefficients, dtype=complex), 0.0)


def _masked_sum(key, tau, mask):
    """The paper's masked sum ``sum_j c_j sqrt(tau / n) e^{i phi_j}``, term by term."""
    coupling = math.sqrt(tau / key.n_modes)
    return sum(c * coupling * cmath.exp(1j * phi)
               for c, phi in zip(key.coefficients.tolist(), mask.phases.tolist()))


def test_uniform_illumination_values():
    # uniform illumination couples every mode with the real amplitude
    # sqrt(tau / n): a key reflecting one mode reads off that mode's value
    flat = PhaseMask(np.zeros(4))
    for mode in range(4):
        assert masked_sums(_unit_key(np.eye(4)[mode]).coefficients, 1.0, flat) == 0.5

    flat = PhaseMask(np.zeros(256))
    single_mode = masked_sums(_unit_key(np.eye(256)[0]).coefficients, 0.8, flat)
    assert abs(single_mode) ** 2 == pytest.approx(0.003125, rel=1e-12)
    every_mode = masked_sums(_unit_key(np.ones(256)).coefficients, 0.8, flat)
    assert abs(abs(every_mode) ** 2 / 256 - 0.8) <= 1e-12

    assert masked_sums(_unit_key([1.0]).coefficients, 0.49, PhaseMask(np.zeros(1))) == 0.7


@pytest.mark.parametrize(
    "mode_count,tau",
    [(0, 0.5), (4, 0.0), (4, 1.2), (4, -0.1), (4, math.nan), (4, math.inf)],
)
def test_uniform_illumination_rejects_bad_parameters(mode_count, tau):
    # a coupling needs at least one mode, which every key has, and a
    # finite throughput tau in (0, 1]
    with pytest.raises(ValueError):
        key = generate_key(mode_count, 0.2, substream(21, 0))
        masked_sums(key.coefficients, tau, PhaseMask(np.zeros(mode_count)))


@pytest.mark.parametrize("tau", [0.0, 1.2, math.nan, math.inf, True,
                                 pytest.param("0.8", id="'0.8'")])
def test_every_tau_entry_point_rejects_bad_tau(tau):
    key = generate_key(4, 0.2, substream(22, 0))
    mask = PhaseMask(np.zeros(4))
    with pytest.raises((TypeError, ValueError), match="tau"):
        false_key_sums(4, 0.2, tau, 2, substream(22, 1))
    with pytest.raises((TypeError, ValueError), match="tau"):
        masked_sums(key.coefficients, tau, mask)
    with pytest.raises((TypeError, ValueError), match="tau"):
        enroll_exact(key, tau, ProbeSet(3, 1.0), HomodyneChannel.from_delta_ratio(0.55, 2.0))


def _field(responses):
    """The fields ``(x + i y) / sqrt(2)`` of an array of quadrature means."""
    return (responses[..., 0] + 1j * responses[..., 1]) / math.sqrt(2.0)


def test_zero_key_has_no_response():
    key = ScatteringKey(np.zeros(5, dtype=complex), 0.0)
    tau = 0.8
    mask = PhaseMask(np.linspace(-3, 3, 5))
    total = masked_sums(key.coefficients, tau, mask)
    assert total == 0
    assert not ProbeSet(5, 5.0).responses(total).any()


def test_masked_sum_phase_cancellation():
    key = ScatteringKey(np.array([0.1 * np.exp(1j * math.pi / 3)]), 0.2)
    tau = 0.25
    mask = PhaseMask(np.array([-math.pi / 3]))
    # sqrt(0.25 / 1) * 0.1 under probe 0 of amplitude 2
    x, y = ProbeSet(3, 4.0).responses(masked_sums(key.coefficients, tau, mask))[0]
    assert x == pytest.approx(0.1 * math.sqrt(2.0), rel=1e-12)
    assert abs(y) < 1e-15


def test_masked_sum_shape_mismatch():
    key = generate_key(4, 0.2, substream(5, 0))
    for wrong_length in (3, 5):
        with pytest.raises(ValueError):
            masked_sums(key.coefficients, 0.8, PhaseMask(np.zeros(wrong_length)))


def test_linearity_exact_for_binary_scalings():
    # a response is linear in the masked sum, exactly for a power-of-two scaling
    key = generate_key(16, 0.2, substream(6, 0))
    tau = 0.8
    mask = PhaseMask(substream(6, 1).uniform(-math.pi, math.pi, 16))
    probes = ProbeSet(11, 2500.0)
    total = masked_sums(key.coefficients, tau, mask)
    reference = probes.responses(total)
    for scaling in (2.0, 0.5, -1.0):
        assert probes.responses(scaling * total).tolist() == (scaling * reference).tolist()
    # a probe strength four times as large doubles every amplitude exactly
    assert ProbeSet(11, 10_000.0).responses(total).tolist() == (2.0 * reference).tolist()


def test_linearity_close_for_general_scalings():
    key = generate_key(16, 0.2, substream(7, 0))
    tau = 0.8
    mask = PhaseMask(substream(7, 1).uniform(-math.pi, math.pi, 16))
    probes = ProbeSet(11, 2500.0)
    total = masked_sums(key.coefficients, tau, mask)
    reference = _field(probes.responses(total))
    for scaling in (1.7 - 2.2j, -0.3 + 0.9j, 2.0j):
        scaled = _field(probes.responses(scaling * total))
        assert scaled == pytest.approx(scaling * reference, rel=1e-12)


def test_optimal_mask_single_mode():
    key = ScatteringKey(np.array([0.3 * np.exp(1.1j)]), 0.2)
    mask = optimal_mask(key)
    assert mask.phases[0] == pytest.approx(-1.1, rel=1e-12)


def test_optimal_mask_is_global_optimum():
    key = generate_key(32, 0.2, substream(8, 0))
    tau = 0.8
    best = abs(masked_sums(key.coefficients, tau, optimal_mask(key)))
    rng = substream(8, 1)
    for _ in range(1000):
        mask = PhaseMask(rng.uniform(-math.pi, math.pi, 32))
        assert abs(masked_sums(key.coefficients, tau, mask)) < best


def test_optimal_mask_degenerate_key():
    key = ScatteringKey(np.zeros(3, dtype=complex), 0.0)
    with pytest.raises(DegenerateKeyError):
        optimal_mask(key)


@pytest.mark.parametrize("n_modes", [1, 16, 121])
def test_optimal_mask_conjugates_each_coefficient_phase(n_modes):
    # the uniform coupling is real, so the mask is the key's phases negated
    key = generate_key(n_modes, 0.2, substream(23, n_modes))
    expected = wrap_phase(-np.angle(key.coefficients))
    assert optimal_mask(key).phases.tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("tau", [0.05, 0.8, 1.0])
def test_enhancement_is_the_masked_power_at_any_throughput_over_its_ensemble_mean(tau):
    key = generate_key(121, 0.2, substream(24, 0))
    for mask in (optimal_mask(key), PhaseMask(np.zeros(121))):
        power = abs(masked_sums(key.coefficients, tau, mask)) ** 2
        assert enhancement(key, mask) == pytest.approx(power / (tau * key.variance), rel=1e-12)


def test_a_key_whose_coupled_terms_underflow_has_a_mask_and_a_finite_enrollment():
    # each coefficient times sqrt(tau / n) rounds to 0, but the key itself is
    # not all zero, so its mask is defined; its response is 0, not NaN
    key = ScatteringKey(np.full(121, 5e-324, dtype=complex), 0.2)
    mask = optimal_mask(key)
    assert not mask.phases.any()
    database = enroll_exact(key, 0.8, ProbeSet(11, 2500.0),
                            HomodyneChannel.from_delta_ratio(0.55, 2.0))
    assert np.isfinite(database.centers).all()
    assert enhancement(key, mask) == 0.0


def test_optimal_mask_mean_enhancement():
    rng = substream(9, 0)
    gains = []
    for _ in range(200):
        key = generate_key(256, 0.2, rng)
        gains.append(enhancement(key, optimal_mask(key)))
    expected = math.pi * 256 / 4.0
    assert abs(float(np.mean(gains)) - expected) <= 0.10 * expected


def test_enhancement_unoptimized_ensemble_mean_is_one():
    rng = substream(14, 0)
    mask = PhaseMask(np.zeros(64))
    gains = [
        enhancement(generate_key(64, 0.2, rng), mask)
        for _ in range(10_000)
    ]
    assert abs(float(np.mean(gains)) - 1.0) <= 0.05


def test_enhancement_single_mode():
    key = ScatteringKey(np.array([0.25 * np.exp(0.4j)]), 0.2)
    gain = enhancement(key, optimal_mask(key))
    assert gain == pytest.approx(abs(key.coefficients[0]) ** 2 / key.variance, rel=1e-12)


def test_amplitude_squared_matches_enhancement():
    # photon number in the target mode must equal the squared mean field
    key = generate_key(121, 0.2, substream(17, 0))
    tau = 0.8
    mask = optimal_mask(key)
    mu_p = 2500.0
    mu_c = 0.8 * mu_p
    amplitude = _masked_sum(key, tau, mask) * math.sqrt(mu_p)
    gain = enhancement(key, mask)
    assert abs(amplitude) ** 2 == pytest.approx(gain * key.variance * mu_c, rel=1e-12)


def test_enhancement_scaling_slope():
    mode_counts = (16, 64, 121, 256)
    rng = substream(18, 0)
    means = []
    for n_modes in mode_counts:
        gains = []
        for _ in range(100):
            key = generate_key(n_modes, 0.2, rng)
            gains.append(enhancement(key, optimal_mask(key)))
        means.append(float(np.mean(gains)))
    slope = float(np.polyfit(mode_counts, means, 1)[0])
    assert abs(slope - math.pi / 4.0) <= 0.10 * math.pi / 4.0


def test_phase_mask_wraps_and_validates():
    mask = PhaseMask(np.array([3 * math.pi / 2, math.pi, -math.pi, 0.25]))
    assert mask.phases[0] == pytest.approx(-math.pi / 2, rel=1e-12)
    assert mask.phases[1] == -math.pi
    assert mask.phases[2] == -math.pi
    assert mask.phases[3] == 0.25
    assert np.all(mask.phases >= -math.pi) and np.all(mask.phases < math.pi)
    with pytest.raises(ValueError):
        PhaseMask(np.array([math.nan]))
    with pytest.raises(ValueError):
        PhaseMask(np.array([]))


def test_wrap_phase_range():
    values = wrap_phase(np.linspace(-10 * math.pi, 10 * math.pi, 1001))
    assert np.all(values >= -math.pi)
    assert np.all(values < math.pi)
    # just below -pi the modulo rounds up to 2 pi; the result folds to -pi
    below = np.nextafter(-math.pi, -math.inf)
    assert wrap_phase(below) == -math.pi
    assert wrap_phase(np.array([below, below])).tolist() == [-math.pi, -math.pi]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(float(np.nextafter(-math.pi, -math.inf)))
@example(float(np.nextafter(math.pi, math.inf)))
@example(-3 * math.pi)
@example(5e-324)
def test_wrap_phase_lands_in_range_and_is_idempotent(angle):
    wrapped = wrap_phase(angle)
    assert -math.pi <= wrapped < math.pi
    assert wrap_phase(wrapped) == wrapped
    assert wrap_phase(np.array([angle, wrapped])).tolist() == [wrapped, wrapped]
    if abs(angle) <= 1e6:
        # the same direction, up to the rounding of angle + pi
        assert abs(math.cos(wrapped) - math.cos(angle)) <= 1e-9
        assert abs(math.sin(wrapped) - math.sin(angle)) <= 1e-9


_FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 64), st.integers(0, 2**32), st.floats(0.01, 1.0), _FINITE, _FINITE)
def test_responses_are_linear_in_the_masked_sum(n_modes, seed, tau, a, b):
    key = generate_key(n_modes, 0.2, substream(seed, 0))
    mask = PhaseMask(substream(seed, 1).uniform(-math.pi, math.pi, n_modes))
    total = masked_sums(key.coefficients, tau, mask)
    probes = ProbeSet(5, 1.0)  # unit probe amplitudes
    unit = _field(probes.responses(total))
    fields = _field(probes.responses(total * np.array([a, b, a + b])))
    # homogeneous and additive up to the rounding of a + b and of the
    # products, which is absolute, not relative, among subnormal fields
    slack = 1e-12 * abs(total) * (abs(a) + abs(b)) + np.finfo(float).tiny
    assert np.all(abs(fields[0] - unit * a) <= slack)
    assert np.all(abs(fields[1] - unit * b) <= slack)
    assert np.all(abs(fields[2] - (fields[0] + fields[1])) <= slack)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 64), st.integers(0, 2**32), st.floats(0.01, 1.0))
def test_no_random_mask_beats_the_optimal_mask(n_modes, seed, tau):
    key = generate_key(n_modes, 0.2, substream(seed, 0))
    best = abs(masked_sums(key.coefficients, tau, optimal_mask(key)))
    for phases in substream(seed, 1).uniform(-math.pi, math.pi, (16, n_modes)):
        assert abs(masked_sums(key.coefficients, tau, PhaseMask(phases))) <= best * (1 + 1e-12)


_DOUBLES = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_DOUBLES, _DOUBLES), min_size=1, max_size=16),
       st.floats(0.0, 1.0, exclude_max=True))
def test_key_json_round_trip_gives_the_exact_doubles(pairs, l_over_L):
    key = ScatteringKey(np.array([complex(re, im) for re, im in pairs]), l_over_L)
    restored = ScatteringKey.from_dict(json.loads(jsonio.dumps(key.to_dict())))
    # tobytes tells -0.0 from 0.0, which == would not
    assert restored.coefficients.tobytes() == key.coefficients.tobytes()
    assert (restored.variance, restored.n_modes, restored.l_over_L) == (
        key.variance, len(pairs), key.l_over_L)


def test_key_json_roundtrip():
    from cvpuk import jsonio

    key = generate_key(32, 0.2, substream(19, 0))
    document = jsonio.dumps(key.to_dict())
    assert list(json.loads(document)) == ["l_over_L", "coefficients"]
    restored = ScatteringKey.from_dict(json.loads(document))
    assert np.array_equal(restored.coefficients, key.coefficients)
    assert restored.variance == key.variance
    assert restored.n_modes == 32
    assert restored.l_over_L == key.l_over_L
    assert jsonio.dumps(restored.to_dict()) == document
    document = key.to_dict()
    for field, value in (("l_over_L", "0.2"), ("l_over_L", True)):
        with pytest.raises(TypeError):
            ScatteringKey.from_dict(dict(document, **{field: value}))


def test_legacy_key_document_loads_to_an_equal_key():
    # key files written before the mode count was derived also hold
    # mode_count and target_mode; both are ignored, whatever they hold
    key = generate_key(32, 0.2, substream(19, 0))
    for legacy in ({"mode_count": 32, "target_mode": 5}, {"mode_count": 7, "target_mode": 0.5}):
        restored = ScatteringKey.from_dict({**legacy, **key.to_dict()})
        assert restored.coefficients.tobytes() == key.coefficients.tobytes()
        assert (restored.n_modes, restored.l_over_L) == (32, key.l_over_L)
        assert jsonio.dumps(restored.to_dict()) == jsonio.dumps(key.to_dict())


def test_key_fields_are_the_coefficients_and_l_over_L():
    key = generate_key(8, 0.2, substream(20, 0))
    assert [spec.name for spec in dataclasses.fields(key)] == ["coefficients", "l_over_L"]
    assert key.n_modes == key.coefficients.size == 8
    for coefficients in (np.zeros((2, 2)), np.zeros(0), np.zeros(()), [math.nan]):
        with pytest.raises(ValueError):
            ScatteringKey(coefficients, 0.2)


def test_key_from_dict_rejects_malformed_pairs():
    document = generate_key(4, 0.2, substream(21, 0)).to_dict()
    pairs = document["coefficients"]
    for bad, error in (
        ([1.0], ValueError),
        ([1.0, 2.0, 3.0], ValueError),
        (0.5, ValueError),
        ([True, 0.0], TypeError),
        ([0.0, "1"], TypeError),
        ([math.nan, 0.0], ValueError),
        ([0.0, math.inf], ValueError),
    ):
        broken = dict(document, coefficients=pairs[:2] + [bad] + pairs[3:])
        with pytest.raises(error, match=r"coefficients\[2\]"):
            ScatteringKey.from_dict(broken)
