import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvpuk import (
    DegenerateKeyError,
    PhaseMask,
    ScatteringKey,
    enhancement,
    generate_key,
    optimal_mask,
    scattered_amplitude,
    substream,
    wrap_phase,
)
from cvpuk import jsonio
from cvpuk.adversary import false_key_sums
from cvpuk.scattering import masked_sums


def test_generated_variance_matches_parameters():
    key = generate_key(256, 0.2, substream(1, 0))
    assert key.variance == 0.003125
    assert key.mode_count == 256
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
                       match="l_over_L" if mode_count == 4 else "mode_count"):
        generate_key(mode_count, l_over_L, substream(3, 0))


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


def test_uniform_illumination_values():
    # uniform illumination couples every mode with the real amplitude
    # sqrt(tau / n): a key reflecting one mode reads off that mode's value
    flat = PhaseMask(np.zeros(4))
    for mode in range(4):
        assert scattered_amplitude(_unit_key(np.eye(4)[mode]), 1.0, flat, 1.0) == 0.5

    flat = PhaseMask(np.zeros(256))
    single_mode = scattered_amplitude(_unit_key(np.eye(256)[0]), 0.8, flat, 1.0)
    assert abs(single_mode) ** 2 == pytest.approx(0.003125, rel=1e-12)
    every_mode = scattered_amplitude(_unit_key(np.ones(256)), 0.8, flat, 1.0)
    assert abs(abs(every_mode) ** 2 / 256 - 0.8) <= 1e-12

    assert scattered_amplitude(_unit_key([1.0]), 0.49, PhaseMask(np.zeros(1)), 1.0) == 0.7


@pytest.mark.parametrize(
    "mode_count,tau",
    [(0, 0.5), (4, 0.0), (4, 1.2), (4, -0.1), (4, math.nan), (4, math.inf)],
)
def test_uniform_illumination_rejects_bad_parameters(mode_count, tau):
    # a coupling needs at least one mode, which every key has, and a
    # finite throughput tau in (0, 1]
    with pytest.raises(ValueError):
        key = generate_key(mode_count, 0.2, substream(21, 0))
        scattered_amplitude(key, tau, PhaseMask(np.zeros(mode_count)), 1.0)


@pytest.mark.parametrize("tau", [0.0, 1.2, math.nan, math.inf, True,
                                 pytest.param("0.8", id="'0.8'")])
def test_every_tau_entry_point_rejects_bad_tau(tau):
    key = generate_key(4, 0.2, substream(22, 0))
    mask = PhaseMask(np.zeros(4))
    with pytest.raises((TypeError, ValueError), match="tau"):
        optimal_mask(key, tau)
    with pytest.raises((TypeError, ValueError), match="tau"):
        enhancement(key, tau, mask, 10.0)
    with pytest.raises((TypeError, ValueError), match="tau"):
        false_key_sums(4, 0.2, tau, 2, substream(22, 1))


def test_scattered_amplitude_zero_key():
    key = ScatteringKey(np.zeros(5, dtype=complex), 0.0)
    tau = 0.8
    mask = PhaseMask(np.linspace(-3, 3, 5))
    assert scattered_amplitude(key, tau, mask, 2.0 + 1.0j) == 0


def test_scattered_amplitude_phase_cancellation():
    key = ScatteringKey(np.array([0.1 * np.exp(1j * math.pi / 3)]), 0.2)
    tau = 0.25
    mask = PhaseMask(np.array([-math.pi / 3]))
    amplitude = scattered_amplitude(key, tau, mask, 2.0)
    assert amplitude.real == pytest.approx(0.1, rel=1e-12)
    assert abs(amplitude.imag) < 1e-15


def test_scattered_amplitude_shape_mismatch():
    key = generate_key(4, 0.2, substream(5, 0))
    for wrong_length in (3, 5):
        with pytest.raises(ValueError):
            scattered_amplitude(key, 0.8, PhaseMask(np.zeros(wrong_length)), 1.0)


def test_linearity_exact_for_binary_scalings():
    key = generate_key(16, 0.2, substream(6, 0))
    tau = 0.8
    mask = PhaseMask(substream(6, 1).uniform(-math.pi, math.pi, 16))
    base = 1.3 - 0.4j
    reference = scattered_amplitude(key, tau, mask, base)
    for scaling in (2.0, 0.5, -1.0, 2.0j):
        assert scattered_amplitude(key, tau, mask, scaling * base) == scaling * reference


def test_linearity_close_for_general_scalings():
    key = generate_key(16, 0.2, substream(7, 0))
    tau = 0.8
    mask = PhaseMask(substream(7, 1).uniform(-math.pi, math.pi, 16))
    base = 0.7 + 0.2j
    reference = scattered_amplitude(key, tau, mask, base)
    for scaling in (1.7 - 2.2j, -0.3 + 0.9j):
        scaled = scattered_amplitude(key, tau, mask, scaling * base)
        assert scaled == pytest.approx(scaling * reference, rel=1e-12)


def test_optimal_mask_single_mode():
    key = ScatteringKey(np.array([0.3 * np.exp(1.1j)]), 0.2)
    tau = 0.25
    mask = optimal_mask(key, tau)
    assert mask.phases[0] == pytest.approx(-1.1, rel=1e-12)


def test_optimal_mask_is_global_optimum():
    key = generate_key(32, 0.2, substream(8, 0))
    tau = 0.8
    best = abs(scattered_amplitude(key, tau, optimal_mask(key, tau), 1.0))
    rng = substream(8, 1)
    for _ in range(1000):
        mask = PhaseMask(rng.uniform(-math.pi, math.pi, 32))
        assert abs(scattered_amplitude(key, tau, mask, 1.0)) < best


def test_optimal_mask_degenerate_key():
    key = ScatteringKey(np.zeros(3, dtype=complex), 0.0)
    with pytest.raises(DegenerateKeyError):
        optimal_mask(key, 0.8)


def test_optimal_mask_mean_enhancement():
    rng = substream(9, 0)
    tau = 0.8
    gains = []
    for _ in range(200):
        key = generate_key(256, 0.2, rng)
        gains.append(enhancement(key, tau, optimal_mask(key, tau), 2000.0))
    expected = math.pi * 256 / 4.0
    assert abs(float(np.mean(gains)) - expected) <= 0.10 * expected


def test_enhancement_unoptimized_ensemble_mean_is_one():
    rng = substream(14, 0)
    tau = 0.8
    mask = PhaseMask(np.zeros(64))
    gains = [
        enhancement(generate_key(64, 0.2, rng), tau, mask, 500.0)
        for _ in range(10_000)
    ]
    assert abs(float(np.mean(gains)) - 1.0) <= 0.05


def test_enhancement_single_mode():
    key = ScatteringKey(np.array([0.25 * np.exp(0.4j)]), 0.2)
    tau = 0.5
    gain = enhancement(key, tau, optimal_mask(key, tau), 100.0)
    assert gain == pytest.approx(abs(key.coefficients[0]) ** 2 / key.variance, rel=1e-12)


def test_enhancement_independent_of_probe_strength():
    key = generate_key(32, 0.2, substream(15, 0))
    tau = 0.8
    mask = optimal_mask(key, tau)
    assert enhancement(key, tau, mask, 1.0) == pytest.approx(
        enhancement(key, tau, mask, 12345.0), rel=1e-12
    )


def test_enhancement_errors():
    key = generate_key(4, 0.2, substream(16, 0))
    tau = 0.8
    mask = PhaseMask(np.zeros(4))
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            enhancement(key, tau, mask, bad)


def test_amplitude_squared_matches_enhancement():
    # photon number in the target mode must equal the squared mean field
    key = generate_key(121, 0.2, substream(17, 0))
    tau = 0.8
    mask = optimal_mask(key, tau)
    mu_p = 2500.0
    mu_c = 0.8 * mu_p
    amplitude = scattered_amplitude(key, tau, mask, math.sqrt(mu_p))
    gain = enhancement(key, tau, mask, mu_c)
    assert abs(amplitude) ** 2 == pytest.approx(gain * key.variance * mu_c, rel=1e-12)


def test_enhancement_scaling_slope():
    mode_counts = (16, 64, 121, 256)
    rng = substream(18, 0)
    means = []
    for n_modes in mode_counts:
        tau = 0.8
        gains = []
        for _ in range(100):
            key = generate_key(n_modes, 0.2, rng)
            gains.append(enhancement(key, tau, optimal_mask(key, tau), 100.0))
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
def test_scattered_amplitude_is_linear_in_the_probe_amplitude(n_modes, seed, tau, a, b):
    key = generate_key(n_modes, 0.2, substream(seed, 0))
    mask = PhaseMask(substream(seed, 1).uniform(-math.pi, math.pi, n_modes))
    unit = scattered_amplitude(key, tau, mask, 1.0)
    fields = scattered_amplitude(key, tau, mask, np.array([a, b, a + b]))
    # homogeneous exactly: the field is the masked sum times the amplitude
    assert fields[0] == unit * a and fields[1] == unit * b
    assert scattered_amplitude(key, tau, mask, a) == fields[0]
    # additive up to the rounding of a + b and of the three products, which
    # is absolute, not relative, among subnormal fields
    slack = 1e-12 * abs(unit) * (abs(a) + abs(b)) + np.finfo(float).tiny
    assert abs(fields[2] - (fields[0] + fields[1])) <= slack


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 64), st.integers(0, 2**32), st.floats(0.01, 1.0))
def test_no_random_mask_beats_the_optimal_mask(n_modes, seed, tau):
    key = generate_key(n_modes, 0.2, substream(seed, 0))
    best = abs(masked_sums(key.coefficients, tau, optimal_mask(key, tau)))
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
    assert (restored.variance, restored.mode_count, restored.l_over_L) == (
        key.variance, len(pairs), key.l_over_L)


def test_key_json_roundtrip():
    from cvpuk import jsonio

    key = generate_key(32, 0.2, substream(19, 0))
    document = jsonio.dumps(key.to_dict())
    assert list(json.loads(document)) == ["l_over_L", "coefficients"]
    restored = ScatteringKey.from_dict(json.loads(document))
    assert np.array_equal(restored.coefficients, key.coefficients)
    assert restored.variance == key.variance
    assert restored.mode_count == 32
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
        assert (restored.mode_count, restored.l_over_L) == (32, key.l_over_L)
        assert jsonio.dumps(restored.to_dict()) == jsonio.dumps(key.to_dict())


def test_key_fields_are_the_coefficients_and_l_over_L():
    key = generate_key(8, 0.2, substream(20, 0))
    assert [spec.name for spec in dataclasses.fields(key)] == ["coefficients", "l_over_L"]
    assert key.mode_count == key.coefficients.size == 8
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
