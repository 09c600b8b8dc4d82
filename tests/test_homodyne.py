import json
import math
import warnings

import mpmath
import numpy as np
import pytest

from cvpuk import (
    HALF_PI,
    HomodyneChannel,
    ProbeSet,
    ProbeState,
    Response,
    bin_interval,
    in_bin,
    p_in_theoretical,
    quadrature_mean,
    sample_quadrature,
    substream,
)

# frozen with mpmath at 40 digits: erf(1/sqrt(2)) and erf(sqrt(2))
ERF_ONE_OVER_SQRT2 = 0.6826894921370859
ERF_SQRT2 = 0.9544997361036416


def _channel(efficiency=0.55, ratio=2.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return HomodyneChannel.from_delta_ratio(efficiency, ratio)


def test_probe_state_amplitude():
    state = ProbeState(2500.0, 0.7, index=3)
    assert abs(state.amplitude) ** 2 == pytest.approx(2500.0, rel=1e-12)
    assert math.atan2(state.amplitude.imag, state.amplitude.real) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        ProbeState(0.0, 0.0)


def test_probe_set_enumeration():
    probes = ProbeSet(11, 2500.0)
    states = probes.states()
    assert len(states) == 11
    for k, state in enumerate(states):
        assert state.index == k
        assert state.phase == pytest.approx(2 * math.pi * k / 11)
        assert state.mean_photons == 2500.0
    amplitudes = probes.amplitudes()
    assert np.allclose(
        amplitudes, [s.amplitude for s in states], rtol=1e-15, atol=1e-12
    )


def test_probe_set_requires_more_than_two_states():
    with pytest.raises(ValueError):
        ProbeSet(2, 100.0)
    with pytest.raises(ValueError):
        ProbeSet(5, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ProbeSet(5, bad)
        with pytest.raises(ValueError):
            ProbeState(bad, 0.0)


def test_probe_set_index_bounds():
    probes = ProbeSet(5, 10.0)
    with pytest.raises(ValueError):
        probes.state(5)
    with pytest.raises(ValueError):
        probes.state(-1)


def test_quadrature_mean_protocol_angles():
    assert quadrature_mean(1 + 1j, 0.0) == math.sqrt(2.0)
    assert quadrature_mean(1 + 1j, HALF_PI) == math.sqrt(2.0)
    assert quadrature_mean(0.0, 0.3) == 0.0


def test_quadrature_mean_general_angle():
    rng = substream(30, 0)
    for _ in range(50):
        amplitude = complex(rng.normal(), rng.normal())
        theta = rng.uniform(-math.pi, math.pi)
        expected = math.sqrt(2.0) * (amplitude * np.exp(-1j * theta)).real
        assert quadrature_mean(amplitude, theta) == pytest.approx(expected, abs=1e-12)


def _draw(mean, channel, rng, count):
    return np.array([sample_quadrature(mean, channel, rng) for _ in range(count)])


def test_sample_quadrature_variance():
    channel = _channel(0.55, 2.0)
    draws = _draw(0.0, channel, substream(31, 0), 1_000_000)
    assert float(np.var(draws)) == pytest.approx(1.0 / (2.0 * 0.55), rel=0.01)


def test_sample_quadrature_mean_recovery():
    channel = _channel(0.55, 2.0)
    draws = _draw(35.5, channel, substream(31, 1), 1_000_000)
    tolerance = 4.0 * channel.shot_noise / math.sqrt(1_000_000)
    assert abs(float(draws.mean()) - 35.5) <= tolerance


def test_bin_interval_examples():
    assert bin_interval(Response(3.0, 4.0), 0.0, 2.0) == (2.0, 4.0)
    assert bin_interval(Response(3.0, 4.0), HALF_PI, 2.0) == (3.0, 5.0)
    sigma = _channel().shot_noise
    low, high = bin_interval(Response(0.0, 0.0), 0.7, 2.0 * sigma)
    assert low == -sigma and high == sigma


def test_bin_interval_requires_positive_width():
    with pytest.raises(ValueError):
        bin_interval(Response(1.0, 0.0), 0.0, 0.0)


def test_bin_center_equals_quadrature_mean():
    rng = substream(32, 0)
    for _ in range(50):
        amplitude = complex(rng.normal(), rng.normal())
        response = Response.from_amplitude(amplitude)
        for theta in (0.0, HALF_PI):
            low, high = bin_interval(response, theta, 2.0)
            center = 0.5 * (low + high)
            assert center == pytest.approx(quadrature_mean(amplitude, theta), abs=1e-12)
            # the stored projection is bitwise the quadrature mean
            assert response.quadrature_projection(theta) == quadrature_mean(amplitude, theta)


def test_in_bin_closed_boundaries():
    response = Response(3.0, 4.0)
    assert in_bin(3.0, response, 0.0, 2.0)
    assert in_bin(4.0, response, 0.0, 2.0)
    assert in_bin(2.0, response, 0.0, 2.0)
    assert not in_bin(5.0, response, 0.0, 2.0)
    assert not in_bin(1.999999, response, 0.0, 2.0)


def test_p_in_frozen_values():
    assert abs(p_in_theoretical(_channel(0.55, 2.0)) - ERF_ONE_OVER_SQRT2) < 1e-12
    assert abs(p_in_theoretical(_channel(0.55, 4.0)) - ERF_SQRT2) < 1e-12
    assert p_in_theoretical(_channel(0.55, 1e-9)) < 1e-9


def test_p_in_efficiency_independent():
    # only the ratio delta/sigma enters
    assert p_in_theoretical(_channel(0.9, 2.0)) == pytest.approx(
        p_in_theoretical(_channel(0.2, 2.0)), rel=1e-12
    )


def test_p_in_strictly_monotonic_in_ratio():
    values = [p_in_theoretical(_channel(0.55, r)) for r in (0.5, 1.0, 2.0, 3.0, 3.9, 5.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_p_in_matches_high_precision_oracle():
    mpmath.mp.dps = 40
    for ratio in np.linspace(0.1, 6.0, 25):
        channel = _channel(0.55, float(ratio))
        argument = mpmath.mpf(channel.bin_width) / (
            2 * mpmath.sqrt(2) * mpmath.mpf(channel.shot_noise)
        )
        oracle = float(mpmath.erf(argument))
        assert abs(p_in_theoretical(channel) - oracle) <= 1e-10


def test_channel_shot_noise_consistency():
    channel = _channel(0.55, 2.0)
    assert abs(channel.shot_noise - 1.0 / math.sqrt(2.0 * 0.55)) <= 1e-12
    assert channel.bin_width == pytest.approx(2.0 * channel.shot_noise, rel=1e-15)


def test_channel_validation():
    with pytest.raises(ValueError):
        HomodyneChannel(0.0, 1.0)
    with pytest.raises(ValueError):
        HomodyneChannel(1.2, 1.0)
    with pytest.raises(ValueError):
        HomodyneChannel(0.5, 0.0)
    with pytest.raises(ValueError):
        HomodyneChannel(0.5, -1.0)


def test_channel_bracket_warnings():
    sigma = 1.0 / math.sqrt(2.0 * 0.55)
    with pytest.warns(UserWarning):
        HomodyneChannel(0.55, 1.9 * sigma)
    with pytest.warns(UserWarning):
        HomodyneChannel(0.55, 4.0 * sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        HomodyneChannel(0.55, 2.0 * sigma)
        HomodyneChannel(0.55, 3.99 * sigma)


def test_channel_json_roundtrip():
    from cvpuk import jsonio

    channel = _channel(0.55, 2.0)
    restored = HomodyneChannel.from_dict(json.loads(jsonio.dumps(channel.to_dict())))
    assert restored == channel


def test_empirical_in_bin_frequency_matches_p_in():
    # both quadratures converge to the same in-bin probability
    channel = _channel(0.55, 2.0)
    expected = p_in_theoretical(channel)
    amplitude = 3.0 + 4.0j
    response = Response.from_amplitude(amplitude)
    draws = 200_000
    for stream, theta in ((0, 0.0), (1, HALF_PI)):
        rng = substream(33, stream)
        mean = quadrature_mean(amplitude, theta)
        outcomes = rng.normal(mean, channel.shot_noise, size=draws)
        low, high = bin_interval(response, theta, channel.bin_width)
        frequency = float(((outcomes >= low) & (outcomes <= high)).mean())
        tolerance = 3.0 * math.sqrt(expected * (1.0 - expected) / draws)
        assert abs(frequency - expected) <= tolerance
