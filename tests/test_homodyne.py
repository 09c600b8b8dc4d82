import cmath
import json
import math
import warnings

import mpmath
import numpy as np
import pytest

from cvpuk import (
    HALF_PI,
    CampaignConfig,
    CrpDatabase,
    HomodyneChannel,
    ProbeSet,
    Response,
    VerificationConfig,
    enroll_exact,
    enroll_sampled,
    generate_key,
    p_in_theoretical,
    substream,
    verify,
)
from cvpuk import experiments
from cvpuk.homodyne import quadrature_means
from cvpuk.protocol import _bins
from cvpuk.scattering import masked_sums

# frozen with mpmath at 40 digits: erf(1/sqrt(2)) and erf(sqrt(2))
ERF_ONE_OVER_SQRT2 = 0.6826894921370859
ERF_SQRT2 = 0.9544997361036416


def _channel(efficiency=0.55, ratio=2.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return HomodyneChannel.from_delta_ratio(efficiency, ratio)


def test_probe_state_amplitude():
    # probe k of a set is sqrt(mean_photons) * exp(i * 2 pi k / size)
    amplitude = ProbeSet(11, 2500.0).amplitudes()[3]
    assert abs(amplitude) ** 2 == pytest.approx(2500.0, rel=1e-12)
    assert math.atan2(amplitude.imag, amplitude.real) == pytest.approx(2 * math.pi * 3 / 11)


def test_probe_set_enumeration():
    probes = ProbeSet(11, 2500.0)
    amplitudes = probes.amplitudes()
    assert amplitudes.shape == (11,)
    expected = [50.0 * cmath.exp(2j * math.pi * k / 11) for k in range(11)]
    assert np.allclose(amplitudes, expected, rtol=1e-15, atol=1e-12)


def test_probe_set_requires_more_than_two_states():
    with pytest.raises(ValueError):
        ProbeSet(2, 100.0)
    with pytest.raises(ValueError):
        ProbeSet(5, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ProbeSet(5, bad)


def test_quadrature_mean_protocol_angles():
    means = quadrature_means(np.array([1 + 1j, 0.0]))
    assert means.tolist() == [[math.sqrt(2.0), math.sqrt(2.0)], [0.0, 0.0]]
    assert Response.from_amplitude(1 + 1j) == Response(math.sqrt(2.0), math.sqrt(2.0))


def _quadrature_mean(amplitude, theta):
    """The quadrature at local-oscillator phase theta: sqrt(2) Re(a exp(-i theta))."""
    return math.sqrt(2.0) * (amplitude * cmath.exp(-1j * theta)).real


def test_quadrature_mean_general_angle():
    # the general-angle formula at the two protocol angles gives (x, y)
    rng = substream(30, 0)
    for _ in range(50):
        amplitude = complex(rng.normal(), rng.normal())
        x, y = quadrature_means(np.array(amplitude)).tolist()
        assert x == pytest.approx(_quadrature_mean(amplitude, 0.0), abs=1e-12)
        assert y == pytest.approx(_quadrature_mean(amplitude, HALF_PI), abs=1e-12)


def _outcome_errors(stream, count):
    """``count`` single homodyne outcomes minus their means: a sampled
    enrollment at one sample per quadrature stores one outcome per cell."""
    channel = _channel(0.55, 2.0)
    key = generate_key(4, 0.2, substream(31, 2))
    probes = ProbeSet(count // 2, 2500.0)
    exact = enroll_exact(key, 0.8, probes, channel).centers
    sampled = enroll_sampled(key, 0.8, probes, channel, 1, substream(31, stream)).centers
    return channel, (sampled - exact).ravel()


def test_sample_quadrature_variance():
    _, errors = _outcome_errors(0, 1_000_000)
    assert float(np.var(errors)) == pytest.approx(1.0 / (2.0 * 0.55), rel=0.01)


def test_sample_quadrature_mean_recovery():
    channel, errors = _outcome_errors(1, 1_000_000)
    tolerance = 4.0 * channel.shot_noise / math.sqrt(1_000_000)
    assert abs(float(errors.mean())) <= tolerance


def _bins_of(centers, bin_width):
    """Stored bins of a database with the given centres and bin width."""
    probes = ProbeSet(len(centers), 1.0)
    key = generate_key(2, 0.2, substream(34, 0))
    exact = enroll_exact(key, 0.8, probes, _channel())
    database = CrpDatabase(0, exact.mask, centers, np.zeros(len(centers)), probes,
                           HomodyneChannel(0.55, bin_width), 0.8)
    _, lows, highs = _bins(key, database)
    return lows, highs


def test_bin_interval_examples():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a width of 2 is outside the bracket
        lows, highs = _bins_of([[3.0, 4.0]] * 3, 2.0)
    assert lows.tolist() == [[2.0, 3.0]] * 3 and highs.tolist() == [[4.0, 5.0]] * 3
    sigma = _channel().shot_noise
    lows, highs = _bins_of([[0.0, 0.0]] * 3, 2.0 * sigma)
    assert (lows == -sigma).all() and (highs == sigma).all()


def test_bin_interval_requires_positive_width():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            HomodyneChannel.from_delta_ratio(0.55, bad)
        with pytest.raises(ValueError):
            HomodyneChannel.from_dict({"efficiency": 0.55, "bin_width": bad})


def test_bin_center_equals_quadrature_mean():
    key = generate_key(16, 0.2, substream(32, 0))
    for probes in (ProbeSet(11, 2500.0), ProbeSet(7, 3.0)):
        database = enroll_exact(key, 0.8, probes, _channel())
        means, lows, highs = _bins(key, database)
        # an exactly enrolled key's bins are centred bitwise on its own means
        assert database.centers.tobytes() == means.tobytes()
        amplitudes = masked_sums(key.coefficients, 0.8, database.mask) * probes.amplitudes()
        for (x, y), low, high, amplitude in zip(means, lows, highs, amplitudes):
            assert Response(x, y) == Response.from_amplitude(amplitude)
            expected = [_quadrature_mean(amplitude, theta) for theta in (0.0, HALF_PI)]
            assert 0.5 * (low + high) == pytest.approx(expected, abs=1e-12)


class _Outcomes:
    """A generator stub for a traced verify: probe 0, quadrature x, and the
    given outcomes."""

    def __init__(self, outcomes):
        self.outcomes = np.array(outcomes)

    def integers(self, low, high, size):
        return np.zeros(size, dtype=int)

    def normal(self, means, sigma):
        return self.outcomes


def test_in_bin_closed_boundaries():
    # a traced session hits when its outcome lies in the closed bin
    key = generate_key(8, 0.2, substream(35, 0))
    channel = _channel()
    database = enroll_exact(key, 0.8, ProbeSet(3, 2500.0), channel)
    center = database.centers[0, 0]
    half = 0.5 * channel.bin_width
    low, high = center - half, center + half
    outcomes = [center, high, low, np.nextafter(high, np.inf), np.nextafter(low, -np.inf),
                center + 2.0 * half]
    report = verify(key, database, VerificationConfig(len(outcomes), 0.05, 0.05),
                    _Outcomes(outcomes), trace=True)
    hits = [hit for _, _, _, hit in report.session_trace]
    assert hits == [low <= outcome <= high for outcome in outcomes]
    assert hits == [True, True, True, False, False, False]


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


def test_channel_bracket_warning_names_the_caller():
    with pytest.warns(UserWarning) as record:
        HomodyneChannel(0.55, 5.0)
        HomodyneChannel.from_delta_ratio(0.55, 5.0)
    assert [w.filename for w in record] == [__file__, __file__]
    assert record[1].lineno == record[0].lineno + 1
    # built inside the package, the warning names the package line that built it
    with pytest.warns(UserWarning) as record:
        CampaignConfig(experiment_id="response_cloud", delta_over_sigma=5.0).channel()
    assert [w.filename for w in record] == [experiments.__file__]


def test_channel_json_roundtrip():
    from cvpuk import jsonio

    channel = _channel(0.55, 2.0)
    restored = HomodyneChannel.from_dict(json.loads(jsonio.dumps(channel.to_dict())))
    assert restored == channel


def test_empirical_in_bin_frequency_matches_p_in():
    # both quadratures converge to the same in-bin probability
    channel = _channel(0.55, 2.0)
    expected = p_in_theoretical(channel)
    response = Response.from_amplitude(3.0 + 4.0j)
    draws = 200_000
    for stream, mean in ((0, response.x), (1, response.y)):
        rng = substream(33, stream)
        outcomes = rng.normal(mean, channel.shot_noise, size=draws)
        low, high = mean - 0.5 * channel.bin_width, mean + 0.5 * channel.bin_width
        frequency = float(((outcomes >= low) & (outcomes <= high)).mean())
        tolerance = 3.0 * math.sqrt(expected * (1.0 - expected) / draws)
        assert abs(frequency - expected) <= tolerance
