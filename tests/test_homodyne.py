import cmath
import itertools
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
    VerificationConfig,
    enroll_exact,
    enroll_sampled,
    generate_key,
    p_in_theoretical,
    substream,
    verify,
)
from cvpuk.protocol import _cells
from cvpuk.scattering import masked_sums

# frozen with mpmath at 40 digits: erf(1/sqrt(2)) and erf(sqrt(2))
ERF_ONE_OVER_SQRT2 = 0.6826894921370859
ERF_SQRT2 = 0.9544997361036416


def _channel(efficiency=0.55, ratio=2.0):
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
    # under probe 0 of a one-photon set, whose amplitude is exactly 1
    means = ProbeSet(3, 1.0).responses(np.array([1 + 1j, 0.0]))[:, 0]
    assert means.tolist() == [[math.sqrt(2.0), math.sqrt(2.0)], [0.0, 0.0]]


def test_probe_responses_shapes():
    # a key's responses to all N probes, from one masked sum or a block of them
    probes = ProbeSet(7, 3.0)
    assert probes.responses(np.complex128(0.5 - 1j)).shape == (7, 2)
    assert probes.responses(np.full(3, 0.5 - 1j)).shape == (3, 7, 2)
    assert probes.responses(np.zeros(0, dtype=complex)).shape == (0, 7, 2)


def test_one_probe_response_is_its_column_of_the_full_response():
    # the campaign clouds form probe 0 alone; it must carry the full response's bits
    rng = substream(32, 0)
    probes = ProbeSet(11, 2500.0)
    block = rng.normal(0.0, 1.0, 512) * 10.0 ** rng.integers(-8, 8, 512) \
        + 1j * rng.normal(0.0, 1.0, 512)
    for sums in (block, block.reshape(16, 32), np.complex128(block[0]),
                 np.zeros(0, dtype=complex)):
        full = probes.responses(sums)
        for k in range(probes.size):
            one = probes.responses(sums, k)
            assert one.shape == full[..., k, :].shape
            assert one.tobytes() == full[..., k, :].tobytes(), k
    # an overflowing sum is refused for one probe as for all of them
    for k in (0, 5):
        with pytest.raises(ValueError, match="responses must be finite"):
            probes.responses(np.array([1.0, 1e307 + 1e307j]), k)


def _quadrature_mean(amplitude, theta):
    """The quadrature at local-oscillator phase theta: sqrt(2) Re(a exp(-i theta))."""
    return math.sqrt(2.0) * (amplitude * cmath.exp(-1j * theta)).real


def test_quadrature_mean_general_angle():
    # the general-angle formula at the two protocol angles gives (x, y)
    rng = substream(30, 0)
    for _ in range(50):
        amplitude = complex(rng.normal(), rng.normal())
        x, y = ProbeSet(3, 1.0).responses(np.complex128(amplitude))[0].tolist()
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


def _cells_of(key, database):
    """One key's quadrature means ``(N, 2)``, from its masked sum, and the
    stored bins' edges."""
    sums = masked_sums(key.coefficients[np.newaxis], database.setup_loss, database.mask)
    means, lows, highs = _cells(sums, database)
    return means[0], lows, highs


def _bins_of(centers, bin_width):
    """Stored bins of a database with the given centres and bin width."""
    probes = ProbeSet(len(centers), 1.0)
    key = generate_key(2, 0.2, substream(34, 0))
    exact = enroll_exact(key, 0.8, probes, _channel())
    database = CrpDatabase(exact.mask, centers, 0.0, probes,
                           HomodyneChannel(0.55, bin_width), 0.8)
    _, lows, highs = _cells_of(key, database)
    return lows, highs


def test_bin_interval_examples():
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
    for n_modes, probes in itertools.product((1, 2, 16, 121),
                                             (ProbeSet(11, 2500.0), ProbeSet(7, 3.0))):
        key = generate_key(n_modes, 0.2, substream(32, 0))
        database = enroll_exact(key, 0.8, probes, _channel())
        means, lows, highs = _cells_of(key, database)
        # an exactly enrolled key's bins are centred bitwise on its own means
        assert database.centers.tobytes() == means.tobytes()
        # the paper's field sum_j c_j sqrt(tau / n) e^{i phi_j} alpha_k, term by term
        total = sum(c * math.sqrt(0.8 / n_modes) * cmath.exp(1j * phi)
                    for c, phi in zip(key.coefficients.tolist(), database.mask.phases.tolist()))
        alphas = (math.sqrt(probes.mean_photons) * cmath.exp(2j * math.pi * k / probes.size)
                  for k in range(probes.size))
        for (x, y), low, high, alpha in zip(means, lows, highs, alphas):
            expected = [_quadrature_mean(total * alpha, theta) for theta in (0.0, HALF_PI)]
            assert [x, y] == pytest.approx(expected, rel=1e-12, abs=1e-9)
            assert 0.5 * (low + high) == pytest.approx([x, y], abs=1e-12)


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


def test_building_a_channel_gives_no_advice():
    # the bin-width advice comes from verification (protocol.public_p_in),
    # so no way of building a channel warns, inside the bracket or out
    sigma = 1.0 / math.sqrt(2.0 * 0.55)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ratio in (1.9, 4.0, 10.0):
            HomodyneChannel(0.55, ratio * sigma)
            HomodyneChannel.from_delta_ratio(0.55, ratio)
            HomodyneChannel.from_dict({"efficiency": 0.55, "bin_width": ratio * sigma})
            CampaignConfig(experiment_id="response_cloud", delta_over_sigma=ratio).channel()


def test_channel_json_roundtrip():
    from cvpuk import jsonio

    channel = _channel(0.55, 2.0)
    restored = HomodyneChannel.from_dict(json.loads(jsonio.dumps(channel.to_dict())))
    assert restored == channel


def test_empirical_in_bin_frequency_matches_p_in():
    # both quadratures converge to the same in-bin probability
    channel = _channel(0.55, 2.0)
    expected = p_in_theoretical(channel)
    response = [math.sqrt(2.0) * 3.0, math.sqrt(2.0) * 4.0]  # of the field 3 + 4i
    draws = 200_000
    for stream, mean in enumerate(response):
        rng = substream(33, stream)
        outcomes = rng.normal(mean, channel.shot_noise, size=draws)
        low, high = mean - 0.5 * channel.bin_width, mean + 0.5 * channel.bin_width
        frequency = float(((outcomes >= low) & (outcomes <= high)).mean())
        tolerance = 3.0 * math.sqrt(expected * (1.0 - expected) / draws)
        assert abs(frequency - expected) <= tolerance
