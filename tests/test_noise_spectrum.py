"""The optical span's noise rule: its spectrum, drawn over the bins a receiver passes.

``receive`` adds the DFT of white circular noise directly, with no
transform: ``sqrt(n)*sigma*(re + 1j*im)`` per bin, from the unit draws
``noise_draws`` makes, one ``default_rng(seed).standard_normal(2*m)`` over
the ``m`` bins where some receiving channel's port exceeds float64's
epsilon, in ascending order.
"""

from dataclasses import replace

import numpy as np
import pytest

from dmtlink.channel import (
    OSNR_REFERENCE_BANDWIDTH,
    LinkConfig,
    _add_osnr_noise,
    _mean_power,
    _span_operators,
    noise_draws,
)

LINK = LinkConfig(n_channels=4, active_channels=(0, 1, 2), channel_under_test=1,
                  span_lengths_km=(80.0,))
EPS = np.finfo(np.float64).eps


def _bins(band):
    return np.concatenate([np.arange(start, stop) for start, stop in band])


def _sigma(power, osnr_db, rate):
    psd = power / (10 ** (osnr_db / 10.0) * OSNR_REFERENCE_BANDWIDTH)
    return np.sqrt(psd * rate / 2.0)


@pytest.mark.parametrize("rx", [[1], [0, 2], [2, 1, 0]])
def test_in_band_bins_follow_the_draw_bit_for_bit(rx):
    n, seed, osnr_db, power = 2048, 17, 27.0, 0.3
    operators = _span_operators(LINK, n)
    passed = np.zeros(n, dtype=bool)
    for ch in rx:
        passed |= operators.receive_port(ch) > EPS
    in_band = np.flatnonzero(passed)
    band = operators.noise_band(rx)
    assert np.array_equal(_bins(band), in_band)

    spectrum = np.zeros(n, dtype=np.complex128)
    unit = noise_draws(LINK, n, rx, seed)
    _add_osnr_noise(spectrum, band, LINK.grid_rate, osnr_db, power, unit)
    m = in_band.size
    draws = np.random.default_rng(seed).standard_normal(2 * m)
    sigma = _sigma(power, osnr_db, LINK.grid_rate)
    assert np.array_equal(spectrum[in_band], np.sqrt(n) * sigma * (draws[:m] + 1j * draws[m:]))
    assert not np.any(spectrum[~passed])


@pytest.mark.parametrize("osnr_db", [15.0, 30.0, 45.0])
def test_unit_carrier_osnr_tracks_the_request(osnr_db):
    """The noise density over the band, in 12.5 GHz, against a unit carrier."""
    n, rate = 2**16, LINK.grid_rate
    carrier = np.zeros(n, dtype=np.complex128)
    carrier[0] = n  # the DFT of a unit field
    band = _span_operators(LINK, n).noise_band([1])
    spectrum = carrier.copy()
    draws = noise_draws(LINK, n, [1], 3)
    _add_osnr_noise(spectrum, band, rate, osnr_db, _mean_power(carrier), draws)
    noise = (spectrum - carrier)[_bins(band)]
    noise_power = np.vdot(noise, noise).real / n**2
    density = noise_power / (noise.size * rate / n)
    measured_db = 10 * np.log10(1.0 / (density * OSNR_REFERENCE_BANDWIDTH))
    assert abs(measured_db - osnr_db) <= 0.1


def test_cached_band_is_read_only_and_the_union_of_its_receivers():
    n = 2048
    operators = _span_operators(replace(LINK, span_lengths_km=(40.0,)), n)
    singles = [set(_bins(operators.noise_band([ch]))) for ch in (0, 1, 2)]
    both = operators.noise_band([0, 2])
    assert set(_bins(both)) == singles[0] | singles[2]
    assert set(_bins(operators.noise_band([0, 1, 2]))) == set.union(*singles)
    assert operators.noise_band([2, 0]) is both  # one entry per receive set
    assert np.all(both[:, 0] < both[:, 1]) and np.all(both[1:, 0] > both[:-1, 1])
    with pytest.raises(ValueError):
        both[0, 0] = 0
