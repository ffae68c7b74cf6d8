"""The optical span's noise rule: its spectrum, drawn over the bins a receiver passes.

``receive`` adds the DFT of white circular noise directly, with no
transform: ``sqrt(n)*sigma*(re + 1j*im)`` per bin, from the unit draws of
one ``default_rng(seed).standard_normal(2*m)`` over the ``m`` bins where
some receiving channel's port exceeds float64's epsilon, in ascending
order, which ``_add_noise`` draws in blocks where they land.
"""

from dataclasses import replace

import numpy as np
import pytest

import dmtlink.channel as channel_mod
from dmtlink import _spectral
from dmtlink.channel import (
    OSNR_REFERENCE_BANDWIDTH,
    LinkConfig,
    _add_noise,
    _lay_window,
    _mean_power,
    _noise_scale,
    _smooth_length,
    _span_operators,
    _window_runs,
)
from optical_reference import add_osnr_noise, full_grid_port, noise_draws

LINK = LinkConfig(n_channels=4, active_channels=(0, 1, 2), channel_under_test=1,
                  span_lengths_km=(80.0,))
EPS = np.finfo(np.float64).eps


def _bins(band):
    return np.concatenate([np.arange(start, stop) for start, stop in band])


def _add_osnr_noise(spectrum, band, rate, osnr_db, power, seed):
    """The noise ``receive`` adds to a composite: scaled unit draws on the identity run."""
    n = spectrum.size
    _add_noise(spectrum, seed, band, _noise_scale(n, rate, osnr_db, power), ((0, n, 0),))


def _sigma(power, osnr_db, rate):
    psd = power / (10 ** (osnr_db / 10.0) * OSNR_REFERENCE_BANDWIDTH)
    return np.sqrt(psd * rate / 2.0)


@pytest.mark.parametrize("rx", [[1], [0, 2], [2, 1, 0]])
def test_in_band_bins_follow_the_draw_bit_for_bit(rx):
    n, seed, osnr_db, power = 2048, 17, 27.0, 0.3
    operators = _span_operators(LINK, n)
    passed = np.zeros(n, dtype=bool)
    for ch in rx:
        passed |= full_grid_port(LINK, n, ch) > EPS
    in_band = np.flatnonzero(passed)
    band = operators.noise_band(rx)
    assert np.array_equal(_bins(band), in_band)

    spectrum = np.zeros(n, dtype=np.complex128)
    _add_osnr_noise(spectrum, band, LINK.grid_rate, osnr_db, power, seed)
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
    _add_osnr_noise(spectrum, band, rate, osnr_db, _mean_power(carrier), 3)
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


GRID_POINTS = 1_031_680  # one frame on the 256 GS/s composite grid
THREE_LIT = replace(LINK, span_lengths_km=(240.0,))
STREAM_CASES = {
    # name: (link, grid bins, receive set, block of draws or None for the default)
    "one_receiver": (replace(THREE_LIT, active_channels=(1,)), GRID_POINTS, [1], None),
    "three_receivers": (THREE_LIT, GRID_POINTS, [0, 1, 2], None),
    # 997-bin blocks split every band row, and none ends on a row's edge
    "three_receivers_small_blocks": (THREE_LIT, 30_016, [2, 0, 1], 997),
}


def _oracle_unit_spectrum(link, n, rx, seed):
    """The unit noise ``re + 1j * im`` on the full grid, from the one-shot draws."""
    band = _span_operators(link, n).noise_band(rx)
    bins = _bins(band)
    draws = noise_draws(link, n, rx, seed)
    unit = np.zeros(n, dtype=np.complex128)
    unit.real[bins], unit.imag[bins] = draws[: bins.size], draws[bins.size :]
    return unit


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_streamed_noise_is_the_one_shot_draw_bit_for_bit(name, monkeypatch):
    """``_add_noise`` draws its noise in blocks where it lands; the sum
    equals the one call ``standard_normal(2 * m)`` added in one pass."""
    link, n, rx, block = STREAM_CASES[name]
    if block is not None:
        monkeypatch.setattr(channel_mod, "_PORT_BLOCK", block)
    band = _span_operators(link, n).noise_band(rx)
    assert band[0, 0] == 0 and band[-1, 1] == n  # the band wraps through bin 0
    rng = np.random.default_rng(2)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got, want = start.copy(), start.copy()
    _add_osnr_noise(got, band, link.grid_rate, 31.0, 0.4, 23)
    add_osnr_noise(want, band, link.grid_rate, 31.0, 0.4, noise_draws(link, n, rx, 23))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_each_receiver_draws_its_noise_field_from_the_same_stream(name, monkeypatch):
    """``detect`` draws each receiver's unit noise onto its detection grid in
    one pass of the stream: it equals the one-shot draws laid there as the
    composite is laid (``_lay_window``), bit for bit."""
    link, n, rx, block = STREAM_CASES[name]
    if block is not None:
        monkeypatch.setattr(channel_mod, "_PORT_BLOCK", block)
    operators = _span_operators(link, n)
    band = operators.noise_band(rx)
    unit = _oracle_unit_spectrum(link, n, rx, 29)
    kept = _spectral.output_length(n, link.grid_rate, link.rx_sample_rate) // 2 + 1
    for ch in rx:
        start, width = operators.receive_window(ch)
        size = min(_smooth_length(max(width, kept) + kept), n)
        got = np.zeros(size, dtype=np.complex128)
        runs = _window_runs(n, size, start, width)
        _add_noise(got, 29, band, 1.0, runs)
        for a, b, to in runs:  # through the ports, as ``detect`` does
            at = (a - start) % n
            got[to : to + b - a] *= operators.receive_port(ch)[at : at + b - a]
        want = np.empty(size, dtype=np.complex128)
        _lay_window(want, unit, operators.receive_port(ch), start, width)
        assert np.array_equal(got, want), ch


def test_receive_passes_the_stream_once_and_a_seeded_detect_once_per_receiver(monkeypatch):
    """``receive`` adds the noise to the composite in one pass of the stream,
    before any receiver's grid is laid; only a seeded ``detect``, which keeps
    each receiver's noise field apart, passes it once per receiver."""
    passes = []
    unit_noise = channel_mod._unit_noise

    def counted(*args):
        passes.append(args)
        return unit_noise(*args)

    monkeypatch.setattr(channel_mod, "_unit_noise", counted)
    link, n, rx = replace(THREE_LIT, osnr_db=30.0), 30_016, [0, 1, 2]
    rng = np.random.default_rng(4)
    composite = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert len(channel_mod.receive(link, composite.copy(), None, rx, 7)) == len(rx)
    assert len(passes) == 1
    passes.clear()
    channel_mod.detect(link, composite, None, rx, 7)
    assert len(passes) == len(rx)
