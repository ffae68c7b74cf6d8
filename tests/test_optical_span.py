"""Property tests: the optical span against the time-domain chain it replaces.

The span is ``compose`` and ``receive``, one frame sent and received as
the harness does it (``span_frame.span_captures``).

The reference below runs the stages of ``optical_reference.py``, the chain
the harness used to run, with two changes:

* The WDM mux mixes each channel with the exact phase
  ``exp(2j*pi*((k*n) mod N)/N)`` of its laser's bin ``k``.  Mixing with
  ``exp(2j*pi*offset*t)`` reaches ~1.7e6 rad on a full frame and carries
  ~1e-10 relative error, more than the 1e-12 bound checked here.
* The noise is full-band and added in the time domain, but built from its
  spectrum so that it shares the span's draw: the bins where some
  receiver's interleaver-times-demultiplexer amplitude exceeds float64's
  epsilon hold ``sqrt(N)*sigma*(re + 1j*im)`` from
  ``default_rng(seed).standard_normal(2*m)``, and the other bins are
  filled from a second generator.  The span draws no noise there, so the
  1e-12 bound also shows that nothing it leaves out reaches a capture.
"""

import numpy as np
import pytest

from dmtlink import _spectral
from dmtlink.channel import OSNR_REFERENCE_BANDWIDTH, LinkConfig
from dmtlink.core import RealWaveform
from optical_reference import (
    OpticalField,
    fiber_cd,
    mzm,
    optical_filter,
    photodiode,
    rx_frontend,
)
from span_frame import span_captures

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

N = 2048  # one 8 ns frame on the 256 GS/s grid of a 4-slot comb
DAC_RATE = 64e9


def _full_band_noise(link, rx_channels, noise_seed, power):
    """Time-domain noise whose in-band bins follow the span's draw."""
    rate = link.grid_rate
    freq = np.fft.fftfreq(N, d=1.0 / rate)
    passed = np.zeros(N, dtype=bool)
    for ch in rx_channels:
        port = link.interleaver(ch).amplitude_response(freq)
        port *= link.demux(ch).amplitude_response(freq)
        passed |= port > np.finfo(np.float64).eps
    psd = power / (10 ** (link.osnr_db / 10.0) * OSNR_REFERENCE_BANDWIDTH)
    sigma = np.sqrt(psd * rate / 2.0)
    spectrum = np.empty(N, dtype=complex)
    for bins, rng in (
        (passed, np.random.default_rng(noise_seed)),
        (~passed, np.random.default_rng([noise_seed, 1])),
    ):
        m = np.count_nonzero(bins)
        draws = rng.standard_normal(2 * m)
        spectrum[bins] = np.sqrt(N) * sigma * (draws[:m] + 1j * draws[m:])
    return np.fft.ifft(spectrum)


def _reference_span(link, drives, rx_channels, noise_seed):
    rate = link.grid_rate
    duration = N / rate
    composite = np.zeros(N, dtype=complex)
    cut_power = None
    for ch, drive in drives.items():
        field = mzm(drive, drive_swing=link.drive_swing, bias_margin=link.mzm_bias_margin)
        k = round((float(link.channel_centers[ch]) + link.detuning) * duration)
        field = OpticalField(field.samples, rate, center_offset=k / duration)
        field = optical_filter(field, link.interleaver(ch))
        if ch == link.cut_index:
            cut_power = field.power()
        composite += field.samples * np.exp(2j * np.pi * ((k * np.arange(N)) % N) / N)
    field = fiber_cd(
        OpticalField(composite, rate),
        link.total_length_km,
        link.dispersion_ps_nm_km,
        link.center_wavelength_nm,
    )
    if np.isfinite(link.osnr_db):
        power = field.power() if cut_power is None else cut_power
        noise = _full_band_noise(link, rx_channels, noise_seed, power)
        field = OpticalField(field.samples + noise, rate)
    captures = {}
    for ch in rx_channels:
        field_rx = optical_filter(optical_filter(field, link.interleaver(ch)), link.demux(ch))
        filtered = rx_frontend(photodiode(field_rx), link.rx_bandwidth, out_rate=rate)
        n_out = _spectral.output_length(N, rate, link.rx_sample_rate)
        captures[ch] = _spectral.resample_real(filtered.samples, n_out)
    return captures


@st.composite
def _spans(draw):
    lit = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    reach = draw(st.just(0.0) | st.floats(1.0, 300.0))
    link = LinkConfig(
        n_channels=4,
        active_channels=tuple(sorted(lit)),
        channel_under_test=draw(st.integers(0, 3)),  # may be dark: OSNR refers to the comb
        detuning=draw(st.floats(-21e9, 21e9)),  # the widest the 256 GS/s grid fits
        span_lengths_km=(reach,) if reach > 0 else (),
        osnr_db=draw(st.just(np.inf) | st.floats(10.0, 50.0)),
    )
    rx = draw(st.lists(st.sampled_from(sorted(lit)), min_size=1, unique=True))
    return link, rx, draw(st.integers(0, 2**32 - 1))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(_spans())
def test_span_matches_time_domain_chain(case):
    link, rx, seed = case
    rng = np.random.default_rng(seed)
    drives = {
        ch: RealWaveform(
            _spectral.resample_real(rng.standard_normal(N // 4), N), link.grid_rate
        )
        for ch in link.lit_channels
    }
    got = span_captures(link, drives, rx, seed, occupied_bandwidth=DAC_RATE)
    want = _reference_span(link, drives, rx, seed)
    assert sorted(got) == sorted(want)
    for ch, samples in want.items():
        assert got[ch].sample_rate == link.rx_sample_rate
        assert np.max(np.abs(got[ch].samples - samples)) <= 1e-12 * np.max(np.abs(samples))
