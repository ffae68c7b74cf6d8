"""A probe frame detected once and captured at several OSNRs.

``detect`` splits each receiver's detection into three terms of the noise
scale ``s``: ``|E_s + s E_w|^2 = A + 2 s B + s^2 C``.  ``capture`` combines
them on the kept bins at one OSNR.  The checks below hold those captures
to ``receive`` on the same frame and to the time-domain chain of
``tests/optical_reference.py``, bound what a point holds once the frame is
detected, and pin the front end's kept frequencies to ``np.fft.rfftfreq``.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import dmtlink.harness as harness_mod
from dmtlink import _spectral
from dmtlink.channel import (
    OSNR_REFERENCE_BANDWIDTH,
    LinkConfig,
    _kept_frequencies,
    _span_operators,
    capture,
    detect,
    receive,
)
from dmtlink.harness import ScenarioConfig
from optical_reference import (
    OpticalField,
    noise_draws,
    optical_filter,
    photodiode,
    rx_frontend,
)

OSNRS_DB = (10.0, 30.0, 50.0)
FRAMES = {
    # name: (lit channels, net rate, reach in km)
    "single_lit_89g6_50km": ((1,), 89.6e9, 50.0),
    "three_lit_56g_240km": ((0, 1, 2), 56e9, 240.0),
}
NOISE_SEED = 13


def _scenario(name, quantize_bits=None):
    lit, rate, km = FRAMES[name]
    link = LinkConfig(
        n_channels=4,
        active_channels=lit,
        channel_under_test=1,
        span_lengths_km=(km,),
        osnr_db=OSNRS_DB[-1],
        quantize_bits=quantize_bits,
    )
    return ScenarioConfig(link=link, net_rate=rate)


def _reference_noise(link, n, rx, seed, power):
    """Full-band time-domain noise putting ``power`` at ``link.osnr_db`` whose
    bins in the span's noise band hold the span's own draws at ``seed``
    (``noise_draws``), so that both chains see one noise; the other bins,
    where the span draws nothing, are filled from a second generator."""
    band = _span_operators(replace(link, osnr_db=np.inf), n).noise_band(rx)
    passed = np.zeros(n, dtype=bool)
    passed[np.concatenate([np.arange(start, stop) for start, stop in band])] = True
    psd = power / (10 ** (link.osnr_db / 10.0) * OSNR_REFERENCE_BANDWIDTH)
    scale = np.sqrt(n) * np.sqrt(psd * link.grid_rate / 2.0)
    spectrum = np.empty(n, dtype=np.complex128)
    outside = np.random.default_rng([seed, 1]).standard_normal(2 * np.count_nonzero(~passed))
    for bins, draws in ((passed, noise_draws(link, n, rx, seed)), (~passed, outside)):
        m = draws.size // 2
        spectrum[bins] = scale * (draws[:m] + 1j * draws[m:])
    return np.fft.ifft(spectrum)


def _reference_captures(link, composite, cut_power, rx, seed):
    """``optical_reference``'s chain on the composite at ``link.osnr_db``."""
    n = composite.size
    noise = _reference_noise(link, n, rx, seed, cut_power)
    noisy = OpticalField(np.fft.ifft(composite) + noise, link.grid_rate)
    captures = {}
    for ch in rx:
        passed = optical_filter(optical_filter(noisy, link.interleaver(ch)), link.demux(ch))
        captures[ch] = rx_frontend(
            photodiode(passed), link.rx_bandwidth, link.rx_sample_rate, link.quantize_bits
        )
    return captures


def _frame(sc):
    """A probe frame's composite, cut power and noise seed (that of ``_reference_noise``)."""
    lit = sc.link.lit_channels
    _known, composite, cut_power, _seed = harness_mod._send(
        sc, harness_mod._probe_plans(sc), 0, 4, lit
    )
    return composite, cut_power, NOISE_SEED


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_terms_match_receive_and_the_time_domain_chain(name):
    """At 10, 30 and 50 dB every capture from the terms lies within 1e-12 of
    the peak of ``receive``'s capture of the same frame and of the chain's."""
    sc = _scenario(name)
    lit = sc.link.lit_channels
    composite, cut_power, noise_seed = _frame(sc)
    want = {}
    for osnr_db in OSNRS_DB:
        link = replace(sc.link, osnr_db=osnr_db)
        want[osnr_db] = (
            receive(link, composite.copy(), cut_power, lit, noise_seed),
            _reference_captures(link, composite, cut_power, lit, NOISE_SEED),
        )
    detected = detect(sc.link, composite, cut_power, lit, noise_seed)
    for osnr_db in OSNRS_DB:
        got = capture(replace(sc.link, osnr_db=osnr_db), detected, lit)
        for ch in lit:
            for reference in want[osnr_db]:
                samples = reference[ch].samples
                peak = np.max(np.abs(samples))
                error = np.max(np.abs(got[ch].samples - samples))
                assert error <= 1e-12 * peak, (osnr_db, ch, error / peak)
            assert got[ch].sample_rate == sc.link.rx_sample_rate


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_quantized_terms_stay_within_one_step(name):
    """With an 8-bit ADC, every sample from the terms is within one step
    (LSB) of ``receive``'s; the few that differ sit on a rounding edge."""
    sc = _scenario(name, quantize_bits=8)
    lit = sc.link.lit_channels
    composite, cut_power, noise_seed = _frame(sc)
    want = {
        osnr_db: receive(
            replace(sc.link, osnr_db=osnr_db), composite.copy(), cut_power, lit, noise_seed
        )
        for osnr_db in OSNRS_DB
    }
    detected = detect(sc.link, composite, cut_power, lit, noise_seed)
    for osnr_db in OSNRS_DB:
        got = capture(replace(sc.link, osnr_db=osnr_db), detected, lit)
        for ch in lit:
            samples = want[osnr_db][ch].samples
            lsb = 8.0 * samples.std() / 2**8
            steps = np.abs(got[ch].samples - samples) / lsb
            assert np.max(steps) <= 1.0 + 1e-9, (osnr_db, ch)
            assert np.count_nonzero(steps > 0.5) <= 1e-3 * samples.size, (osnr_db, ch)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_infinite_osnr_captures_equal_receive(name):
    """With no noise, ``s = 0`` and the capture is ``A``'s: ``receive``'s, bit for bit."""
    sc = _scenario(name)
    link = replace(sc.link, osnr_db=np.inf)
    lit = link.lit_channels
    composite, cut_power, _seed = _frame(sc)
    want = receive(link, composite.copy(), cut_power, lit, None)
    detected = detect(link, composite, cut_power, lit, None)
    got = capture(link, detected, lit)
    for ch in lit:
        assert np.array_equal(got[ch].samples, want[ch].samples)
    with pytest.raises(ValueError, match="noise draws"):
        capture(sc.link, detected, lit)  # a finite OSNR


def test_a_probe_point_holds_no_grid_sized_array():
    """Once the search's probe frame is detected, capturing it at one OSNR
    peaks at most 0.5x the composite's bytes: below one detection-grid
    field (0.71x), where the copy of the composite each point received
    before was 1x alone."""
    sc = _scenario("single_lit_89g6_50km")
    point, seed = harness_mod._osnr_point(sc, 50.0, 1)
    known, detected = harness_mod._shared_probe(point, seed)
    composite_bytes = 16 * detected[0]
    link = replace(sc.link, osnr_db=36.25)
    capture(link, detected, sc.link.lit_channels)  # warm
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        captures = capture(link, detected, sc.link.lit_channels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(captures) == set(known)
    assert peak - entry <= 0.5 * composite_bytes, (peak - entry) / composite_bytes


@pytest.mark.parametrize(
    "n, rate",
    [(1_031_680, 256e9), (2_063_360, 512e9), (30_723, 240e9)],
    ids=["256gsps", "512gsps", "odd_240gsps"],
)
def test_kept_frequencies_are_rfftfreqs(n, rate):
    kept = _spectral.output_length(n, rate, 80e9) // 2 + 1
    assert np.array_equal(
        _kept_frequencies(n, rate, kept), np.fft.rfftfreq(n, d=1.0 / rate)[:kept]
    )
