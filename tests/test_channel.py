"""Tests for the optical channel: MZM, mux, filters, fiber, noise, receiver.

The single-field stages (``TestMzm``, ``TestOpticalFilter``, ``TestFiberCd``,
``TestNoiseLoading``, ``TestPhotodiode``) check the time-domain reference
chain in ``optical_reference.py``; the rest check ``dmtlink.channel``.
"""

from dataclasses import replace

import numpy as np
import pytest

import dmtlink.channel as channel_mod
from dmtlink import _spectral
from dmtlink.channel import (
    FilterSpec,
    LinkConfig,
    SPEED_OF_LIGHT,
    _launch,
    _mean_power,
    _mux_add,
    end_to_end_fading_profile,
)
from dmtlink.core import RealWaveform
from optical_reference import (
    OpticalField,
    fiber_cd,
    load_noise_to_osnr,
    mzm,
    optical_filter,
    photodiode,
    rx_frontend,
)
from span_frame import span_captures


def _tone_field(freq, n=8192, rate=64e9, amplitude=1.0):
    t = np.arange(n) / rate
    return OpticalField(amplitude * np.exp(2j * np.pi * freq * t), rate)


def _fading_null(order_k, length_km, dispersion=17.0, wavelength_nm=1550.0):
    """Analytic dispersion-fading null frequency for a double-sideband link."""
    d_si = dispersion * 1e-6
    lam = wavelength_nm * 1e-9
    return np.sqrt(
        (2 * order_k + 1) * SPEED_OF_LIGHT / (2 * lam**2 * d_si * length_km * 1e3)
    )


class TestMzm:
    def test_null_point_gives_zero_field(self):
        drive = RealWaveform(np.zeros(64), 64e9)
        out = mzm(drive, vpi=2.0, bias=0.0)
        assert np.all(out.samples == 0)

    def test_full_bias_gives_peak_field(self):
        drive = RealWaveform(np.ones(64), 64e9)
        out = mzm(drive, vpi=2.0, bias=0.0, drive_swing=1.0)
        assert np.allclose(out.samples.real, 1.0, atol=1e-12)

    def test_default_bias_keeps_field_nonnegative(self):
        rng = np.random.default_rng(0)
        drive = RealWaveform(rng.standard_normal(4096), 64e9)
        out = mzm(drive, vpi=2.0, drive_swing=0.2)
        assert np.all(out.samples.real >= 0)
        assert np.all(out.samples.imag == 0)

    def test_single_tone_distortion_below_30db(self):
        """A 20%-swing tone at the default bias keeps THD under -30 dB."""
        n, rate = 8192, 64e9
        k = 256  # exact-bin 2 GHz tone
        t = np.arange(n) / rate
        drive = RealWaveform(np.sin(2 * np.pi * k * rate / n * t), rate)
        out = mzm(drive, vpi=2.0, drive_swing=0.2)
        spectrum = np.abs(np.fft.rfft(out.samples.real)) ** 2
        fundamental = spectrum[k]
        harmonics = sum(spectrum[m * k] for m in range(2, n // (2 * k)))
        assert 10 * np.log10(harmonics / fundamental) < -30.0


class TestWdmMux:
    """The whole-bin mux of ``compose``, on a 256 GS/s grid of 8192 bins."""

    N, RATE = 8192, 256e9

    def _spectrum(self, freq, amplitude=1.0):
        return np.fft.fft(_tone_field(freq, n=self.N, rate=self.RATE, amplitude=amplitude).samples)

    def _bins(self, offset):
        return round(offset * self.N / self.RATE)

    def _mux(self, spectra, offsets, half_band=0.0):
        composite = np.zeros(self.N, dtype=complex)
        for spectrum, offset in zip(spectra, offsets):
            _mux_add(composite, spectrum, self._bins(offset), half_band * self.N / self.RATE)
        return composite

    def test_offset_displaces_spectrum_peak(self):
        for offset in (25e9, -25e9):
            out = self._mux([self._spectrum(0.0)], [offset])
            assert np.argmax(np.abs(out)) == self._bins(offset) % self.N

    def test_matches_exact_phase_mixing(self):
        """A k-bin move is mixing with exp(2j*pi*((k*n) mod N)/N)."""
        rng = np.random.default_rng(8)
        field = rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N)
        k = self._bins(-62.5e9)
        mixer = np.exp(2j * np.pi * ((k * np.arange(self.N)) % self.N) / self.N)
        moved = np.fft.ifft(self._mux([np.fft.fft(field)], [-62.5e9]))
        assert np.max(np.abs(moved - field * mixer)) <= 1e-12 * np.max(np.abs(field))

    def test_coherent_duplicate_quadruples_power(self):
        spectrum = self._spectrum(1e9)
        solo = self._mux([spectrum], [0.0])
        dup = self._mux([spectrum, spectrum], [0.0, 0.0])
        assert _mean_power(dup) == pytest.approx(4 * _mean_power(solo), rel=1e-9)

    def test_disjoint_channels_add_energy(self):
        """Independent 10 GHz channels at +/-25 GHz: powers add."""
        rng = np.random.default_rng(3)
        spectra = []
        width = int(10e9 / (self.RATE / self.N))
        for _ in range(2):
            spectrum = np.zeros(self.N, dtype=complex)
            spectrum[1 : width + 1] = rng.standard_normal(width) + 1j * rng.standard_normal(width)
            spectra.append(spectrum)
        out = self._mux(spectra, [-25e9, 25e9], half_band=10e9)
        total = sum(_mean_power(s) for s in spectra)
        assert _mean_power(out) == pytest.approx(total, rel=1e-12)

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError):
            self._mux([self._spectrum(0.0)], [120e9], half_band=32e9)

    def test_linear_in_fields(self):
        a = self._spectrum(2e9)
        b = self._spectrum(5e9, amplitude=0.5)
        left = self._mux([a, b], [25e9, -25e9])
        right = self._mux([a], [25e9]) + self._mux([b], [-25e9])
        assert np.allclose(left, right, atol=1e-12)


class TestOpticalFilter:
    SPEC = FilterSpec(center=0.0, fwhm_3db=44e9, order=2, fsr=100e9)

    def test_center_is_lossless(self):
        field = _tone_field(0.0)
        out = optical_filter(field, self.SPEC)
        assert out.power() == pytest.approx(field.power(), rel=1e-9)

    def test_edge_is_three_db(self):
        """Power response at center +/- fwhm/2 is -3.0 dB within 0.01 dB."""
        response = self.SPEC.amplitude_response(np.array([-22e9, 22e9]))
        loss_db = 20 * np.log10(response)
        assert np.all(np.abs(loss_db + 3.0) < 0.01)

    def test_periodic_in_fsr(self):
        f = np.linspace(-50e9, 50e9, 2001)
        a = self.SPEC.amplitude_response(f)
        b = self.SPEC.amplitude_response(f + 100e9)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_flat_phase(self):
        field = _tone_field(10e9, n=4096)
        out = optical_filter(field, self.SPEC)
        ratio = out.samples / field.samples
        assert np.allclose(ratio.imag, 0.0, atol=1e-12)
        assert np.all(ratio.real > 0)

    def test_center_offset_shifts_passband(self):
        """A field centered off-grid sees the response at absolute frequency."""
        t = np.arange(4096) / 64e9
        field = OpticalField(np.exp(2j * np.pi * 0.0 * t), 64e9, center_offset=22e9)
        out = optical_filter(field, self.SPEC)
        assert 10 * np.log10(out.power() / field.power()) == pytest.approx(-3.0, abs=0.01)

    def test_superposition(self):
        a = _tone_field(3e9)
        b = _tone_field(-7e9, amplitude=0.3)
        both = OpticalField(a.samples + b.samples, a.sample_rate)
        out = optical_filter(both, self.SPEC)
        parts = optical_filter(a, self.SPEC).samples + optical_filter(b, self.SPEC).samples
        assert np.allclose(out.samples, parts, atol=1e-12)

    def test_demux_spec_not_periodic(self):
        spec = FilterSpec(center=0.0, fwhm_3db=70e9, order=2, fsr=None)
        response = spec.amplitude_response(np.array([0.0, 100e9]))
        assert response[0] == pytest.approx(1.0)
        assert response[1] < 1e-8


class TestFiberCd:
    def test_zero_length_identity(self):
        field = _tone_field(5e9)
        out = fiber_cd(field, 0.0)
        assert np.array_equal(out.samples, field.samples)

    def test_phase_additivity(self):
        """40 km + 40 km equals 80 km within 1e-12."""
        rng = np.random.default_rng(1)
        field = OpticalField(
            rng.standard_normal(4096) + 1j * rng.standard_normal(4096), 64e9
        )
        once = fiber_cd(fiber_cd(field, 40.0), 40.0)
        direct = fiber_cd(field, 80.0)
        assert np.allclose(once.samples, direct.samples, rtol=1e-12, atol=1e-12)

    def test_energy_preserved(self):
        rng = np.random.default_rng(2)
        field = OpticalField(
            rng.standard_normal(4096) + 1j * rng.standard_normal(4096), 64e9
        )
        out = fiber_cd(field, 120.0)
        assert out.power() == pytest.approx(field.power(), rel=1e-12)


class TestNoiseLoading:
    def test_infinite_osnr_unchanged(self):
        field = _tone_field(0.0)
        out = load_noise_to_osnr(field, np.inf, seed=1)
        assert np.array_equal(out.samples, field.samples)

    def test_reference_band_noise_power(self):
        """OSNR 20 dB on a unit-power carrier: -20 dB noise in 12.5 GHz."""
        n, rate = 1 << 20, 64e9
        field = OpticalField(np.ones(n, dtype=complex), rate)
        out = load_noise_to_osnr(field, 20.0, seed=7)
        noise = out.samples - field.samples
        ref_power = np.mean(np.abs(noise) ** 2) * 12.5e9 / rate
        assert 10 * np.log10(ref_power) == pytest.approx(-20.0, abs=0.05)

    def test_round_trip_across_range(self):
        """Measured OSNR tracks the request within 0.1 dB from 15 to 45 dB."""
        n, rate = 1 << 20, 64e9
        field = OpticalField(np.ones(n, dtype=complex), rate)
        for osnr in (15.0, 30.0, 45.0):
            out = load_noise_to_osnr(field, osnr, seed=11)
            noise = out.samples - field.samples
            measured = field.power() / (np.mean(np.abs(noise) ** 2) * 12.5e9 / rate)
            assert 10 * np.log10(measured) == pytest.approx(osnr, abs=0.1)

    def test_deterministic_in_seed(self):
        field = _tone_field(1e9)
        a = load_noise_to_osnr(field, 25.0, seed=3)
        b = load_noise_to_osnr(field, 25.0, seed=3)
        c = load_noise_to_osnr(field, 25.0, seed=4)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_draw_is_sigma_times_two_normal_streams(self):
        """The noise is exactly sigma * (re + 1j * im) of one generator's two draws."""
        n, rate = 4096, 64e9
        out = load_noise_to_osnr(
            OpticalField(np.zeros(n, dtype=complex), rate), 20.0, seed=9, reference_power=1.0
        )
        sigma = np.sqrt(1.0 / (100.0 * 12.5e9) * rate / 2.0)
        rng = np.random.default_rng(9)
        expected = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert np.array_equal(out.samples, expected)

    def test_zero_power_rejected(self):
        field = OpticalField(np.zeros(128, dtype=complex), 64e9)
        with pytest.raises(ValueError):
            load_noise_to_osnr(field, 20.0, seed=0)

    def test_external_reference_power(self):
        """Noise level follows the reference power, not the field's own."""
        field = _tone_field(0.0, amplitude=2.0)  # power 4
        out = load_noise_to_osnr(field, 20.0, seed=5, reference_power=1.0)
        noise_power = np.mean(np.abs(out.samples - field.samples) ** 2)
        expected = 1.0 / (100.0 * 12.5e9) * field.sample_rate
        assert noise_power == pytest.approx(expected, rel=0.05)


class TestPhotodiode:
    def test_constant_field(self):
        field = OpticalField(np.full(64, 0.5 + 0j), 64e9)
        out = photodiode(field)
        assert np.allclose(out.samples, 0.25, atol=1e-15)

    def test_square_law_scaling(self):
        field = _tone_field(2e9)
        double = OpticalField(2 * field.samples, field.sample_rate)
        assert np.allclose(
            photodiode(double).samples, 4 * photodiode(field).samples, rtol=1e-12
        )

    def test_two_tone_beat(self):
        """E at +/-f detects as DC level 2 and a 2f beat of amplitude 2."""
        n, rate = 8192, 64e9
        f = 512 * rate / n
        t = np.arange(n) / rate
        field = OpticalField(
            np.exp(2j * np.pi * f * t) + np.exp(-2j * np.pi * f * t), rate
        )
        out = photodiode(field)
        spectrum = np.fft.rfft(out.samples) / n
        assert spectrum[0].real == pytest.approx(2.0, rel=1e-12)
        assert 2 * np.abs(spectrum[1024]) == pytest.approx(2.0, rel=1e-9)
        assert out.samples.min() >= 0

    def test_output_real_and_rate_preserved(self):
        field = _tone_field(3e9)
        out = photodiode(field)
        assert out.samples.dtype == np.float64
        assert out.sample_rate == field.sample_rate


class TestRxFrontend:
    def _tone(self, freq, n=65536, rate=256e9):
        t = np.arange(n) / rate
        return RealWaveform(np.sin(2 * np.pi * freq * t), rate)

    def test_passband_tone_nearly_unscathed(self):
        w = self._tone(5e9)
        out = rx_frontend(w, bandwidth=29.4e9, out_rate=w.sample_rate)
        loss_db = 20 * np.log10(out.rms() / w.rms())
        assert abs(loss_db) < 0.2

    def test_cutoff_tone_drops_three_db(self):
        w = self._tone(29.4e9 * 65536 // 65536)
        freq = round(29.4e9 / (256e9 / 65536)) * (256e9 / 65536)
        w = self._tone(freq)
        out = rx_frontend(w, bandwidth=29.4e9, out_rate=w.sample_rate)
        loss_db = 20 * np.log10(out.rms() / w.rms())
        assert loss_db == pytest.approx(-3.0, abs=0.3)

    def test_resamples_to_capture_rate(self):
        w = self._tone(5e9, n=65536, rate=256e9)
        out = rx_frontend(w, bandwidth=29.4e9, out_rate=80e9)
        assert out.sample_rate == 80e9
        assert out.samples.size == 65536 * 80 // 256

    def test_no_quantization_by_default(self):
        w = self._tone(5e9, n=4096)
        full = rx_frontend(w, bandwidth=29.4e9, out_rate=w.sample_rate)
        again = rx_frontend(w, bandwidth=29.4e9, out_rate=w.sample_rate, quantize_bits=None)
        assert np.array_equal(full.samples, again.samples)

    def test_quantization_error_bounded(self):
        rng = np.random.default_rng(5)
        w = RealWaveform(rng.standard_normal(1 << 16), 80e9)
        out = rx_frontend(w, bandwidth=29.4e9, out_rate=80e9, quantize_bits=8)
        ref = rx_frontend(w, bandwidth=29.4e9, out_rate=80e9)
        lsb = 8 * ref.samples.std() / 2**8
        inliers = np.abs(ref.samples - ref.samples.mean()) < 3.9 * ref.samples.std()
        assert np.max(np.abs(out.samples[inliers] - ref.samples[inliers])) <= lsb

    def test_fused_equals_filter_then_resample(self):
        """One rfft/irfft pair equals filtering at 256 GS/s, then resample_real to 80."""
        rng = np.random.default_rng(6)
        w = RealWaveform(rng.standard_normal(65536), 256e9)
        fused = rx_frontend(w, bandwidth=29.4e9, out_rate=80e9)
        full = rx_frontend(w, bandwidth=29.4e9, out_rate=256e9)
        ref = _spectral.resample_real(full.samples, 65536 * 80 // 256)
        assert np.max(np.abs(fused.samples - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_upsampling_rejected(self):
        w = self._tone(5e9, n=4096, rate=80e9)
        with pytest.raises(ValueError):
            rx_frontend(w, bandwidth=29.4e9, out_rate=160e9)


class TestOpticalSpan:
    LINK = LinkConfig(
        n_channels=4, active_channels=(0, 1, 2), channel_under_test=1, span_lengths_km=()
    )
    N = 2048  # one 8 ns frame on the 256 GS/s grid

    def _drives(self, seed):
        rng = np.random.default_rng(seed)
        return {
            ch: RealWaveform(
                _spectral.resample_real(rng.standard_normal(self.N // 4), self.N),
                self.LINK.grid_rate,
            )
            for ch in self.LINK.lit_channels
        }

    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_launch_power_by_parseval(self, channel):
        """The launch power taken from the spectrum equals the time-domain power()."""
        link, rate = self.LINK, self.LINK.grid_rate
        drive = self._drives(4)[channel]
        duration = self.N / rate
        spectrum, shift = _launch(link, channel, drive, duration)
        field = mzm(drive, drive_swing=link.drive_swing, bias_margin=link.mzm_bias_margin)
        field = OpticalField(field.samples, rate, center_offset=shift / duration)
        expected = optical_filter(field, link.interleaver(channel)).power()
        assert _mean_power(spectrum) == pytest.approx(expected, rel=1e-12)

    def test_captures_at_receiver_rate(self):
        captures = span_captures(self.LINK, self._drives(2), [0, 2], 5, occupied_bandwidth=64e9)
        assert sorted(captures) == [0, 2]
        for capture in captures.values():
            assert capture.sample_rate == self.LINK.rx_sample_rate
            assert capture.samples.size == self.N * 80 // 256

    def test_aliasing_carrier_rejected(self):
        """Channel 0's laser, 448 bins low, cannot carry 640 bins of half-band."""
        with pytest.raises(ValueError, match="alias"):
            span_captures(self.LINK, self._drives(1), [1], 0, occupied_bandwidth=160e9)

    def test_drive_off_grid_rate_rejected(self):
        drives = self._drives(3)
        drives[2] = RealWaveform(drives[2].samples, 128e9)
        with pytest.raises(ValueError):
            span_captures(self.LINK, drives, [1], 0, occupied_bandwidth=64e9)


class TestFadingProfile:
    B2B = LinkConfig(n_channels=4, span_lengths_km=())
    FIFTY = LinkConfig(n_channels=4, span_lengths_km=(50.0,))

    def test_back_to_back_flat(self):
        """Zero fiber, no filters: response is flat 0 dB within 0.2 dB."""
        _, response = end_to_end_fading_profile(
            replace(self.B2B, detuning=0.0), use_interleaver=False
        )
        assert np.all(np.abs(response) < 0.2)

    def test_centered_dsb_nulls_at_analytic_frequencies(self):
        """Unfiltered 50 km fading dips sit on the analytic nulls."""
        freqs, response = end_to_end_fading_profile(
            replace(self.FIFTY, detuning=0.0), use_interleaver=False
        )
        for k in (0, 1):
            null = _fading_null(k, 50.0)
            window = np.abs(freqs - null) <= 1e9
            dip_freq = freqs[window][np.argmin(response[window])]
            assert abs(dip_freq - null) <= 125e6
            assert response[window].min() < -15.0

    def test_vsb_detuning_mitigates_fading(self):
        """19 GHz detuning with the interleaver lifts the worst in-band dip."""
        freqs, centered = end_to_end_fading_profile(
            replace(self.FIFTY, detuning=0.0), use_interleaver=False
        )
        _, detuned = end_to_end_fading_profile(
            replace(self.FIFTY, detuning=19e9), use_interleaver=True
        )
        band = freqs <= 30.4375e9
        assert detuned[band].min() >= centered[band].min() + 6.0


def _reference_fading_profile(link, detuning, use_interleaver, tone_step):
    """The fading probe run through the time-domain stages of ``optical_reference``."""
    rate = link.grid_rate
    n = round(2048 * rate / 64e9)
    bins = np.arange(round(tone_step / 31.25e6), 1024, round(tone_step / 31.25e6))
    t = np.arange(n) / rate
    port = FilterSpec(center=0.0, fwhm_3db=link.il_fwhm, order=link.il_order, fsr=link.il_fsr)

    def probe(length_km):
        powers = []
        for k in bins:
            drive = RealWaveform(np.sin(2 * np.pi * k * 31.25e6 * t), rate)
            field = mzm(drive, drive_swing=0.05, bias_margin=link.mzm_bias_margin)
            field = OpticalField(field.samples, rate, center_offset=detuning)
            if use_interleaver:
                field = optical_filter(field, port)
            field = fiber_cd(field, length_km, link.dispersion_ps_nm_km, link.center_wavelength_nm)
            if use_interleaver:
                field = optical_filter(field, port)
            powers.append(np.abs(np.fft.rfft(photodiode(field).samples)[k]) ** 2)
        return np.array(powers)

    return bins * 31.25e6, 10.0 * np.log10(probe(link.total_length_km) / probe(0.0))


class TestFadingProfileAgainstReference:
    @pytest.mark.parametrize(
        "link, detuning, use_interleaver",
        [
            (LinkConfig(n_channels=4, span_lengths_km=(50.0,)), 19e9, True),
            (LinkConfig(n_channels=4, span_lengths_km=(160.0,)), 0.0, False),
            (LinkConfig(n_channels=4, span_lengths_km=()), 19e9, True),
            (LinkConfig(n_channels=4, span_lengths_km=(240.0,)), 14.25e9, True),
            (LinkConfig(n_channels=8, span_lengths_km=(80.0,)), 19e9, True),  # 512 GS/s grid
        ],
        ids=["50km-19GHz", "160km-dsb", "back-to-back", "240km-14.25GHz", "8-slot-80km"],
    )
    def test_matches_time_domain_chain(self, link, detuning, use_interleaver):
        freqs, response = end_to_end_fading_profile(
            replace(link, detuning=detuning), use_interleaver=use_interleaver, tone_step=1e9
        )
        want_freqs, want = _reference_fading_profile(link, detuning, use_interleaver, 1e9)
        assert np.array_equal(freqs, want_freqs)
        assert np.max(np.abs(response - want)) <= 1e-12

    def test_probe_biases_the_modulator_with_the_link_margin(self, monkeypatch):
        """The probe takes ``link.mzm_bias_margin``; the normalized profile does not move.

        A tone's field ``sin(kb + z sin wt)`` has its even harmonics in
        ``sin(kb)`` and its odd ones in ``cos(kb)`` (Jacobi-Anger), so every
        beat that lands on the tone carries ``sin(kb) cos(kb)``, and the
        ratio to back to back cancels the bias.
        """
        margins = []
        original = channel_mod._mzm_transfer

        def recorded(samples, drive_swing, bias_margin):
            margins.append(bias_margin)
            return original(samples, drive_swing, bias_margin)

        monkeypatch.setattr(channel_mod, "_mzm_transfer", recorded)
        link = LinkConfig(n_channels=4, span_lengths_km=(50.0,), mzm_bias_margin=0.05)
        _, response = end_to_end_fading_profile(replace(link, detuning=19e9), tone_step=1e9)
        assert margins and set(margins) == {0.05}
        _, want = _reference_fading_profile(link, 19e9, True, 1e9)
        assert np.max(np.abs(response - want)) <= 1e-12
        _, default = end_to_end_fading_profile(
            replace(link, detuning=19e9, mzm_bias_margin=0.01), tone_step=1e9
        )
        assert np.max(np.abs(response - default)) <= 1e-12


class TestLinkConfig:
    def test_channel_count_bounds(self):
        with pytest.raises(ValueError):
            LinkConfig(n_channels=3)
        with pytest.raises(ValueError):
            LinkConfig(n_channels=9)

    def test_span_lengths_positive(self):
        with pytest.raises(ValueError):
            LinkConfig(span_lengths_km=(80.0, -1.0))

    def test_nan_osnr_rejected(self):
        """A NaN OSNR is an error, not a noiseless link."""
        with pytest.raises(ValueError, match="osnr_db"):
            LinkConfig(osnr_db=float("nan"))
        assert LinkConfig(osnr_db=np.inf).osnr_db == np.inf

    @pytest.mark.parametrize(
        "name",
        ["grid_spacing", "detuning", "dispersion_ps_nm_km", "center_wavelength_nm",
         "rx_bandwidth", "rx_sample_rate", "composite_rate", "drive_swing",
         "mzm_bias_margin", "il_fwhm", "il_fsr", "demux_fwhm"],
    )
    def test_nan_field_rejected_by_name(self, name):
        """A NaN float field is an error naming it, not a link that runs wrongly."""
        with pytest.raises(ValueError, match=name):
            LinkConfig(**{name: float("nan")})

    @pytest.mark.parametrize("length", [float("nan"), float("inf")])
    def test_span_length_must_be_finite(self, length):
        """A NaN span is not back to back, and an infinite one is not a span."""
        with pytest.raises(ValueError, match="span_lengths_km"):
            LinkConfig(span_lengths_km=(80.0, length))

    def test_minus_inf_osnr_rejected(self):
        """Only +inf is a noiseless link; -inf is no OSNR at all."""
        with pytest.raises(ValueError, match="osnr_db"):
            LinkConfig(osnr_db=-np.inf)

    def test_auto_grid_rate(self):
        assert LinkConfig(n_channels=4, span_lengths_km=()).grid_rate == 256e9
        assert LinkConfig(n_channels=8).grid_rate == 512e9
        # only lit carriers count: an 8-slot comb with just the innermost
        # neighborhood lit fits the smaller grid
        sparse = LinkConfig(n_channels=8, active_channels=(3, 4, 5))
        assert sparse.grid_rate == 256e9
        with pytest.raises(ValueError):
            LinkConfig(n_channels=8, active_channels=())

    def test_comb_must_fit_grid(self):
        with pytest.raises(ValueError):
            LinkConfig(n_channels=8, composite_rate=128e9)

    def test_channel_centers_symmetric(self):
        cfg = LinkConfig(n_channels=8)
        centers = cfg.channel_centers
        assert np.allclose(centers + centers[::-1], 0.0)
        assert np.all(np.diff(centers) == 50e9)
        assert cfg.cut_index == 4

    def test_interleaver_ports_alternate(self):
        cfg = LinkConfig(n_channels=8)
        il = cfg.interleaver(4)
        neighbor = cfg.channel_centers[5]
        own = cfg.channel_centers[4]
        assert il.amplitude_response(np.array([own]))[0] == pytest.approx(1.0)
        assert il.amplitude_response(np.array([neighbor]))[0] < 0.01
