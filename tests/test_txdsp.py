"""Tests for the transmit chain: training symbols, modulation, clip, DAC."""

import numpy as np
import pytest
from scipy.stats import norm

from dmtlink.core import DmtConfig, RealWaveform, SubcarrierPlan
from dmtlink.txdsp import (
    build_training_symbols,
    clip,
    dac,
    modulate_frame,
    symbols_to_waveform,
)

CFG = DmtConfig()


def _random_payload(plan, cfg, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, cfg.n_data_symbols * plan.bits_per_symbol)


class TestTrainingSymbols:
    def test_ts1_half_symmetry_exact(self):
        """TS1 body repeats after fft_size/2 samples, bitwise."""
        plan = SubcarrierPlan.uniform(CFG.n_data_subcarriers)
        frame = modulate_frame(_random_payload(plan, CFG, 0), plan, CFG, seed=42)
        cp, n = CFG.cp_length, CFG.fft_size
        body = frame.waveform.samples[cp : cp + n]
        assert np.array_equal(body[: n // 2], body[n // 2 :])

    def test_deterministic_in_seed(self):
        a = build_training_symbols(CFG, seed=7)
        b = build_training_symbols(CFG, seed=7)
        c = build_training_symbols(CFG, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_ts1_loads_even_bins_only(self):
        ts = build_training_symbols(CFG, seed=1)
        bins = np.arange(1, CFG.n_data_subcarriers + 1)
        assert np.all(ts[0][bins % 2 == 1] == 0)
        loaded = ts[0][bins % 2 == 0]
        assert np.allclose(np.abs(loaded), np.sqrt(2))

    def test_ts2_power_matches_uniform_data_symbol(self):
        """TS2 mean power equals a uniformly loaded data symbol within 1e-9."""
        plan = SubcarrierPlan.uniform(CFG.n_data_subcarriers)
        frame = modulate_frame(_random_payload(plan, CFG, 3), plan, CFG, seed=9)
        sps = CFG.fft_size + CFG.cp_length
        bodies = frame.waveform.samples.reshape(-1, sps)[:, CFG.cp_length :]
        ts2_power = np.mean(bodies[1] ** 2)
        data_power = np.mean(bodies[5] ** 2)
        assert ts2_power == pytest.approx(data_power, rel=1e-9)


class TestModulateFrame:
    def test_frame_length_and_dtype(self):
        plan = SubcarrierPlan.uniform(CFG.n_data_subcarriers)
        frame = modulate_frame(_random_payload(plan, CFG, 1), plan, CFG, seed=0)
        assert frame.waveform.samples.size == 124 * 2080
        assert frame.waveform.samples.dtype == np.float64  # real by construction

    def test_cyclic_prefix_copies_symbol_tail(self):
        plan = SubcarrierPlan.uniform(CFG.n_data_subcarriers)
        frame = modulate_frame(_random_payload(plan, CFG, 2), plan, CFG, seed=5)
        sps = CFG.fft_size + CFG.cp_length
        cp, n = CFG.cp_length, CFG.fft_size
        symbols = frame.waveform.samples.reshape(-1, sps)
        for row in symbols:
            assert np.array_equal(row[:cp], row[cp + n - cp :])

    def test_spectrum_roundtrip(self):
        """Per-symbol FFT of the waveform recovers the loaded subcarriers."""
        plan = SubcarrierPlan.uniform(CFG.n_data_subcarriers)
        frame = modulate_frame(_random_payload(plan, CFG, 4), plan, CFG, seed=11)
        sps = CFG.fft_size + CFG.cp_length
        cp, n = CFG.cp_length, CFG.fft_size
        bodies = frame.waveform.samples.reshape(-1, sps)[:, cp:]
        spectra = np.fft.rfft(bodies, axis=1) / np.sqrt(n)
        recovered = spectra[:, 1 : CFG.n_data_subcarriers + 1]
        assert np.allclose(recovered, frame.frequency_symbols, atol=1e-9)

    def test_payload_length_enforced(self):
        plan = SubcarrierPlan.uniform(CFG.n_data_subcarriers)
        with pytest.raises(ValueError):
            modulate_frame(np.zeros(10, dtype=int), plan, CFG, seed=0)

    def test_waveform_linear_in_subcarrier_amplitude(self):
        """Scaling the subcarrier values scales the waveform exactly."""
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((4, CFG.n_data_subcarriers)) + 1j * rng.standard_normal(
            (4, CFG.n_data_subcarriers)
        )
        base = symbols_to_waveform(rows, CFG)
        doubled = symbols_to_waveform(2.0 * rows, CFG)
        assert np.allclose(doubled.samples, 2.0 * base.samples, rtol=1e-12, atol=0)
        assert doubled.rms() == pytest.approx(np.sqrt(4.0) * base.rms(), rel=1e-12)


class TestClip:
    def test_infinite_ratio_is_identity(self):
        w = RealWaveform(np.random.default_rng(0).standard_normal(1000), 64e9)
        assert np.array_equal(clip(w, np.inf).samples, w.samples)

    def test_output_bounded(self):
        w = RealWaveform(np.random.default_rng(1).standard_normal(10000), 64e9)
        a = w.rms() * 10 ** (9 / 20)
        clipped = clip(w, 9.0)
        assert np.max(np.abs(clipped.samples)) <= a

    def test_gaussian_clipped_fraction(self):
        """CR = 9 dB clips a 2*Q(2.818) fraction of Gaussian samples."""
        rng = np.random.default_rng(33)
        w = RealWaveform(rng.standard_normal(10_000_000), 64e9)
        a = w.rms() * 10 ** (9 / 20)
        clipped = clip(w, 9.0)
        fraction = np.mean(np.abs(clipped.samples) >= a * (1 - 1e-12))
        expected = 2 * norm.sf(10 ** (9 / 20))
        assert abs(fraction - expected) < 0.2 * expected


class TestDac:
    def test_same_rate_identity(self):
        w = RealWaveform(np.arange(32.0), 64e9)
        out = dac(w, 64e9)
        assert np.array_equal(out.samples, w.samples)

    def test_sine_amplitude_preserved(self):
        """5 GHz tone upsampled 64 -> 128 GS/s keeps its amplitude (<0.1 dB)."""
        n = 4096
        t = np.arange(n) / 64e9
        w = RealWaveform(np.sin(2 * np.pi * 5e9 * t), 64e9)
        out = dac(w, 128e9)
        assert out.sample_rate == 128e9
        assert out.samples.size == 2 * n
        amp = np.sqrt(2) * np.sqrt(np.mean(out.samples**2))
        assert abs(20 * np.log10(amp)) < 0.1

    def test_inband_energy_preserved(self):
        """Parseval over the original band holds through upsampling (0.5%)."""
        rng = np.random.default_rng(4)
        w = RealWaveform(rng.standard_normal(8192), 64e9)
        out = dac(w, 128e9)
        spec_in = np.abs(np.fft.rfft(w.samples)) ** 2
        spec_out = np.abs(np.fft.rfft(out.samples) / 2.0) ** 2
        inband = spec_in[1:-1].sum()
        assert abs(spec_out[1 : spec_in.size - 1].sum() - inband) < 5e-3 * inband

    def test_downsampling_rejected(self):
        w = RealWaveform(np.arange(32.0), 64e9)
        with pytest.raises(ValueError):
            dac(w, 32e9)

    def test_irrational_ratio_rejected(self):
        w = RealWaveform(np.arange(30.0), 64e9)
        with pytest.raises(ValueError):
            dac(w, 65e9)  # 30 * 65/64 is not an integer sample count
