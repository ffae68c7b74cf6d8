"""Tests for the shared Fourier resampler: the Nyquist bin of even lengths."""

import numpy as np
import pytest

from dmtlink import _spectral


class TestNyquistBin:
    def test_upsampled_alternating_sequence_keeps_unit_amplitude(self):
        """(-1)^n on 8 samples, resampled to 32, is a unit cosine at 1/4 rate."""
        x = (-1.0) ** np.arange(8)
        y = _spectral.resample_real(x, 32)
        assert np.allclose(y, np.cos(np.pi * np.arange(32) / 4), atol=1e-12)
        assert np.isclose(np.max(np.abs(y)), 1.0, atol=1e-12)

    def test_downsampled_cosine_at_new_nyquist_keeps_its_samples(self):
        """A cosine at the new Nyquist frequency keeps the amplitude of its samples."""
        n = np.arange(32)
        x = np.cos(2 * np.pi * 4 * n / 32 + 0.3)
        y = _spectral.resample_real(x, 8)
        assert np.allclose(y, x[::4], atol=1e-12)
        assert np.isclose(np.max(np.abs(y)), np.cos(0.3), atol=1e-12)  # 0.955

    @pytest.mark.parametrize(
        "n_in, n_out",
        [(8, 32), (32, 8), (16, 24), (24, 16), (9, 32), (32, 9), (15, 21), (21, 15), (10, 15)],
    )
    def test_matches_scipy_resample(self, n_in, n_out):
        signal = pytest.importorskip("scipy.signal")
        x = np.random.default_rng(n_in * 100 + n_out).standard_normal(n_in)
        ours = _spectral.resample_real(x, n_out)
        assert np.allclose(ours, signal.resample(x, n_out), rtol=0, atol=1e-12)

    def test_truncated_spectrum_matches_scipy_resample(self):
        """The front end hands over only the bins it keeps; same result."""
        signal = pytest.importorskip("scipy.signal")
        x = np.random.default_rng(5).standard_normal(320)
        spectrum = np.fft.rfft(x)[: 100 // 2 + 1]
        ours = _spectral.irfft_resized(spectrum, 320, 100)
        assert np.allclose(ours, signal.resample(x, 100), rtol=0, atol=1e-12)
