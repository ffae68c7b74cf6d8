"""FFT-based band-limited resampling shared by dac, the rx front end and rx resample.

The whole simulation treats each frame as one period of a periodic signal
(channel filtering is circular), so Fourier resampling is exact for
band-limited content: zero passband ripple and zero group delay.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def output_length(n_in: int, rate_in: float, rate_out: float) -> int:
    """Sample count after resampling; rejects ratios that break periodicity."""
    ratio = Fraction(rate_out) / Fraction(rate_in)
    n_out = n_in * ratio
    if n_out.denominator != 1:
        raise ValueError(
            f"rate ratio {rate_out:g}/{rate_in:g} gives a non-integer sample "
            f"count for a {n_in}-sample buffer; unsupported"
        )
    return int(n_out)


def resample_real(samples: np.ndarray, n_out: int) -> np.ndarray:
    """Resample a real periodic signal to n_out samples, amplitude-preserving."""
    if n_out == samples.size:
        return np.array(samples, copy=True)
    return irfft_resized(np.fft.rfft(samples), samples.size, n_out)


def irfft_resized(spectrum: np.ndarray, n_in: int, n_out: int) -> np.ndarray:
    """Real n_out-sample signal from the (possibly truncated) rfft of an n_in-sample one.

    Bins above the new Nyquist frequency are dropped, missing ones are
    zero, and the amplitude scale of the n_in-sample signal is kept.  The
    Nyquist bin of the shorter length, when it is even, stands for both
    ``+f`` and ``-f`` there: it is halved when it becomes an ordinary bin
    of the longer signal and doubled when it becomes the new Nyquist bin,
    as ``scipy.signal.resample`` does.
    """
    n_bins = min(spectrum.size, n_out // 2 + 1)
    out_spec = np.zeros(n_out // 2 + 1, dtype=np.complex128)
    out_spec[:n_bins] = spectrum[:n_bins]
    shorter = min(n_in, n_out)
    if shorter % 2 == 0 and n_in != n_out:
        out_spec[shorter // 2] *= 2.0 if n_out < n_in else 0.5
    return np.fft.irfft(out_spec, n=n_out) * (n_out / n_in)
