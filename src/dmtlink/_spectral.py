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


def resample_real(samples: np.ndarray, n_out: int, out=None, work=None) -> np.ndarray:
    """Resample a real periodic signal to n_out samples, amplitude-preserving.

    ``out`` (n_out floats) and ``work`` (n_out // 2 + 1 complex bins), when
    given, take the result and the resized spectrum (``irfft_resized``), so
    that no array of the output's size is allocated.
    """
    if n_out == samples.size:
        if out is None:
            return np.array(samples, copy=True)
        out[...] = samples
        return out
    return irfft_resized(np.fft.rfft(samples), samples.size, n_out, out, work)


def irfft_resized(
    spectrum: np.ndarray, n_in: int, n_out: int, out=None, work=None
) -> np.ndarray:
    """Real n_out-sample signal from the (possibly truncated) rfft of an n_in-sample one.

    Bins above the new Nyquist frequency are dropped, missing ones are
    zero, and the amplitude scale of the n_in-sample signal is kept.  The
    Nyquist bin of the shorter length, when it is even, stands for both
    ``+f`` and ``-f`` there: it is halved when it becomes an ordinary bin
    of the longer signal and doubled when it becomes the new Nyquist bin,
    as ``scipy.signal.resample`` does.  ``out`` and ``work`` are optional
    buffers for the result and the resized spectrum (see ``resample_real``).
    """
    n_bins = min(spectrum.size, n_out // 2 + 1)
    out_spec = np.zeros(n_out // 2 + 1, dtype=np.complex128) if work is None else work
    out_spec[:n_bins] = spectrum[:n_bins]
    out_spec[n_bins:] = 0
    shorter = min(n_in, n_out)
    if shorter % 2 == 0 and n_in != n_out:
        out_spec[shorter // 2] *= 2.0 if n_out < n_in else 0.5
    samples = np.fft.irfft(out_spec, n=n_out, out=out)
    samples *= n_out / n_in
    return samples
