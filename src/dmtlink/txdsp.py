"""Transmit DSP: training symbols, loaded DMT modulation, clipping, DAC.

The frame layout is 5 training symbols followed by 119 data symbols, every
symbol carrying a 32-sample cyclic prefix.  TS1 loads only even FFT bins so
its time-domain body repeats after fft_size/2 samples (the Schmidl-Cox
structure); TS2-TS5 load all data bins with unit-power QPSK for channel
estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _spectral
from .core import (
    DmtConfig,
    RealWaveform,
    SubcarrierPlan,
    bits_to_groups,
    constellation,
    map_symbols,
)

__all__ = [
    "DmtFrame",
    "build_training_symbols",
    "symbols_to_waveform",
    "modulate_frame",
    "clip",
    "dac",
    "dac_length",
    "dac_samples",
]


@dataclass(frozen=True)
class DmtFrame:
    """One transmitted frame: payload bits, subcarrier values, waveform."""

    tx_bits: np.ndarray
    frequency_symbols: np.ndarray
    waveform: RealWaveform

    def __post_init__(self):
        bits = np.array(self.tx_bits, dtype=np.int8, copy=True)
        bits.flags.writeable = False
        object.__setattr__(self, "tx_bits", bits)
        syms = np.array(self.frequency_symbols, dtype=np.complex128, copy=True)
        syms.flags.writeable = False
        object.__setattr__(self, "frequency_symbols", syms)


def build_training_symbols(cfg: DmtConfig, seed: int) -> np.ndarray:
    """Frequency-domain training symbols, shape (n_training, n_data_subcarriers).

    TS1 carries pseudorandom QPSK scaled by sqrt(2) on even FFT bins only;
    the remaining training symbols carry pseudorandom QPSK on every data bin
    at nominal (unit) power.  Deterministic in seed.
    """
    rng = np.random.default_rng(seed)
    n_sc = cfg.n_data_subcarriers
    qpsk = constellation(2)
    ts = np.zeros((cfg.n_training_symbols, n_sc), dtype=np.complex128)
    even_bins = np.arange(2, n_sc + 1, 2)  # FFT bin numbers, 1-based
    ts[0, even_bins - 1] = math.sqrt(2) * qpsk[rng.integers(0, 4, even_bins.size)]
    for row in range(1, cfg.n_training_symbols):
        ts[row] = qpsk[rng.integers(0, 4, n_sc)]
    return ts


def _ts1_body(ts1_row: np.ndarray, cfg: DmtConfig) -> np.ndarray:
    """TS1 time body built by tiling its half-length IFFT.

    Tiling makes samples[k] == samples[k + fft_size/2] bitwise-exact, which
    keeps the Schmidl-Cox plateau clean.
    """
    n = cfg.fft_size
    half_spec = np.zeros(n // 4 + 1, dtype=np.complex128)
    even_bins = np.arange(2, ts1_row.size + 1, 2)
    half_spec[even_bins // 2] = ts1_row[even_bins - 1]
    half = np.fft.irfft(half_spec, n=n // 2) * (math.sqrt(n) / 2)
    return np.tile(half, 2)


def symbols_to_waveform(freq_symbols: np.ndarray, cfg: DmtConfig) -> RealWaveform:
    """Hermitian-symmetric IFFT plus cyclic prefix for a block of symbols.

    `freq_symbols` has one row per DMT symbol and one column per data
    subcarrier (FFT bins 1..n_data_subcarriers); DC, padding, and Nyquist
    bins are zero.  Output is real by construction and linear in the input.
    """
    return RealWaveform(_symbol_rows(freq_symbols, cfg).reshape(-1), cfg.dac_rate)


def _symbol_rows(freq_symbols: np.ndarray, cfg: DmtConfig) -> np.ndarray:
    """``symbols_to_waveform``'s samples, one writable row per symbol.

    Each row is the symbol's cyclic prefix then its body: the ``irfft``
    writes the bodies into the one buffer, which is scaled in place, and
    each prefix is copied from its own row.
    """
    freq_symbols = np.atleast_2d(np.asarray(freq_symbols, dtype=np.complex128))
    n_symbols, n_sc = freq_symbols.shape
    if n_sc != cfg.n_data_subcarriers:
        raise ValueError(
            f"expected {cfg.n_data_subcarriers} subcarriers per symbol, got {n_sc}"
        )
    n, cp = cfg.fft_size, cfg.cp_length
    spectrum = np.zeros((n_symbols, n // 2 + 1), dtype=np.complex128)
    spectrum[:, 1 : n_sc + 1] = freq_symbols
    rows = np.empty((n_symbols, cp + n))
    bodies = np.fft.irfft(spectrum, n=n, axis=1, out=rows[:, cp:])
    bodies *= math.sqrt(n)
    rows[:, :cp] = rows[:, n:]
    return rows


def modulate_frame(
    payload_bits: np.ndarray,
    plan: SubcarrierPlan,
    cfg: DmtConfig,
    seed: int,
) -> DmtFrame:
    """Map payload bits onto one DMT frame according to the loading plan.

    Bits fill subcarriers in index order within each data symbol, b_i bits
    per subcarrier, and subcarrier i is scaled by sqrt(plan.powers[i]).
    `seed` selects the pseudorandom training symbols.
    """
    if plan.n_subcarriers != cfg.n_data_subcarriers:
        raise ValueError("plan length does not match cfg.n_data_subcarriers")
    payload_bits = np.asarray(payload_bits, dtype=np.int64).ravel()
    bits_per_symbol = plan.bits_per_symbol
    expected = cfg.n_data_symbols * bits_per_symbol
    if payload_bits.size != expected:
        raise ValueError(f"payload must carry {expected} bits, got {payload_bits.size}")

    data_rows = np.zeros((cfg.n_data_symbols, cfg.n_data_subcarriers), dtype=np.complex128)
    if bits_per_symbol:
        bit_matrix = payload_bits.reshape(cfg.n_data_symbols, bits_per_symbol)
        offsets = np.cumsum(plan.bits) - plan.bits
        for b in np.unique(plan.bits[plan.bits > 0]):
            carriers = np.nonzero(plan.bits == b)[0]
            cols = offsets[carriers][:, None] + np.arange(b)
            groups = bits_to_groups(bit_matrix[:, cols], int(b))
            data_rows[:, carriers] = map_symbols(groups, int(b)).reshape(-1, carriers.size)
        data_rows *= np.sqrt(plan.powers)

    ts_rows = build_training_symbols(cfg, seed)
    freq_symbols = np.vstack([ts_rows, data_rows])
    rows = _symbol_rows(freq_symbols, cfg)

    # splice the tiled TS1 body (and its prefix) for bitwise half-symmetry
    body = _ts1_body(ts_rows[0], cfg)
    cp = cfg.cp_length
    rows[0, :cp] = body[-cp:]
    rows[0, cp:] = body
    waveform = RealWaveform(rows.reshape(-1), cfg.dac_rate)

    return DmtFrame(tx_bits=payload_bits, frequency_symbols=freq_symbols, waveform=waveform)


def clip(w: RealWaveform, clipping_ratio_db: float) -> RealWaveform:
    """Symmetric hard clip at rms(input) * 10^(CR/20)."""
    if not clipping_ratio_db > 0:
        raise ValueError("clipping ratio must be positive (may be inf)")
    if math.isinf(clipping_ratio_db):
        return w
    amplitude = w.rms() * 10 ** (clipping_ratio_db / 20)
    return RealWaveform(np.clip(w.samples, -amplitude, amplitude), w.sample_rate)


def dac(w: RealWaveform, grid_rate: float) -> RealWaveform:
    """Band-limited interpolation of the digital signal onto the optical grid."""
    return RealWaveform(dac_samples(w, grid_rate), grid_rate)


def dac_length(w: RealWaveform, grid_rate: float) -> int:
    """Samples of ``dac(w, grid_rate)``: ``w``'s frame on the optical grid."""
    if grid_rate < w.sample_rate:
        raise ValueError("grid_rate must be >= the waveform sample rate")
    return _spectral.output_length(w.samples.size, w.sample_rate, grid_rate)


def dac_samples(w: RealWaveform, grid_rate: float, out=None, work=None) -> np.ndarray:
    """``dac``'s samples as a bare array, written into ``out`` when given.

    ``out`` (``dac_length`` floats) and ``work`` (``dac_length // 2 + 1``
    complex bins) let a caller build the drive in buffers of its own
    (``_spectral.resample_real``); a waveform already at the grid rate is
    copied unchanged.
    """
    return _spectral.resample_real(w.samples, dac_length(w, grid_rate), out, work)
