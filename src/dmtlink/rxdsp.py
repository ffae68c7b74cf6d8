"""Receiver DSP: linearization, resampling, sync, demodulation, equalization.

The receive chain undoes the square-law detector with a square root, brings
the capture back to the DMT clock, locates the frame with the Schmidl-Cox
metric on the half-symmetric first training symbol, and recovers data with a
least-squares channel estimate refined by a one-tap decision-directed
equalizer.

Timing conventions: ``SyncResult.start_index`` nominally points at the first
sample of TS1's body.  The plateau-midpoint rule actually lands a half guard
interval early, which is deliberate — any start inside the cyclic prefix
turns the timing error into a per-subcarrier phase slope that the channel
estimate absorbs, while a late start causes inter-symbol interference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _spectral
from .core import (
    BerReport,
    DmtConfig,
    RealWaveform,
    SubcarrierPlan,
    _CHUNK,
    _TABLE,
    _TABLE_START,
    _slicer,
)

__all__ = [
    "EqualizerState",
    "SyncNotFoundError",
    "SyncResult",
    "channel_estimate",
    "count_errors",
    "dd_equalize",
    "demap_frame",
    "demodulate",
    "resample",
    "schmidl_cox_sync",
    "sqrt_linearize",
]

SYNC_METRIC_FLOOR = 0.1
"""Peak timing metric below which the capture is declared to hold no frame."""


class SyncNotFoundError(RuntimeError):
    """No frame structure was detected in the capture."""


@dataclass(frozen=True)
class SyncResult:
    """Outcome of the timing search.

    Parameters
    ----------
    start_index : int
        Estimated first sample of TS1's body (see module notes on the
        deliberate early bias).
    metric_peak : float
        Maximum of the normalized timing metric, in [0, 1].
    plateau_width : int
        Width of the contiguous region holding at least 90% of the peak.
    """

    start_index: int
    metric_peak: float
    plateau_width: int


@dataclass
class EqualizerState:
    """One-tap frequency-domain equalizer coefficients.

    Parameters
    ----------
    taps : numpy.ndarray
        Per-subcarrier complex channel estimate ``H_i``.
    step : float
        Decision-directed adaptation constant (mu).
    """

    taps: np.ndarray
    step: float = 0.05

    def __post_init__(self):
        self.taps = np.array(self.taps, dtype=np.complex128, copy=True)
        if self.taps.ndim != 1:
            raise ValueError("taps must be one-dimensional")
        if not 0.0 <= self.step <= 1.0:
            raise ValueError("step must lie in [0, 1]")


def sqrt_linearize(w: RealWaveform) -> RealWaveform:
    """Invert the square-law detector: ``sqrt(max(samples, 0))``.

    Negative excursions only arise from noise riding on the photocurrent
    (or the receiver's AC coupling); clamping them to zero before the root
    is the documented convention.
    """
    return RealWaveform(np.sqrt(np.maximum(w.samples, 0.0)), w.sample_rate)


def resample(w: RealWaveform, out_rate: float) -> RealWaveform:
    """Band-limited rational resampling to the DMT clock.

    Implemented as an exact Fourier-domain rate change, which has zero
    group delay: a frame starting at sample ``k`` of the input starts at
    ``k * out_rate / in_rate`` of the output, so sync offsets stay
    consistent across the rate change.
    """
    if out_rate == w.sample_rate:
        return w
    n_out = _spectral.output_length(w.samples.size, w.sample_rate, out_rate)
    return RealWaveform(_spectral.resample_real(w.samples, n_out), out_rate)


def schmidl_cox_sync(w: RealWaveform, cfg: DmtConfig) -> SyncResult:
    """Locate the half-symmetric training symbol with the Schmidl-Cox metric.

    Computes ``P(d) = sum_m w(d+m) w(d+m+L)`` over sliding windows with
    ``L = fft_size / 2`` and normalizes by the larger of the two
    half-window energies, ``M = P^2 / max(E1, E2)^2``: by Cauchy-Schwarz
    this metric is bounded by 1 (one-sided normalization can exceed it
    whenever the leading window happens to carry more energy) and equals 1
    exactly at alignment.  Using the larger energy also makes the metric's
    flanks decay at the same rate on both sides of the plateau, which keeps
    the plateau midpoint unbiased; dividing by ``E1 E2`` would let the
    noise-side flank decay more slowly and drag the midpoint toward it.
    Returns the midpoint of the contiguous region that holds at least 90%
    of the peak and contains it (the metric is flat across the cyclic
    prefix, so the peak alone is ill-defined).

    The capture is read as one period of a periodic signal, as the
    steady-state receive signal of a looped frame is: every window
    continues past the capture's end into its start, the plateau may wrap
    across either end, and the start comes back modulo the capture length.

    The capture's mean is removed before the metric is formed: direct
    detection leaves a large DC term that would otherwise correlate at any
    lag and saturate the metric everywhere.

    Raises
    ------
    SyncNotFoundError
        If the peak metric stays below 0.1 (no frame present).
    """
    half = cfg.fft_size // 2
    n = w.samples.size
    if n < 2 * half + 1:
        raise ValueError("capture shorter than one training symbol")
    x = w.samples - np.mean(w.samples)
    x = np.concatenate([x, x[: 2 * half - 1]])  # windows near the end wrap to the start

    prod = x[:-half] * x[half:]
    sq = x * x
    p = _sliding_sum(prod, half)
    e = _sliding_sum(sq, half)  # e[d] and e[d + half]: the two halves' energies
    energy = np.maximum(e[:n], e[half:]) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        metric = np.where(energy > 0, p * p / np.maximum(energy, 1e-300), 0.0)

    peak = float(metric.max())
    if peak < SYNC_METRIC_FLOOR:
        raise SyncNotFoundError(
            f"timing metric peak {peak:.3f} below floor {SYNC_METRIC_FLOOR}"
        )
    top = int(np.argmax(metric))
    above = metric >= 0.9 * peak
    left = right = top
    while right - left < n - 1 and above[(left - 1) % n]:
        left -= 1
    while right - left < n - 1 and above[(right + 1) % n]:
        right += 1
    return SyncResult(
        start_index=((left + right) // 2) % n,
        metric_peak=peak,
        plateau_width=right - left + 1,
    )


def _sliding_sum(values: np.ndarray, width: int) -> np.ndarray:
    """Sum of each length-``width`` window of ``values`` (O(n) cumsum form)."""
    cums = np.concatenate(([0.0], np.cumsum(values)))
    return cums[width:] - cums[:-width]


def demodulate(w: RealWaveform, sync: SyncResult, cfg: DmtConfig) -> np.ndarray:
    """Strip prefixes, FFT each symbol, and extract the data subcarriers.

    Returns the frame's received subcarrier values, one row per symbol
    (``n_training_symbols`` training rows first, then the data rows) and one
    column per data subcarrier, as ``modulate_frame`` lays them out.

    Symbol windows are laid out every ``fft_size + cp_length`` samples from
    ``sync.start_index``; a start anywhere inside the cyclic prefix is a
    cyclic rotation of every symbol and therefore harmless.  The capture is
    read as one period, as ``schmidl_cox_sync`` reads it: frame sample ``i``
    is capture sample ``start_index + i`` modulo the capture length, so a
    frame that starts anywhere in the capture is demodulated whole.

    Raises
    ------
    ValueError
        If the capture is shorter than one frame.
    """
    sps = cfg.fft_size + cfg.cp_length
    n_symbols = cfg.n_training_symbols + cfg.n_data_symbols
    if w.samples.size < n_symbols * sps:
        raise ValueError("capture truncated: shorter than one frame")
    period = np.roll(w.samples, -sync.start_index)[: n_symbols * sps]
    bodies = period.reshape(n_symbols, sps)[:, : cfg.fft_size]
    spectra = np.fft.rfft(bodies, axis=1) / np.sqrt(cfg.fft_size)
    return spectra[:, 1 : cfg.n_data_subcarriers + 1]


def channel_estimate(ts_rx: np.ndarray, ts_tx: np.ndarray, step: float = 0.05) -> EqualizerState:
    """Least-squares one-tap estimate from known training symbols.

    Taps are ``mean(Y_i / X_i)`` over the training rows, skipping unloaded
    bins (``X = 0``); bins unloaded in every row get a unit tap, which is
    inert because no data rides on them.

    Raises
    ------
    ValueError
        If the training block is empty or entirely zero.
    """
    rx = np.atleast_2d(np.asarray(ts_rx, dtype=np.complex128))
    tx = np.atleast_2d(np.asarray(ts_tx, dtype=np.complex128))
    if rx.shape != tx.shape or rx.size == 0:
        raise ValueError("training blocks must be matching non-empty arrays")
    if not np.any(tx):
        raise ValueError("training block is all zero")
    loaded = tx != 0
    ratio = np.zeros_like(rx)
    np.divide(rx, tx, out=ratio, where=loaded)
    counts = loaded.sum(axis=0)
    taps = np.ones(rx.shape[1], dtype=np.complex128)
    has_info = counts > 0
    taps[has_info] = ratio.sum(axis=0)[has_info] / counts[has_info]
    return EqualizerState(taps=taps, step=step)


def dd_equalize(
    symbols: np.ndarray, state: EqualizerState, plan: SubcarrierPlan
) -> tuple[np.ndarray, EqualizerState]:
    """One-tap equalization with per-symbol decision-directed tap updates.

    For every data symbol: ``Z_i = Y_i / H_i``, a hard decision is taken on
    the plan's constellation (order ``2**b_i``, scaled by ``sqrt(P_i)``),
    and active taps update as ``H_i <- (1 - mu) H_i + mu * Y_i / Xhat_i``.
    Inactive subcarriers pass through untouched.

    The decisions of a symbol are one call of the lattice slicer over all
    its active subcarriers, whatever their orders, with the plan's
    constants gathered once before the symbol loop.  Like
    ``demap_symbols``, it falls back to the brute-force nearest-point search
    within a guard band of the decision boundaries, so every decision, and
    with it every tap, is the one that search would give, ties going to the
    lowest group index.

    Returns the equalized symbols and the updated state (the input state is
    not modified).
    """
    rows = np.asarray(symbols, dtype=np.complex128)
    if rows.ndim != 2 or rows.shape[1] != plan.n_subcarriers:
        raise ValueError("symbols must be (n_symbols, n_subcarriers)")
    if state.taps.size != plan.n_subcarriers:
        raise ValueError("equalizer taps do not match the plan")
    taps = state.taps.copy()
    mu = state.step
    active = np.flatnonzero(plan.bits)
    if mu == 0.0 or not active.size:
        return rows / taps, EqualizerState(taps=taps, step=mu)

    equalized = np.empty_like(rows)
    inactive = np.flatnonzero(plan.bits == 0)  # their taps never change
    equalized[:, inactive] = rows[:, inactive] / taps[inactive]
    scale = np.sqrt(plan.powers[active])
    decide = _slicer(plan.bits[active], scale)
    received = rows[:, active]
    held = taps[active]
    for k, row in enumerate(received):
        equalized[k, active] = z = row / held
        decisions = _TABLE[decide(z)] * scale
        held = (1 - mu) * held + mu * row / decisions
    taps[active] = held
    return equalized, EqualizerState(taps=taps, step=mu)


def demap_frame(symbols: np.ndarray, plan: SubcarrierPlan) -> np.ndarray:
    """Hard-decide equalized data symbols back into the transmitted bit order.

    The inverse of the modulator's layout: bits come out symbol-major,
    subcarrier-minor, MSB first within each subcarrier's group, so the
    result lines up index-for-index with the payload handed to the
    modulator.

    One lattice slicer, built for the plan's active subcarriers, decides
    them all at once, whatever their orders, a block of symbols per call
    (about ``_CHUNK`` points, so that its temporaries stay in cache).  As
    in ``demap_symbols``, points within a guard band of a decision boundary
    go to the brute-force nearest-point search, so every decision is the
    one that search would give, ties going to the lowest group index.
    """
    rows = np.asarray(symbols, dtype=np.complex128)
    if rows.ndim != 2 or rows.shape[1] != plan.n_subcarriers:
        raise ValueError("symbols must be (n_symbols, n_subcarriers)")
    active = np.flatnonzero(plan.bits)
    orders = plan.bits[active]
    decide = _slicer(orders, np.sqrt(plan.powers[active]))
    first = _TABLE_START[orders]
    # output bit t is bit `shifts[t]` of the group on active subcarrier `owner[t]`
    owner = np.repeat(np.arange(active.size), orders)
    shifts = np.repeat(np.cumsum(orders) - 1, orders) - np.arange(owner.size)
    bits = np.empty((rows.shape[0], owner.size), dtype=np.int8)
    step = max(1, _CHUNK // max(1, active.size))
    for lo in range(0, rows.shape[0], step):
        groups = decide(rows[lo : lo + step, active]) - first
        bits[lo : lo + step] = (groups[:, owner] >> shifts) & 1
    return bits.ravel()


def count_errors(rx_bits: np.ndarray, tx_bits: np.ndarray, plan: SubcarrierPlan) -> BerReport:
    """Exact error count with per-subcarrier attribution.

    Bits are laid out symbol-major, subcarrier-minor (the modulator's
    order), so each symbol contributes ``plan.bits_per_symbol`` bits split
    across active subcarriers in index order.
    """
    rx = np.asarray(rx_bits, dtype=np.int8).ravel()
    tx = np.asarray(tx_bits, dtype=np.int8).ravel()
    if rx.size != tx.size:
        raise ValueError(f"bit streams differ in length: {rx.size} vs {tx.size}")
    bps = plan.bits_per_symbol
    if bps == 0 or rx.size % bps:
        raise ValueError("bit stream length is not a whole number of symbols")
    errors = (rx != tx).astype(np.int64).reshape(-1, bps)

    active = np.flatnonzero(plan.bits > 0)
    starts = np.concatenate(([0], np.cumsum(plan.bits[active])))[:-1].astype(np.intp)
    per_symbol = errors.sum(axis=0)
    segment = np.add.reduceat(per_symbol, starts) if active.size else np.zeros(0)
    per_subcarrier = np.zeros(plan.n_subcarriers, dtype=np.int64)
    per_subcarrier[active] = segment
    return BerReport(
        bit_errors=int(errors.sum()),
        bits_total=int(rx.size),
        per_subcarrier_errors=per_subcarrier,
    )
