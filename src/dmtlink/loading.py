"""SNR estimation and margin-adaptive bit/power loading.

The loading path has two halves.  ``estimate_snr`` turns a received probe
frame (uniform QPSK on every subcarrier) into a per-subcarrier SNR profile
using a least-squares channel estimate.  ``chow_load`` then converts that
profile plus a target bit total into a :class:`~dmtlink.core.SubcarrierPlan`
via the Chow-Cioffi-Bingham margin iteration.  The tests cross-check it
against an independently written greedy loader
(``tests/loading_reference.py``), which is margin-optimal for discrete bit
allocations and therefore lower bounds the power any correct loader needs.

Both loaders share one feasibility criterion: the profile can carry
``sum(min(max_bits, floor(log2(1 + SNR_i / gap))))`` bits at the configured
gap, and requesting more raises :class:`~dmtlink.core.InfeasibleRateError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .core import DmtConfig, InfeasibleRateError, SubcarrierPlan, _freeze

__all__ = [
    "GapConfig",
    "SnrProfile",
    "chow_load",
    "estimate_snr",
    "gap_from_ber",
]

SNR_CAP_LINEAR = 1e5
"""Ceiling applied to SNR estimates (+50 dB) so noiseless desk runs stay finite."""

_MARGIN_ITERATION_CAP = 20
"""Maximum Chow margin iterations before the forced bit adjustment kicks in."""


def gap_from_ber(target_ber: float) -> float:
    """Return the linear SNR gap for square QAM at a target bit error ratio.

    Uses the square-QAM approximation ``gap = Qinv(target_ber / 2)**2 / 3``,
    which is applied uniformly to all constellation orders (the small
    mismatch for cross constellations is absorbed by the loading margin).

    Parameters
    ----------
    target_ber : float
        Desired bit error ratio, in (0, 0.5).

    Returns
    -------
    float
        Linear gap, >= 1 for any target below ``2 * Q(sqrt(3))``.
    """
    if not 0.0 < target_ber < 0.5:
        raise ValueError(f"target_ber must lie in (0, 0.5), got {target_ber}")
    # Qinv(p) = -Phi^-1(p); squaring drops the sign, and Phi^-1(p) keeps the
    # digits that Phi^-1(1 - p) would lose to the subtraction
    return NormalDist().inv_cdf(target_ber / 2.0) ** 2 / 3.0


@dataclass(frozen=True)
class SnrProfile:
    """Per-subcarrier signal-to-noise ratios, as linear power ratios.

    Parameters
    ----------
    snr_linear : numpy.ndarray
        One non-negative linear SNR per data subcarrier.
    """

    snr_linear: np.ndarray

    def __post_init__(self):
        snr = np.array(self.snr_linear, dtype=np.float64, copy=True)
        if snr.ndim != 1 or snr.size == 0:
            raise ValueError("snr_linear must be a non-empty 1-D array")
        if not np.all(np.isfinite(snr)) or np.any(snr < 0):
            raise ValueError("SNR entries must be finite and non-negative")
        object.__setattr__(self, "snr_linear", _freeze(snr))

    @property
    def n(self) -> int:
        """Number of subcarriers covered by the profile."""
        return self.snr_linear.size

    def to_db(self, floor_db: float = -60.0) -> np.ndarray:
        """Return the profile in dB, with zeros clamped to ``floor_db``."""
        return 10.0 * np.log10(np.maximum(self.snr_linear, 10 ** (floor_db / 10)))


@dataclass(frozen=True)
class GapConfig:
    """Gap/margin bundle handed to the loading algorithms.

    Parameters
    ----------
    target_ber : float
        Bit error ratio the loading should achieve on every active
        subcarrier (default 4e-3, a standard pre-FEC threshold).
    gap_linear : float
        Linear SNR gap.  Derived from ``target_ber`` when omitted.
    margin_db : float
        Starting value of the margin iterate used by ``chow_load``.
    """

    target_ber: float = 4e-3
    gap_linear: float = field(default=0.0)
    margin_db: float = 0.0

    def __post_init__(self):
        if self.gap_linear == 0.0:
            object.__setattr__(self, "gap_linear", gap_from_ber(self.target_ber))
        if self.gap_linear < 1.0:
            raise ValueError(f"gap_linear must be >= 1, got {self.gap_linear}")


def estimate_snr(rx_frame: np.ndarray, known_tx: np.ndarray, cfg: DmtConfig) -> SnrProfile:
    """Estimate per-subcarrier SNR from a known probe frame.

    For each subcarrier the channel is first fit by least squares over the
    frame's symbols, ``H_i = sum(Y conj(X)) / sum(|X|^2)``; the SNR is then
    the ratio of the known signal power to the residual power after
    equalizing by that fit, ``SNR_i = E|X_i|^2 / E|Y_i/H_i - X_i|^2``.

    Estimates are capped at +50 dB, and a subcarrier whose received samples
    are all zero reports SNR 0 rather than raising.

    Parameters
    ----------
    rx_frame : numpy.ndarray
        Received frequency-domain symbols, shape (n_symbols, n_subcarriers).
    known_tx : numpy.ndarray
        The transmitted symbols, same shape as ``rx_frame``.
    cfg : DmtConfig
        Supplies the expected subcarrier count.
    """
    rx = np.asarray(rx_frame, dtype=np.complex128)
    tx = np.asarray(known_tx, dtype=np.complex128)
    if rx.shape != tx.shape or rx.ndim != 2:
        raise ValueError(f"rx {rx.shape} and tx {tx.shape} must be matching 2-D arrays")
    if rx.shape[1] != cfg.n_data_subcarriers:
        raise ValueError(
            f"expected {cfg.n_data_subcarriers} subcarriers, got {rx.shape[1]}"
        )

    tx_power = np.mean(np.abs(tx) ** 2, axis=0)
    cross = np.sum(rx * np.conj(tx), axis=0)
    denom = np.sum(np.abs(tx) ** 2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(denom > 0, cross / np.where(denom > 0, denom, 1.0), 0.0)
        equalized = np.where(h != 0, rx / np.where(h != 0, h, 1.0), 0.0)
    residual = np.mean(np.abs(equalized - tx) ** 2, axis=0)

    dead = (h == 0) | (np.max(np.abs(rx), axis=0) == 0)
    with np.errstate(divide="ignore"):
        snr = np.where(residual > 0, tx_power / np.where(residual > 0, residual, 1.0), np.inf)
    snr = np.where(dead, 0.0, np.minimum(snr, SNR_CAP_LINEAR))
    return SnrProfile(snr)


def _bit_capacity(snr: np.ndarray, gap: float, max_bits: int) -> int:
    """Bits per symbol a linear SNR profile can carry at ``gap``.

    ``sum(min(max_bits, floor(log2(1 + SNR_i / gap))))``: the feasibility
    criterion both loaders share.  An infinite SNR carries ``max_bits``.
    """
    ceiling = np.floor(np.log2(1.0 + snr / gap))
    return int(np.sum(np.minimum(ceiling, max_bits).astype(np.int64)))


def _assert_feasible(snr: np.ndarray, b_target: int, gap: float, max_bits: int) -> None:
    """Raise ``InfeasibleRateError`` when the profile cannot carry ``b_target``."""
    achievable = _bit_capacity(snr, gap, max_bits)
    if achievable < b_target:
        raise InfeasibleRateError(
            f"profile supports at most {achievable} bits per symbol at this gap, "
            f"requested {b_target}",
            max_achievable=achievable,
        )


def _powers_for_bits(bits: np.ndarray, snr: np.ndarray, gap: float) -> np.ndarray:
    """Per-carrier power meeting the target BER at the assigned bit counts.

    Powers follow ``P_i = gap * (2**b_i - 1) / SNR_i`` for active carriers
    and are renormalized so they sum to the active-carrier count, matching
    the plan invariant (the common scale becomes the link margin).
    """
    active = bits > 0
    powers = np.zeros_like(snr)
    powers[active] = gap * (2.0 ** bits[active] - 1.0) / snr[active]
    total = powers.sum()
    if total > 0:
        powers *= np.count_nonzero(active) / total
    return powers


def chow_load(
    snr: SnrProfile, b_target: int, gap: GapConfig | None = None, max_bits: int | None = None
) -> SubcarrierPlan:
    """Margin-adaptive Chow-Cioffi-Bingham bit and power loading.

    The margin iterate starts at ``gap.margin_db`` and is updated by
    ``10*log10(2**((assigned - b_target) / n_active))`` after each rounding
    pass, for at most 20 iterations; any leftover mismatch is removed by
    forced single-bit adjustments (decrement the most negative rounding
    diff, increment the most positive, lowest index on ties).  Power is
    then set so every active subcarrier meets the target BER at its
    assigned order, and renormalized to sum to the active-carrier count.

    Parameters
    ----------
    snr : SnrProfile
        Measured per-subcarrier SNR.
    b_target : int
        Exact bit total the returned plan must carry per DMT symbol.
    gap : GapConfig, optional
        Gap/margin configuration; defaults to the 4e-3 target.
    max_bits : int, optional
        Per-subcarrier order ceiling; defaults to ``DmtConfig`` 's limit.

    Raises
    ------
    InfeasibleRateError
        If the profile cannot carry ``b_target`` bits at the configured gap.
    """
    gap = gap or GapConfig()
    max_bits = DmtConfig().max_bits_per_subcarrier if max_bits is None else int(max_bits)
    if b_target < 1:
        raise ValueError(f"b_target must be >= 1, got {b_target}")
    values = snr.snr_linear
    _assert_feasible(values, b_target, gap.gap_linear, max_bits)

    margin_db = gap.margin_db
    usable = values > 0
    bits = np.zeros(snr.n, dtype=np.int64)
    diff = np.zeros(snr.n)
    for _ in range(_MARGIN_ITERATION_CAP):
        ideal = np.zeros(snr.n)
        ideal[usable] = np.log2(
            1.0 + values[usable] / (gap.gap_linear * 10 ** (margin_db / 10))
        )
        bits = np.floor(ideal + 0.5).astype(np.int64)  # round half away from zero
        np.clip(bits, 0, max_bits, out=bits)
        diff = ideal - bits
        assigned = int(bits.sum())
        n_active = max(int(np.count_nonzero(bits)), 1)
        if assigned == b_target:
            break
        margin_db += 10.0 * np.log10(2.0 ** ((assigned - b_target) / n_active))

    # Forced adjustment: trim or grow one bit at a time, repairing the
    # rounding diff locally so the next pick sees the updated state.
    assigned = int(bits.sum())
    while assigned != b_target:
        if assigned > b_target:
            candidate_diff = np.where(bits > 0, diff, np.inf)
            idx = int(np.argmin(candidate_diff))
            bits[idx] -= 1
            diff[idx] += 1.0
            assigned -= 1
        else:
            candidate_diff = np.where(usable & (bits < max_bits), diff, -np.inf)
            idx = int(np.argmax(candidate_diff))
            bits[idx] += 1
            diff[idx] -= 1.0
            assigned += 1

    powers = _powers_for_bits(bits, values, gap.gap_linear)
    return SubcarrierPlan(bits=bits, powers=powers)
