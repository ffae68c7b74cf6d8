"""Domain types, QAM constellations, and the frame's rate arithmetic.

Everything downstream (modulation, loading, channel, receiver) shares the
value types defined here.  All types are immutable after construction and
safe to pass between worker processes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "RealWaveform",
    "DmtConfig",
    "SubcarrierPlan",
    "BerReport",
    "InfeasibleRateError",
    "constellation",
    "map_symbols",
    "demap_symbols",
    "bits_to_groups",
    "target_bits_per_symbol",
]

MAX_QAM_BITS = 8


class InfeasibleRateError(ValueError):
    """Requested bit total cannot be carried by the configured format.

    Attributes
    ----------
    max_achievable : int
        Largest bit total the format (or SNR profile) supports.
    """

    def __init__(self, message: str, max_achievable: int = 0):
        super().__init__(message)
        self.max_achievable = int(max_achievable)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class RealWaveform:
    """Uniformly sampled real-valued time series (electrical domain)."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = _freeze(np.asarray(self.samples, dtype=np.float64))
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a nonempty 1-D sequence")
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.samples**2)))


@dataclass(frozen=True)
class DmtConfig:
    """Modulation-format parameters of one DMT channel."""

    fft_size: int = 2048
    n_data_subcarriers: int = 974
    cp_ratio: float = 1.0 / 64.0
    n_data_symbols: int = 119
    n_training_symbols: int = 5
    dac_rate: float = 64e9
    clipping_ratio_db: float = 10.0
    max_bits_per_subcarrier: int = MAX_QAM_BITS

    def __post_init__(self):
        if self.fft_size < 4 or self.fft_size % 2:
            raise ValueError("fft_size must be an even count >= 4")
        usable = self.fft_size // 2 - 1
        if not 1 <= self.n_data_subcarriers <= usable:
            raise ValueError(
                f"n_data_subcarriers must be in [1, {usable}] "
                "(Hermitian symmetry leaves fft_size/2 - 1 usable bins)"
            )
        cp = self.cp_ratio * self.fft_size
        if not math.isfinite(cp) or abs(cp - round(cp)) > 1e-9:
            raise ValueError("cp_ratio * fft_size must be an integer sample count")
        if cp < 0:
            raise ValueError(f"cp_ratio must not be negative, got {self.cp_ratio!r}")
        if self.n_data_symbols < 1 or self.n_training_symbols < 1:
            raise ValueError("symbol counts must be positive")
        if not 0 < self.dac_rate < math.inf:
            raise ValueError(f"dac_rate must be positive and finite, got {self.dac_rate!r}")
        if not self.clipping_ratio_db > 0:
            raise ValueError("clipping_ratio_db must be positive (may be inf)")
        if not 1 <= self.max_bits_per_subcarrier <= MAX_QAM_BITS:
            raise ValueError(f"max_bits_per_subcarrier must be in [1, {MAX_QAM_BITS}]")

    @property
    def cp_length(self) -> int:
        return int(round(self.cp_ratio * self.fft_size))


@dataclass(frozen=True)
class SubcarrierPlan:
    """Per-subcarrier bit count and power weight produced by loading."""

    bits: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        bits = _freeze(np.asarray(self.bits, dtype=np.int64))
        powers = _freeze(np.asarray(self.powers, dtype=np.float64))
        if bits.shape != powers.shape or bits.ndim != 1:
            raise ValueError("bits and powers must be 1-D and equally long")
        if bits.min(initial=0) < 0 or bits.max(initial=0) > MAX_QAM_BITS:
            raise ValueError(f"bit counts must lie in [0, {MAX_QAM_BITS}]")
        if np.any(powers < 0):
            raise ValueError("powers must be nonnegative")
        if np.any((powers == 0) != (bits == 0)):
            raise ValueError("P_i = 0 exactly when b_i = 0")
        n_active = int(np.count_nonzero(bits))
        if n_active:
            total = float(powers.sum())
            if abs(total - n_active) > 1e-9 * n_active:
                raise ValueError(
                    f"sum(powers) = {total} must equal n_active = {n_active}"
                )
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "powers", powers)

    @property
    def n_subcarriers(self) -> int:
        return self.bits.size

    @property
    def bits_per_symbol(self) -> int:
        return int(self.bits.sum())

    @classmethod
    def uniform(cls, n_subcarriers: int, bits: int = 2) -> "SubcarrierPlan":
        """Uniform plan: every subcarrier carries `bits` at unit power."""
        return cls(
            bits=np.full(n_subcarriers, bits, dtype=np.int64),
            powers=np.ones(n_subcarriers),
        )


@dataclass(frozen=True)
class BerReport:
    """Counted bit errors for one measured condition."""

    bit_errors: int
    bits_total: int
    per_subcarrier_errors: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.bits_total <= 0:
            raise ValueError("bits_total must be positive")
        if self.bit_errors < 0 or self.bit_errors > self.bits_total:
            raise ValueError("bit_errors must lie in [0, bits_total]")
        per_sc = self.per_subcarrier_errors
        if per_sc is None:
            per_sc = np.zeros(0, dtype=np.int64)
        object.__setattr__(self, "per_subcarrier_errors", _freeze(np.asarray(per_sc, dtype=np.int64)))
        object.__setattr__(self, "bit_errors", int(self.bit_errors))
        object.__setattr__(self, "bits_total", int(self.bits_total))

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_total

    def merged(self, other: "BerReport") -> "BerReport":
        """Pooled counts of two measurements of the same condition."""
        a, b = self.per_subcarrier_errors, other.per_subcarrier_errors
        if a.size != b.size:
            n = max(a.size, b.size)
            a = np.pad(a, (0, n - a.size))
            b = np.pad(b, (0, n - b.size))
        return BerReport(
            bit_errors=self.bit_errors + other.bit_errors,
            bits_total=self.bits_total + other.bits_total,
            per_subcarrier_errors=a + b,
        )


# ---------------------------------------------------------------------------
# QAM constellations
#
# Conventions (the bit group is MSB-first; its integer value indexes the
# constellation table):
#   b = 1           BPSK on the real axis, bit 0 -> +1.
#   b even          square QAM; the first b/2 bits Gray-select the in-phase
#                   level, the last b/2 bits the quadrature level.  Levels
#                   descend from +(M-1) for the all-zero group, so [0,0] maps
#                   to the (+,+) corner.
#   b = 3           rectangular 4x2 QAM (Gray per axis), the asymmetric
#                   8-point constellation.
#   b = 5, 7        cross constellations (32/128-QAM).  Built from the Gray
#                   rectangle of 2^((b+1)/2) x 2^((b-1)/2) columns/rows by
#                   folding the outer columns onto top/bottom wings:
#                   |x| > x_core maps to (sign(x)*|y|, sign(y)*(|x|-shift)).
#                   The fold keeps vertical/horizontal neighbors within a
#                   folded block 1 bit apart (quasi-Gray); only wing/core
#                   seams differ in 2 bits.
# All constellations are normalized to unit average energy.
# ---------------------------------------------------------------------------


def _gray_to_binary(g: np.ndarray) -> np.ndarray:
    b = g.copy()
    shift = 1
    while shift < 16:
        b ^= b >> shift
        shift <<= 1
    return b


def _pam_levels(idx: np.ndarray, n_levels: int) -> np.ndarray:
    """Gray-labelled PAM: group value -> amplitude, all-zero -> most positive."""
    pos = _gray_to_binary(idx)
    return (n_levels - 1 - 2 * pos).astype(np.float64)


def _build_constellation(b: int) -> np.ndarray:
    labels = np.arange(1 << b)
    if b == 1:
        points = _pam_levels(labels, 2).astype(np.complex128)
    elif b % 2 == 0:
        half = b // 2
        i_levels = _pam_levels(labels >> half, 1 << half)
        q_levels = _pam_levels(labels & ((1 << half) - 1), 1 << half)
        points = i_levels + 1j * q_levels
    else:
        col_bits = (b + 1) // 2
        row_bits = (b - 1) // 2
        x = _pam_levels(labels >> row_bits, 1 << col_bits)
        y = _pam_levels(labels & ((1 << row_bits) - 1), 1 << row_bits)
        if b >= 5:
            n_cols = 1 << col_bits
            x_core = 3 * n_cols // 4 - 1
            y_max = (1 << row_bits) - 1
            shift = x_core - y_max
            outer = np.abs(x) > x_core
            fold_x = np.sign(x) * np.abs(y)
            fold_y = np.sign(y) * (np.abs(x) - shift)
            x = np.where(outer, fold_x, x)
            y = np.where(outer, fold_y, y)
        points = x + 1j * y
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


_CONSTELLATIONS = {b: _freeze(_build_constellation(b)) for b in range(1, MAX_QAM_BITS + 1)}


def constellation(b: int) -> np.ndarray:
    """Unit-energy constellation table for order 2^b, indexed by bit group."""
    if not 1 <= b <= MAX_QAM_BITS:
        raise ValueError(f"b must lie in [1, {MAX_QAM_BITS}], got {b}")
    return _CONSTELLATIONS[b]


def bits_to_groups(bits: np.ndarray, b: int) -> np.ndarray:
    """Pack an MSB-first bit sequence into integer groups of width b."""
    bits = np.asarray(bits, dtype=np.int64).reshape(-1, b)
    weights = 1 << np.arange(b - 1, -1, -1, dtype=np.int64)
    return bits @ weights


def map_symbols(groups: np.ndarray, b: int) -> np.ndarray:
    """Vectorized bit-group-index -> constellation-point lookup."""
    return constellation(b)[np.asarray(groups, dtype=np.int64)]


def demap_symbols(points: np.ndarray, b) -> np.ndarray:
    """Vectorized hard decision: nearest constellation point's group index.

    Ties resolve to the lowest group index (lexicographically smallest bit
    group), as an argmin over the table that keeps the first minimum would.
    ``b`` is an order or an integer array of orders broadcast against
    ``points``, so one call can decide a mix of orders; the result is flat.

    The decision is the lattice slicer described above ``_slicer``: O(1)
    per point, and exact to that argmin on every point, ties included.
    """
    orders = np.asarray(b)
    if not np.issubdtype(orders.dtype, np.integer):
        raise ValueError(f"b must be an integer order, got {orders.dtype}")
    if orders.size and not 1 <= orders.min() <= orders.max() <= MAX_QAM_BITS:
        found = sorted(set(orders.ravel().tolist()))
        raise ValueError(f"b must lie in [1, {MAX_QAM_BITS}], got {found}")
    points, orders = np.broadcast_arrays(np.asarray(points, dtype=np.complex128), orders)
    points, orders = points.reshape(-1), orders.reshape(-1)
    out = np.empty(points.size, dtype=np.int64)
    for lo in range(0, points.size, _CHUNK):
        seg = slice(lo, lo + _CHUNK)
        out[seg] = _slicer(orders[seg])(points[seg]) - _TABLE_START[orders[seg]]
    return out


# ---------------------------------------------------------------------------
# Hard decisions
#
# Scaled by its order's factor, every table sits on the odd-integer lattice
# (BPSK's imaginary part is 0).  The nearest point of a rectangular table is
# the nearest odd level on each axis, clipped to the table's extent.  A cross
# table (orders 5 and 7) is the union of two rectangles, |X| <= 5, |Y| <= 3
# and |X| <= 3, |Y| <= 5 for 32-cross (11 and 7 for 128-cross); its nearest
# point is the closer of the two rectangles' nearest points, measured with
# the argmin's own expression (re - tx)**2 + (im - ty)**2, the lower group
# index on a tie.
#
# In half-lattice units w, decision boundaries fall on the integers, so
# floor(w) names a cell, and a lookup table per order and rectangle, built
# below from the tables themselves, holds the point each cell decides for.
#
# Guard band: the argmin compares rounded distances, so on a boundary, or
# within rounding of one, it may keep a point the exact rule would not.  A
# point within _BAND of a boundary on either axis, or beyond _FAR of the
# origin (clamped onto that boundary), including NaN and infinite points, is
# decided by the argmin itself on its order's table.  Outside the band every
# other point is farther than the nearest by at least 8e-9 squared lattice
# units, over a thousand times the rounding of the distances within _FAR.
# ---------------------------------------------------------------------------

_CHUNK = 1 << 14  # points per decision call, so that its temporaries stay in cache
_BAND = 1e-9
_FAR = 16
_SPAN = 2 * _FAR + 1  # cells per axis of each lookup table

_TABLE = np.concatenate([_CONSTELLATIONS[b] for b in range(1, MAX_QAM_BITS + 1)])
"""Every table end to end: order b's group g is ``_TABLE[_TABLE_START[b] + g]``."""
_TABLE_START = np.array([0] + [(1 << b) - 2 for b in range(1, MAX_QAM_BITS + 1)])


# Built on first use, not at import: its numpy calls would otherwise add
# about 0.5 MB to the resident set before the first frame, which sets a
# run's peak.
@functools.cache
def _lattice_tables():
    """Half-lattice factor and cross flag per order, and the cells' decisions.

    ``cells[r, b, i + _FAR, j + _FAR]`` is the ``_TABLE`` index that
    rectangle ``r`` of order ``b`` decides for on cell ``(i, j)``, where
    ``w`` lies in ``[i, i + 1) x [j, j + 1)``; it is returned flat.  A
    rectangular table is its own two rectangles.
    """
    half = np.ones(MAX_QAM_BITS + 1)
    cross = np.zeros(MAX_QAM_BITS + 1, dtype=bool)
    cells = np.zeros((2, MAX_QAM_BITS + 1, _SPAN, _SPAN), dtype=np.int16)
    odd = 2 * np.arange(-_FAR, _FAR + 1) + 1  # the odd level at the centre of each cell
    for b in range(1, MAX_QAM_BITS + 1):
        table = _CONSTELLATIONS[b]
        scale = 1.0 / np.abs(table.real).min()
        xy = np.stack([table.real, table.imag], axis=-1) * scale
        lattice = np.rint(xy).astype(np.int64)
        extent = np.abs(lattice).max(axis=0)
        if np.abs(xy - lattice).max() > 1e-9 or np.any((lattice + extent) % 2):
            raise AssertionError(f"order {b} left the odd-integer lattice")
        labels = np.full(extent + 1, -1)
        labels[tuple(((lattice + extent) // 2).T)] = _TABLE_START[b] + np.arange(table.size)
        # the wings of a cross reach past its core on one axis at a time
        core = np.abs(lattice[np.abs(lattice[:, 0]) == extent[0], 1]).max()
        cross[b] = labels.min() < 0
        rects = [(extent[0], core), (core, extent[1])] if cross[b] else [extent, extent]
        for r, (ex, ey) in enumerate(rects):
            x = (np.clip(odd, -ex, ex) + extent[0]) // 2
            y = (np.clip(odd, -ey, ey) + extent[1]) // 2
            cells[r, b] = labels[x[:, None], y[None, :]]
        decided = set(cells[:, b].ravel().tolist())
        if decided != set(range(_TABLE_START[b], _TABLE_START[b] + table.size)):
            raise AssertionError(f"order {b} is not the union of two rectangles")
        half[b] = scale / 2
    return _freeze(half), _freeze(cross), _freeze(cells.ravel())


def _search_nearest(points: np.ndarray, b: int) -> np.ndarray:
    """Brute-force hard decision: the argmin over order b's whole table."""
    table = constellation(b)
    out = np.empty(points.size, dtype=np.int64)
    chunk = max(1, (1 << 21) // table.size)
    tx, ty = table.real, table.imag
    for lo in range(0, points.size, chunk):
        seg = points[lo : lo + chunk]
        d2 = (seg.real[:, None] - tx) ** 2 + (seg.imag[:, None] - ty) ** 2
        out[lo : lo + chunk] = np.argmin(d2, axis=1)
    return out


def _slicer(orders: np.ndarray, scale: np.ndarray | None = None):
    """Decision function for symbols whose columns carry ``orders``.

    Column ``c`` carries order ``orders[c]`` (checked by the caller to lie
    in [1, MAX_QAM_BITS]) scaled by ``scale[c]`` (1 when ``scale`` is None):
    its point is decided as ``z / scale[c]`` would be on the unit table.
    Every per-column constant is gathered here, once; the returned
    ``decide(z)`` takes complex symbols of shape ``(..., len(orders))`` and
    returns, per symbol, the ``_TABLE`` index of its decision.  Folding the
    scale into the lattice factor rounds ``w`` differently from ``(z /
    scale) * factor`` by a few ulp, far inside the guard band; the argmin
    and the cross comparison get ``z / scale`` itself.
    """
    orders = np.asarray(orders)
    half, is_cross, cells = _lattice_tables()
    factor = half[orders] if scale is None else half[orders] / scale
    factor = np.repeat(factor, 2).reshape(-1, 2)
    first = (orders * _SPAN + _FAR) * _SPAN + _FAR  # cell (0, 0) of rectangle 0
    cross = np.flatnonzero(is_cross[orders])
    second = cells.size // 2  # rectangle 1's cells follow rectangle 0's

    def unscaled(z, cols=slice(None)):
        return z[..., cols] if scale is None else z[..., cols] / scale[cols]

    def decide(z: np.ndarray) -> np.ndarray:
        z = np.ascontiguousarray(z, dtype=np.complex128)
        w = z.view(np.float64).reshape(z.shape + (2,)) * factor
        np.minimum(w, _FAR, out=w)  # far and infinite points land on a boundary
        np.maximum(w, -_FAR, out=w)
        level = np.floor(w)
        w -= level  # offset into the cell, NaN for NaN points
        near = None
        if w.size and not (w.min() > _BAND and w.max() < 1 - _BAND):
            near = ~((w > _BAND) & (w < 1 - _BAND)).all(axis=-1)
            level[near] = 0
        cell = (level[..., 0] * _SPAN + level[..., 1] + first).astype(np.intp)
        found = cells[cell]
        if cross.size:
            one, two = found[..., cross], cells[cell[..., cross] + second]
            p, t1, t2 = unscaled(z, cross), _TABLE[one], _TABLE[two]
            d1 = (p.real - t1.real) ** 2 + (p.imag - t1.imag) ** 2
            d2 = (p.real - t2.real) ** 2 + (p.imag - t2.imag) ** 2
            found[..., cross] = np.where((d2 < d1) | ((d2 == d1) & (two < one)), two, one)
        if near is not None:
            which, points = np.broadcast_to(orders, near.shape)[near], unscaled(z)[near]
            fixed = np.empty(points.size, dtype=np.intp)
            for b in np.unique(which):
                sel = which == b
                fixed[sel] = _TABLE_START[b] + _search_nearest(points[sel], int(b))
            found[near] = fixed
        return found

    return decide


def target_bits_per_symbol(net_rate: float, cfg: DmtConfig) -> int:
    """Bits each data symbol must carry to reach `net_rate` after overheads.

    Rounds up (the achieved net rate is >= the requested one); TS and CP
    overheads are included through the frame's sample count.
    """
    if not net_rate > 0:
        raise ValueError("net_rate must be positive")
    samples_per_frame = (cfg.fft_size + cfg.cp_length) * (
        cfg.n_data_symbols + cfg.n_training_symbols
    )
    # exact rational ceil: avoids float boundary drift for decimal rates
    b_target = math.ceil(
        Fraction(net_rate) * samples_per_frame / (Fraction(cfg.dac_rate) * cfg.n_data_symbols)
    )
    capacity = cfg.n_data_subcarriers * cfg.max_bits_per_subcarrier
    if b_target > capacity:
        raise InfeasibleRateError(
            f"net rate {net_rate:.4g} bit/s needs {b_target} bits/symbol, "
            f"format carries at most {capacity}",
            max_achievable=capacity,
        )
    return b_target
