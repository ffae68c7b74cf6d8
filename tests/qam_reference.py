"""The brute-force hard decision: the reference the lattice slicer is checked against.

``demap_symbols`` is the argmin over an order's whole table, as it was first
written; ``dd_equalize`` and ``demap_frame`` are the equalizer and demapper
built on it, one decision call per order and per symbol.  The lattice slicer
of ``dmtlink.core`` must give the same group index on every point, and the
receiver functions of ``dmtlink.rxdsp`` the same arrays, bit for bit.
``groups_to_bits`` unpacks a decided group index into its bits.
"""

import numpy as np

from dmtlink.core import constellation, map_symbols
from dmtlink.rxdsp import EqualizerState


def groups_to_bits(groups: np.ndarray, b: int) -> np.ndarray:
    """Unpack integer groups into an MSB-first bit sequence."""
    groups = np.asarray(groups, dtype=np.int64)
    shifts = np.arange(b - 1, -1, -1, dtype=np.int64)
    return ((groups[:, None] >> shifts) & 1).reshape(-1)


def demap_symbols(points: np.ndarray, b: int) -> np.ndarray:
    """Vectorized hard decision: nearest constellation point's group index.

    Ties resolve to the lowest group index (lexicographically smallest bit
    group) because argmin keeps the first minimum.
    """
    table = constellation(b)
    points = np.asarray(points, dtype=np.complex128).ravel()
    out = np.empty(points.size, dtype=np.int64)
    chunk = max(1, (1 << 21) // table.size)
    tx, ty = table.real, table.imag
    for lo in range(0, points.size, chunk):
        seg = points[lo : lo + chunk]
        d2 = (seg.real[:, None] - tx) ** 2 + (seg.imag[:, None] - ty) ** 2
        out[lo : lo + chunk] = np.argmin(d2, axis=1)
    return out


def dd_equalize(symbols, state, plan):
    """One-tap equalizer, one brute-force decision call per order and symbol."""
    rows = np.asarray(symbols, dtype=np.complex128)
    taps = state.taps.copy()
    mu = state.step
    scale = np.sqrt(plan.powers)
    active = plan.bits > 0
    by_order = {
        int(b): np.flatnonzero(plan.bits == b) for b in np.unique(plan.bits[active])
    }

    equalized = np.empty_like(rows)
    for k in range(rows.shape[0]):
        z = rows[k] / taps
        equalized[k] = z
        if mu == 0.0:
            continue
        decisions = np.zeros(plan.n_subcarriers, dtype=np.complex128)
        for b, cols in by_order.items():
            nearest = demap_symbols(z[cols] / scale[cols], b)
            decisions[cols] = map_symbols(nearest, b) * scale[cols]
        taps[active] = (1 - mu) * taps[active] + mu * rows[k, active] / decisions[active]
    return equalized, EqualizerState(taps=taps, step=mu)


def demap_frame(symbols, plan):
    """Bits of the equalized symbols, one brute-force call per order."""
    rows = np.asarray(symbols, dtype=np.complex128)
    n_sym = rows.shape[0]
    starts = np.cumsum(plan.bits) - plan.bits
    scale = np.sqrt(plan.powers)
    bits = np.zeros((n_sym, plan.bits_per_symbol), dtype=np.int8)
    for b in np.unique(plan.bits[plan.bits > 0]):
        cols = np.flatnonzero(plan.bits == b)
        groups = demap_symbols((rows[:, cols] / scale[cols]).ravel(), int(b))
        unpacked = groups_to_bits(groups, int(b)).reshape(n_sym, cols.size, int(b))
        targets = starts[cols][:, None] + np.arange(b)[None, :]
        bits[:, targets.ravel()] = unpacked.reshape(n_sym, -1)
    return bits.ravel()
