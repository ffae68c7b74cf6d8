"""The greedy margin-optimal loader: the reference ``chow_load`` is checked against.

Written independently of the Chow margin iteration, it shares only the
package's feasibility criterion and its power-for-bits formula, so a total
or power that ``chow_load`` gets wrong shows against it.
"""

import heapq

import numpy as np

from dmtlink.core import DmtConfig, SubcarrierPlan
from dmtlink.loading import GapConfig, SnrProfile, _assert_feasible, _powers_for_bits


def levin_campello_oracle(
    snr: SnrProfile, b_target: int, gap: GapConfig | None = None, max_bits: int | None = None
) -> SubcarrierPlan:
    """Greedy margin-optimal discrete loading, used as a reference loader.

    Grants one bit at a time to the subcarrier with the smallest incremental
    power cost ``gap * 2**b_i / SNR_i`` until ``b_target`` bits are placed
    (lowest index wins ties).  Because the incremental costs are increasing
    in ``b_i``, the greedy allocation minimizes total power over all
    discrete allocations carrying ``b_target`` bits.

    Parameters and errors match :func:`chow_load`.
    """
    gap = gap or GapConfig()
    max_bits = DmtConfig().max_bits_per_subcarrier if max_bits is None else int(max_bits)
    if b_target < 1:
        raise ValueError(f"b_target must be >= 1, got {b_target}")
    values = snr.snr_linear
    _assert_feasible(values, b_target, gap.gap_linear, max_bits)

    bits = np.zeros(snr.n, dtype=np.int64)
    heap: list[tuple[float, int]] = [
        (gap.gap_linear / values[i], i) for i in range(snr.n) if values[i] > 0
    ]
    heapq.heapify(heap)
    placed = 0
    while placed < b_target:
        cost, idx = heapq.heappop(heap)
        bits[idx] += 1
        placed += 1
        if bits[idx] < max_bits:
            heapq.heappush(heap, (cost * 2.0, idx))

    powers = _powers_for_bits(bits, values, gap.gap_linear)
    return SubcarrierPlan(bits=bits, powers=powers)
