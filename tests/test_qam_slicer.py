"""The lattice slicer against the brute-force argmin of ``qam_reference``.

Every comparison is exact: the same group index on every point, and the same
equalized symbols, taps and bits, bit for bit.
"""

import numpy as np
import pytest

import qam_reference as reference
from dmtlink.core import SubcarrierPlan, constellation, demap_symbols, map_symbols
from dmtlink.rxdsp import EqualizerState, dd_equalize, demap_frame

ORDERS = range(1, 9)


def _noisy(b, n, sigma, rng):
    table = constellation(b)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return table[rng.integers(0, table.size, n)] + sigma * noise


def _midpoints(b):
    table = constellation(b)
    return ((table[:, None] + table[None, :]) / 2).ravel()


class TestDemapSymbols:
    @pytest.mark.parametrize("b", ORDERS)
    @pytest.mark.parametrize("sigma", [0.02, 0.2, 1.0, 4.0])
    def test_random_points(self, b, sigma):
        points = _noisy(b, 20_000, sigma, np.random.default_rng(100 * b + int(10 * sigma)))
        assert np.array_equal(demap_symbols(points, b), reference.demap_symbols(points, b))

    @pytest.mark.parametrize("b", ORDERS)
    def test_every_pairwise_midpoint(self, b):
        """Midpoints of two table points sit on a decision boundary, or are
        a table point themselves; ties go to the lowest group index."""
        points = _midpoints(b)
        assert np.array_equal(demap_symbols(points, b), reference.demap_symbols(points, b))

    @pytest.mark.parametrize("b", ORDERS)
    def test_near_every_midpoint(self, b):
        """Just off each boundary, on both sides, inside and outside the band."""
        points = np.unique(_midpoints(b))
        offsets = [sign * d * step for d in (1e-15, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6)
                   for sign in (1, -1) for step in (1, 1j, 1 + 1j)]
        points = (points[:, None] + np.array(offsets)).ravel()
        assert np.array_equal(demap_symbols(points, b), reference.demap_symbols(points, b))

    @pytest.mark.parametrize("b", ORDERS)
    def test_far_outside_and_not_finite(self, b):
        table = constellation(b)
        far = np.concatenate([table * 10.0**k for k in range(13)])
        far = np.concatenate([far, far + (0.3 + 0.1j), far * (1 + 1e-9j), far.conj() * 1j])
        odd = np.array([np.inf, -np.inf, np.nan, 1j * np.inf, complex(np.inf, -np.inf),
                        complex(np.nan, 1.0), complex(1.0, np.nan)])
        points = np.concatenate([far, odd])
        assert np.array_equal(demap_symbols(points, b), reference.demap_symbols(points, b))

    @pytest.mark.parametrize("b", [5, 7])
    def test_cross_corners(self, b):
        """Beyond a cross's empty corners the two rectangles' nearest points
        compete; on the diagonals they are equally far."""
        table = constellation(b)
        unit = np.abs(table.real).min()
        t = np.linspace(0, 30, 6001) * unit
        rng = np.random.default_rng(b)
        points = np.concatenate(
            [t * (1 + 1j), t * (1 - 1j), -t * (1 + 1j), t + 1j * (t + unit), t * (1 + 1j)
             + rng.uniform(-0.5, 0.5, t.size) * unit]
        )
        assert np.array_equal(demap_symbols(points, b), reference.demap_symbols(points, b))

    def test_mixed_orders_in_one_call(self):
        rng = np.random.default_rng(8)
        orders = rng.integers(1, 9, 30_000)
        points = np.empty(orders.size, dtype=np.complex128)
        for b in ORDERS:
            sel = orders == b
            points[sel] = _noisy(b, np.count_nonzero(sel), 0.3, rng)
        points[:2_000] = np.concatenate([np.resize(_midpoints(b), 250) for b in ORDERS])
        orders[:2_000] = np.repeat(np.arange(1, 9), 250)
        mixed = demap_symbols(points, orders)
        expected = np.empty_like(mixed)
        for b in ORDERS:
            sel = orders == b
            expected[sel] = reference.demap_symbols(points[sel], b)
        assert np.array_equal(mixed, expected)

    def test_orders_broadcast_against_points(self):
        """A row of orders against a block of points decides column by column."""
        rng = np.random.default_rng(9)
        orders = np.arange(1, 9)
        points = rng.standard_normal((50, 8)) + 1j * rng.standard_normal((50, 8))
        decided = demap_symbols(points, orders).reshape(50, 8)
        for col, b in enumerate(orders):
            assert np.array_equal(decided[:, col], reference.demap_symbols(points[:, col], b))

    def test_orders_must_be_integers_in_range(self):
        with pytest.raises(ValueError):
            demap_symbols([0j, 1j], [2, 9])
        with pytest.raises(ValueError):
            demap_symbols([0j], 2.0)
        with pytest.raises(ValueError):
            demap_symbols([], 0)


def _random_plan(rng, n=300):
    bits = rng.integers(0, 9, n)
    bits[:9] = np.arange(9)
    powers = np.where(bits > 0, rng.uniform(0.3, 3.0, n), 0.0)
    powers *= np.count_nonzero(bits) / powers.sum()
    return SubcarrierPlan(bits=bits, powers=powers)


def _received(plan, n_sym, rng, sigma):
    """The plan's scaled points through a random channel, with noise."""
    points = np.zeros((n_sym, plan.n_subcarriers), dtype=np.complex128)
    for b in np.unique(plan.bits[plan.bits > 0]):
        cols = np.flatnonzero(plan.bits == b)
        groups = rng.integers(0, 1 << int(b), (n_sym, cols.size))
        points[:, cols] = map_symbols(groups.ravel(), int(b)).reshape(n_sym, -1)
    h = (1 + 0.2 * rng.standard_normal(plan.n_subcarriers)) * np.exp(
        1j * rng.uniform(-0.3, 0.3, plan.n_subcarriers)
    )
    noise = rng.standard_normal(points.shape) + 1j * rng.standard_normal(points.shape)
    return (points * np.sqrt(plan.powers) + sigma * noise) * h, h


class TestReceiverAgainstReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mu", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("sigma", [0.05, 0.5])
    def test_dd_equalize_bit_identical(self, seed, mu, sigma):
        rng = np.random.default_rng(seed)
        plan = _random_plan(rng)
        rows, h = _received(plan, 40, rng, sigma)
        state = EqualizerState(h * (1 + 0.05 * rng.standard_normal(h.size)), step=mu)
        equalized, after = dd_equalize(rows, state, plan)
        expected, expected_after = reference.dd_equalize(rows, state, plan)
        assert np.array_equal(equalized, expected)
        assert np.array_equal(after.taps, expected_after.taps)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    @pytest.mark.parametrize("sigma", [0.05, 0.5, 2.0])
    def test_demap_frame_bit_identical(self, seed, sigma):
        rng = np.random.default_rng(seed)
        plan = _random_plan(rng)
        rows, _ = _received(plan, 119, rng, sigma)
        bits = demap_frame(rows, plan)
        assert bits.dtype == np.int8
        assert np.array_equal(bits, reference.demap_frame(rows, plan))

    def test_plans_without_active_subcarriers(self):
        plan = SubcarrierPlan(bits=np.zeros(8, dtype=np.int64), powers=np.zeros(8))
        rows = np.ones((3, 8), dtype=np.complex128)
        state = EqualizerState(np.full(8, 2.0 + 0j), step=0.5)
        equalized, after = dd_equalize(rows, state, plan)
        expected, expected_after = reference.dd_equalize(rows, state, plan)
        assert np.array_equal(equalized, expected)
        assert np.array_equal(after.taps, expected_after.taps)
        assert demap_frame(rows, plan).size == 0
