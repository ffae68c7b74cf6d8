"""Tests for domain types, QAM constellations, and frame arithmetic."""

import numpy as np
import pytest
from scipy.stats import norm

from dmtlink.core import (
    BerReport,
    DmtConfig,
    InfeasibleRateError,
    RealWaveform,
    SubcarrierPlan,
    bits_to_groups,
    constellation,
    demap_symbols,
    map_symbols,
    target_bits_per_symbol,
)
from optical_reference import OpticalField
from qam_reference import groups_to_bits

PAPER_CFG = DmtConfig()


class TestConstellations:
    def test_unit_energy_all_orders(self):
        """Mean |point|^2 over every constellation is 1 within 1e-12."""
        for b in range(1, 9):
            energy = np.mean(np.abs(constellation(b)) ** 2)
            assert abs(energy - 1.0) < 1e-12, f"order 2^{b} energy {energy}"

    def test_all_points_distinct(self):
        for b in range(1, 9):
            pts = constellation(b)
            d = np.abs(pts[:, None] - pts[None, :])
            np.fill_diagonal(d, np.inf)
            assert d.min() > 1e-6, f"order 2^{b} has coincident points"

    def test_qpsk_documented_corner(self):
        """Bit group [0,0] maps to the (+,+) unit-energy QPSK corner."""
        (point,) = map_symbols(bits_to_groups([0, 0], 2), 2)
        assert point == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_bpsk_zero_bit(self):
        points = map_symbols(bits_to_groups([0, 1], 1), 1)
        assert points[0] == pytest.approx(1 + 0j)
        assert points[1] == pytest.approx(-1 + 0j)

    def test_gray_property_even_orders(self):
        """Minimum-distance neighbors differ in exactly one bit (square QAM)."""
        for b in (2, 4, 6, 8):
            pts = constellation(b)
            d = np.abs(pts[:, None] - pts[None, :])
            np.fill_diagonal(d, np.inf)
            dmin = d.min()
            ii, jj = np.nonzero(d < dmin * (1 + 1e-9))
            hamming = np.array([bin(i ^ j).count("1") for i, j in zip(ii, jj)])
            assert np.all(hamming == 1), f"order 2^{b} breaks the Gray property"

    def test_roundtrip_exhaustive(self):
        """Demapping the mapped points returns every bit pattern of every order."""
        for b in range(1, 9):
            bits = [(value >> (b - 1 - k)) & 1 for value in range(1 << b) for k in range(b)]
            points = map_symbols(bits_to_groups(bits, b), b)
            assert list(groups_to_bits(demap_symbols(points, b), b)) == bits

    def test_demap_far_point_nearest_quadrant(self):
        assert list(groups_to_bits(demap_symbols([10 + 10j], 2), 2)) == [0, 0]

    def test_demap_tie_breaks_lexicographically(self):
        """A point equidistant from +1 and -1 decides for the smaller group."""
        assert list(groups_to_bits(demap_symbols([0 + 0j], 1), 1)) == [0]

    def test_order_bounds_rejected(self):
        with pytest.raises(ValueError):
            map_symbols(bits_to_groups([0] * 9, 9), 9)
        with pytest.raises(ValueError):
            demap_symbols([0j], 0)

    def test_odd_orders_sit_on_documented_grids(self):
        """Cross-32/128 occupy the standard odd-integer cross lattices."""
        for b, unnorm_energy, extent in ((5, 20.0, 5), (7, 82.0, 11)):
            pts = constellation(b) * np.sqrt(unnorm_energy)
            on_grid = np.allclose(pts.real, np.round(pts.real), atol=1e-9) and np.allclose(
                pts.imag, np.round(pts.imag), atol=1e-9
            )
            assert on_grid, f"order 2^{b} points left the integer lattice"
            assert round(np.abs(pts.real).max()) == extent
            assert round(np.abs(pts.imag).max()) == extent
            # corners of the enclosing square are vacant (cross shape)
            corner = extent + 1j * extent
            assert np.min(np.abs(pts - corner)) > 1.9

    def test_qpsk_monte_carlo_matches_q_function(self):
        """Measured Gray-QPSK BER within 15% of Q(sqrt(SNR)) at 13 dB."""
        rng = np.random.default_rng(20260814)
        n_symbols = 30_000_000
        snr = 10 ** (13 / 10)
        groups = rng.integers(0, 4, n_symbols)
        tx = map_symbols(groups, 2)
        sigma = np.sqrt(1 / (2 * snr))  # unit-energy symbols
        rx = tx + sigma * (rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols))
        decided = demap_symbols(rx, 2)
        bit_errors = np.count_nonzero(
            groups_to_bits(groups, 2) != groups_to_bits(decided, 2)
        )
        ber = bit_errors / (2 * n_symbols)
        theory = norm.sf(np.sqrt(snr))
        assert abs(ber - theory) < 0.15 * theory, f"BER {ber} vs theory {theory}"


class TestBitPacking:
    def test_groups_roundtrip(self):
        rng = np.random.default_rng(7)
        for b in range(1, 9):
            bits = rng.integers(0, 2, 12 * b)
            assert np.array_equal(groups_to_bits(bits_to_groups(bits, b), b), bits)

    def test_msb_first(self):
        assert bits_to_groups(np.array([1, 0, 0]), 3)[0] == 4


class TestFrameGeometry:
    def test_target_bits_paper_rates(self):
        assert target_bits_per_symbol(112e9, PAPER_CFG) == 3793
        assert target_bits_per_symbol(56e9, PAPER_CFG) == 1897

    def test_achieved_rate_not_below_request(self):
        frame_duration = 124 * 2080 / PAPER_CFG.dac_rate  # 124 symbols of 2048 + 32 samples
        for rate in (112e9, 89.6e9, 74.7e9, 64e9, 56e9):
            b = target_bits_per_symbol(rate, PAPER_CFG)
            achieved = b * PAPER_CFG.n_data_symbols / frame_duration
            assert achieved >= rate

    def test_infeasible_rate_reports_capacity(self):
        with pytest.raises(InfeasibleRateError) as err:
            target_bits_per_symbol(240e9, PAPER_CFG)
        assert err.value.max_achievable == 974 * 8


class TestDomainTypes:
    def test_waveform_validation(self):
        with pytest.raises(ValueError):
            RealWaveform(np.zeros(0), 64e9)
        with pytest.raises(ValueError):
            RealWaveform(np.zeros(4), 0.0)
        w = RealWaveform(np.arange(4.0), 64e9)
        assert not w.samples.flags.writeable

    def test_optical_field_power(self):
        f = OpticalField(np.full(8, 2.0 + 0j), 128e9)
        assert f.power() == pytest.approx(4.0)

    def test_dmt_config_invariants(self):
        with pytest.raises(ValueError):
            DmtConfig(n_data_subcarriers=1024)  # exceeds fft/2 - 1
        with pytest.raises(ValueError):
            DmtConfig(cp_ratio=1 / 3)  # non-integer CP length
        assert PAPER_CFG.cp_length == 32

    @pytest.mark.parametrize("name, value", [("dac_rate", np.inf), ("cp_ratio", np.nan)])
    def test_non_finite_field_rejected_by_name(self, name, value):
        """A non-finite modem float is an error naming it, not an overflow later."""
        with pytest.raises(ValueError, match=name):
            DmtConfig(**{name: value})

    def test_negative_cyclic_prefix_rejected_by_name(self):
        """A whole negative prefix length is an error naming cp_ratio, not a
        shape error later in the modulator."""
        with pytest.raises(ValueError, match="cp_ratio"):
            DmtConfig(cp_ratio=-1 / 64)

    def test_plan_power_normalization(self):
        bits = np.array([2, 0, 4])
        with pytest.raises(ValueError):
            SubcarrierPlan(bits, np.array([1.0, 0.0, 0.5]))  # sums to 1.5, not 2
        plan = SubcarrierPlan(bits, np.array([0.5, 0.0, 1.5]))
        assert np.count_nonzero(plan.bits) == 2
        assert plan.bits_per_symbol == 6

    def test_plan_zero_power_iff_zero_bits(self):
        with pytest.raises(ValueError):
            SubcarrierPlan(np.array([2, 2]), np.array([2.0, 0.0]))
        with pytest.raises(ValueError):
            SubcarrierPlan(np.array([0, 2]), np.array([1.0, 1.0]))

    def test_ber_report(self):
        r = BerReport(5, 1000, np.array([3, 2]))
        assert r.ber == pytest.approx(0.005)
        merged = r.merged(BerReport(1, 1000, np.array([0, 1])))
        assert merged.bit_errors == 6 and merged.bits_total == 2000
        assert list(merged.per_subcarrier_errors) == [3, 3]
        with pytest.raises(ValueError):
            BerReport(1, 0)
