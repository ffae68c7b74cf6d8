"""Tests for SNR estimation, the gap formula, and the two bit loaders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from dmtlink.core import DmtConfig, InfeasibleRateError
from dmtlink.loading import (
    SNR_CAP_LINEAR,
    GapConfig,
    SnrProfile,
    _bit_capacity,
    chow_load,
    estimate_snr,
    gap_from_ber,
)
from loading_reference import levin_campello_oracle

CFG = DmtConfig()


def _prenorm_power(plan, snr, gap):
    """Total un-normalized power implied by the gap model for a plan."""
    active = plan.bits > 0
    return np.sum(gap * (2.0 ** plan.bits[active] - 1.0) / snr.snr_linear[active])


def _predicted_ber(plan, snr):
    """Gap-model BER per active carrier from assigned bits and powers."""
    active = plan.bits > 0
    margin = plan.powers[active] * snr.snr_linear[active] / (2.0 ** plan.bits[active] - 1.0)
    return 2.0 * norm.sf(np.sqrt(3.0 * margin))


class TestGapFromBer:
    def test_reference_value(self):
        """Gap at the 4e-3 pre-FEC threshold is 2.761 (4.41 dB).

        Over targets from 1e-9 to 0.49 it matches scipy's inverse Q function
        to 1e-14 relative.
        """
        gap = gap_from_ber(4e-3)
        assert gap == pytest.approx(2.7613, rel=1e-3)
        assert 10 * np.log10(gap) == pytest.approx(4.411, abs=5e-3)
        for ber in np.geomspace(1e-9, 0.49, 200):
            expected = norm.isf(ber / 2) ** 2 / 3
            assert abs(gap_from_ber(ber) / expected - 1) <= 1e-14

    def test_unit_gap_identity(self):
        """The BER whose inverse-Q equals sqrt(3) maps to gap exactly 1."""
        ber = 2 * norm.sf(np.sqrt(3.0))
        assert gap_from_ber(ber) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_decreasing_in_ber(self):
        assert gap_from_ber(1e-4) > gap_from_ber(1e-2)

    def test_rejects_out_of_range(self):
        for bad in (0.0, 0.5, -1e-3, 0.7):
            with pytest.raises(ValueError):
                gap_from_ber(bad)

    def test_gap_config_derives_gap(self):
        gap = GapConfig(target_ber=4e-3)
        assert gap.gap_linear == pytest.approx(gap_from_ber(4e-3))
        assert gap.margin_db == 0.0


class TestEstimateSnr:
    def _probe(self, rng, n_symbols=119):
        points = (rng.integers(0, 2, (n_symbols, CFG.n_data_subcarriers)) * 2 - 1) + 1j * (
            rng.integers(0, 2, (n_symbols, CFG.n_data_subcarriers)) * 2 - 1
        )
        return points / np.sqrt(2)

    def test_noiseless_hits_cap(self):
        """A noiseless flat channel reports the +50 dB cap everywhere."""
        tx = self._probe(np.random.default_rng(0))
        profile = estimate_snr(tx.copy(), tx, CFG)
        assert np.all(profile.snr_linear == 1e5)

    def test_awgn_20db_estimates(self):
        """Known 20 dB AWGN: mean within 0.5 dB, each carrier within 2 dB."""
        rng = np.random.default_rng(20260814)
        tx = self._probe(rng)
        noise = (rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape)) * np.sqrt(
            0.01 / 2
        )
        h = np.exp(1j * rng.uniform(0, 2 * np.pi, CFG.n_data_subcarriers))
        profile = estimate_snr(tx * h + noise, tx, CFG)
        est_db = 10 * np.log10(profile.snr_linear)
        assert abs(np.mean(est_db) - 20.0) < 0.5
        assert np.all(np.abs(est_db - 20.0) < 2.0)

    def test_spectral_null_reported_low(self):
        """A dead subcarrier lands at least 20 dB below the band median."""
        rng = np.random.default_rng(7)
        tx = self._probe(rng)
        noise = (rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape)) * np.sqrt(
            0.005
        )
        h = np.ones(CFG.n_data_subcarriers, dtype=complex)
        h[500] = 0.0
        profile = estimate_snr(tx * h + noise, tx, CFG)
        dead_db = 10 * np.log10(max(profile.snr_linear[500], 1e-12))
        median_db = 10 * np.log10(np.median(profile.snr_linear))
        assert dead_db <= median_db - 20.0

    def test_all_zero_rx_is_zero_not_error(self):
        tx = self._probe(np.random.default_rng(1))
        profile = estimate_snr(np.zeros_like(tx), tx, CFG)
        assert np.all(profile.snr_linear == 0.0)

    def test_shape_mismatch_rejected(self):
        tx = self._probe(np.random.default_rng(2))
        with pytest.raises(ValueError):
            estimate_snr(tx[:, :-1], tx, CFG)


class TestChowLoad:
    def test_uniform_profile_exact_solution(self):
        """SNR = 15*gap on every carrier gives 4 bits and unit power each."""
        gap = GapConfig()
        snr = SnrProfile(np.full(64, 15.0 * gap.gap_linear))
        plan = chow_load(snr, 4 * 64, gap, max_bits=8)
        assert np.all(plan.bits == 4)
        assert np.allclose(plan.powers, 1.0, atol=1e-12)

    def test_all_zero_snr_infeasible(self):
        with pytest.raises(InfeasibleRateError) as info:
            chow_load(SnrProfile(np.zeros(64)), 1, GapConfig(), max_bits=8)
        assert info.value.max_achievable == 0

    def test_infeasible_reports_maximum(self):
        """The error carries sum(min(max_bits, floor(log2(1+SNR/gap))))."""
        gap = GapConfig()
        snr = SnrProfile(np.array([15.0, 3.0, 0.0]) * gap.gap_linear)
        with pytest.raises(InfeasibleRateError) as info:
            chow_load(snr, 7, gap, max_bits=8)
        assert info.value.max_achievable == 6  # floor(log2(16)) + floor(log2(4))

    def test_exact_total_and_normalization(self):
        rng = np.random.default_rng(5)
        snr = SnrProfile(10 ** (rng.uniform(0, 30, 64) / 10))
        plan = chow_load(snr, 150, GapConfig(), max_bits=8)
        assert int(plan.bits.sum()) == 150
        assert plan.powers.sum() == pytest.approx(np.count_nonzero(plan.bits), rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        snr=st.lists(
            st.one_of(st.just(0.0), st.just(SNR_CAP_LINEAR), st.floats(0.0, SNR_CAP_LINEAR)),
            min_size=1,
            max_size=64,
        ),
        max_bits=st.integers(1, 8),
        gap_linear=st.floats(1.0, 100.0),
        data=st.data(),
    )
    def test_capacity_decides_feasibility(self, snr, max_bits, gap_linear, data):
        """``chow_load`` refuses exactly the targets above ``_bit_capacity``,
        and reports that capacity as ``max_achievable``."""
        b_target = data.draw(st.integers(1, len(snr) * max_bits + 4), label="b_target")
        capacity = _bit_capacity(np.array(snr), gap_linear, max_bits)
        gap = GapConfig(gap_linear=gap_linear)
        try:
            plan = chow_load(SnrProfile(snr), b_target, gap, max_bits=max_bits)
        except InfeasibleRateError as exc:
            assert capacity < b_target
            assert exc.max_achievable == capacity
        else:
            assert capacity >= b_target
            assert int(plan.bits.sum()) == b_target

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        snr = SnrProfile(10 ** (rng.uniform(0, 30, 64) / 10))
        a = chow_load(snr, 200, GapConfig(), max_bits=8)
        b = chow_load(snr, 200, GapConfig(), max_bits=8)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.powers, b.powers)


class TestLevinCampelloOracle:
    def test_single_bit_goes_to_strong_carrier(self):
        gap = GapConfig()
        snr = SnrProfile(np.array([100.0, 1.0]) * gap.gap_linear)
        plan = levin_campello_oracle(snr, 1, gap, max_bits=8)
        assert list(plan.bits) == [1, 0]

    def test_uniform_profile_matches_chow(self):
        gap = GapConfig()
        snr = SnrProfile(np.full(64, 15.0 * gap.gap_linear))
        lc = levin_campello_oracle(snr, 4 * 64, gap, max_bits=8)
        chow = chow_load(snr, 4 * 64, gap, max_bits=8)
        assert np.array_equal(lc.bits, chow.bits)
        assert np.allclose(lc.powers, chow.powers, atol=1e-12)

    def test_respects_max_bits(self):
        gap = GapConfig()
        snr = SnrProfile(np.array([1e5, 1e5]))
        plan = levin_campello_oracle(snr, 8, gap, max_bits=4)
        assert np.all(plan.bits == 4)


class TestLoadersAgainstEachOther:
    """Randomized cross-checks between the Chow loader and the greedy oracle."""

    def _instances(self):
        rng = np.random.default_rng(20260814)
        gap = GapConfig()
        for _ in range(1000):
            snr = SnrProfile(10 ** (rng.uniform(0, 30, 64) / 10))
            with np.errstate(divide="ignore"):
                ceiling = np.minimum(np.floor(np.log2(1 + snr.snr_linear / gap.gap_linear)), 8)
            max_achievable = int(ceiling.sum())
            b_target = int(rng.integers(1, max_achievable + 1))
            yield snr, b_target, gap

    def test_thousand_random_profiles(self):
        """Totals exact, BER within 1.05x target, oracle never beaten on power."""
        for snr, b_target, gap in self._instances():
            chow = chow_load(snr, b_target, gap, max_bits=8)
            oracle = levin_campello_oracle(snr, b_target, gap, max_bits=8)
            assert int(chow.bits.sum()) == b_target
            assert int(oracle.bits.sum()) == b_target
            assert np.all(_predicted_ber(chow, snr) <= 1.05 * gap.target_ber)
            assert _prenorm_power(oracle, snr, gap.gap_linear) <= _prenorm_power(
                chow, snr, gap.gap_linear
            ) * (1 + 1e-9)

    def test_monotone_dominance(self):
        """Carriers at least 6.02 dB apart never have inverted bit counts."""
        for snr, b_target, gap in self._instances():
            plan = chow_load(snr, b_target, gap, max_bits=8)
            stronger = snr.snr_linear[:, None] >= 4.0 * snr.snr_linear[None, :]
            inverted = plan.bits[:, None] < plan.bits[None, :]
            assert not np.any(stronger & inverted)

    def test_infeasible_raised_by_both(self):
        gap = GapConfig()
        snr = SnrProfile(np.full(4, 3.0 * gap.gap_linear))
        for loader in (chow_load, levin_campello_oracle):
            with pytest.raises(InfeasibleRateError):
                loader(snr, 4 * 8, gap, max_bits=8)
