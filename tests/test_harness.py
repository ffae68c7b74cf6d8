"""Tests for the experiment harness: runs, bisection, sweeps, persistence."""

import json
import math
import multiprocessing
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dmtlink.channel as channel_mod
import dmtlink.harness as harness_mod
from dmtlink import _spectral
from dmtlink.channel import FilterSpec, LinkConfig, end_to_end_fading_profile
from dmtlink.core import InfeasibleRateError, RealWaveform, SubcarrierPlan
from dmtlink.harness import (
    InfeasibleOsnrError,
    ScenarioConfig,
    TABLE_SCENARIOS,
    TableRow,
    _neighborhood_scenario,
    analytic_fading,
    evaluate_point,
    persist_run,
    rate_reach_table,
    required_osnr,
    run_link,
    scenario_hash,
    sweep_detuning,
    sweep_osnr,
    sweep_reach,
)
from dmtlink.loading import GapConfig, SnrProfile, _bit_capacity, gap_from_ber
from dmtlink.rxdsp import SyncNotFoundError, demodulate, schmidl_cox_sync
from search_reference import required_osnr_full_count
from span_frame import shared_captures, span_captures


def _frame_samples(cfg):
    """Samples in one DMT frame: every symbol with its cyclic prefix."""
    return (cfg.fft_size + cfg.cp_length) * (cfg.n_data_symbols + cfg.n_training_symbols)


def _fast_loopback(net_rate=56e9, **overrides):
    return ScenarioConfig.single_channel(
        net_rate=net_rate, loopback=True, min_bits=100_000, **overrides
    )


def _fast_optical(net_rate=56e9, osnr_db=30.0, **overrides):
    kwargs = dict(min_bits=100_000, min_errors=50)
    kwargs.update(overrides)
    return ScenarioConfig.single_channel(net_rate=net_rate, osnr_db=osnr_db, **kwargs)


def _full_comb(n_channels, net_rate, reach_km=0.0, osnr_db=38.0):
    """Every slot of an n-channel comb lit at one per-channel rate."""
    spans = (reach_km,) if reach_km > 0 else ()
    link = LinkConfig(n_channels=n_channels, span_lengths_km=spans, osnr_db=osnr_db)
    return ScenarioConfig(link=link, net_rate=net_rate)


def _three_lit(loopback=False, **overrides):
    link = LinkConfig(n_channels=4, active_channels=(0, 1, 2), channel_under_test=1, osnr_db=38.0)
    return ScenarioConfig(
        link=link, net_rate=56e9, loopback=loopback, min_errors=10**9, **overrides
    )


class TestScenarioConfig:
    def test_rates_tile_448g(self):
        """The table's per-channel rates cover 4-8 carriers of one aggregate."""
        for n, rate, _ in TABLE_SCENARIOS:
            assert abs(n * rate - 448e9) <= 0.005 * 448e9

    def test_single_channel_geometry(self):
        sc = ScenarioConfig.single_channel(reach_km=50.0)
        assert sc.link.lit_channels == (1,)
        assert sc.link.cut_index == 1
        assert sc.link.span_lengths_km == (50.0,)

    def test_bits_per_frame(self):
        sc = ScenarioConfig.single_channel(net_rate=56e9)
        assert sc.b_target == 1897
        assert sc.bits_per_frame == 119 * 1897

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(net_rate=0.0)

    def test_infinite_rate_rejected_by_name(self):
        """An infinite rate is an error naming it, not an overflow in ``b_target``."""
        with pytest.raises(ValueError, match="net_rate"):
            ScenarioConfig(net_rate=float("inf"))

    def test_hash_stable_and_sensitive(self):
        a = ScenarioConfig.single_channel(net_rate=56e9)
        b = ScenarioConfig.single_channel(net_rate=56e9)
        c = ScenarioConfig.single_channel(net_rate=64e9)
        assert scenario_hash(a) == scenario_hash(b)
        assert scenario_hash(a) != scenario_hash(c)
        assert len(scenario_hash(a)) == 12


class TestNeighborhood:
    def test_interior_channel_has_both_neighbors(self):
        base = _full_comb(8, 56e9, reach_km=240.0)
        hood = _neighborhood_scenario(base, 8, 4)
        assert hood.link.lit_channels == (0, 1, 2)
        assert hood.link.cut_index == 1
        assert hood.link.n_channels == 4
        assert hood.link.grid_rate == 256e9

    def test_edge_channels_have_one_inboard_neighbor(self):
        base = _full_comb(8, 56e9, reach_km=240.0)
        assert _neighborhood_scenario(base, 8, 0).link.lit_channels == (1, 2)
        assert _neighborhood_scenario(base, 8, 7).link.lit_channels == (0, 1)

    def test_out_of_range_rejected(self):
        base = _full_comb(5, 89.6e9)
        with pytest.raises(ValueError):
            _neighborhood_scenario(base, 5, 5)

    @pytest.mark.parametrize("reach_km, bound", [(0.0, 1e-12), (80.0, 1e-4), (240.0, 1e-4)])
    def test_captures_match_the_full_comb(self, reach_km, bound):
        """Slots 3-5 of an 8-slot comb against the neighborhood's slots 0-2.

        The same drives, noiseless, on one 256 GS/s grid: the capture
        spectra's magnitudes agree to rounding back to back (2.5e-15 of the
        peak) and to about 1.4e-5 at 80 and 240 km.  Translation adds a
        linear term to the dispersion phase, a delay the magnitudes ignore,
        except at the capture's Nyquist bin, of which the real capture
        keeps only the real part; every other bin agrees to rounding.
        """
        base = _full_comb(8, 56e9, reach_km=reach_km, osnr_db=np.inf)
        full = replace(base.link, active_channels=(3, 4, 5), channel_under_test=4)
        hood = _neighborhood_scenario(base, 8, 4).link
        assert full.grid_rate == hood.grid_rate
        n = 1_031_680
        rng = np.random.default_rng(5)
        drives = [
            RealWaveform(_spectral.resample_real(rng.standard_normal(n // 4), n), full.grid_rate)
            for _ in range(3)
        ]
        got = span_captures(full, {3 + j: d for j, d in enumerate(drives)}, [3, 4, 5], 0, 64e9)
        want = span_captures(hood, dict(enumerate(drives)), [0, 1, 2], 0, 64e9)
        for j in range(3):
            a = np.abs(np.fft.rfft(got[3 + j].samples))
            b = np.abs(np.fft.rfft(want[j].samples))
            assert np.max(np.abs(a - b)) <= bound * np.max(b)
            assert np.max(np.abs(a - b)[:-1]) <= 1e-12 * np.max(b)


class TestRunLink:
    def test_loopback_error_free(self):
        """Identity channel at infinite OSNR: exactly zero bit errors."""
        record = run_link(_fast_loopback(), seed=0)
        report = record.reports[1]
        assert report.bit_errors == 0
        assert report.bits_total >= 100_000

    def test_identical_seed_identical_report(self):
        """Scenario + seed fully determine the counted errors."""
        sc = _fast_optical()
        a = run_link(sc, seed=7)
        b = run_link(sc, seed=7)
        assert a.reports[1].bit_errors == b.reports[1].bit_errors
        assert a.reports[1].bits_total == b.reports[1].bits_total
        assert np.array_equal(
            a.reports[1].per_subcarrier_errors, b.reports[1].per_subcarrier_errors
        )
        assert np.array_equal(a.snr[1].snr_linear, b.snr[1].snr_linear)
        assert np.array_equal(a.plans[1].bits, b.plans[1].bits)

    def test_distinct_seeds_distinct_noise(self):
        sc = _fast_optical()
        a = run_link(sc, seed=1)
        b = run_link(sc, seed=2)
        assert not np.array_equal(
            a.reports[1].per_subcarrier_errors, b.reports[1].per_subcarrier_errors
        )

    def test_unlit_channel_rejected(self):
        with pytest.raises(ValueError):
            run_link(_fast_loopback(), seed=0, channels=[0])

    def test_infeasible_rate_carries_scenario_context(self):
        sc = _fast_optical(net_rate=200e9, osnr_db=50.0)
        with pytest.raises(Exception) as excinfo:
            run_link(sc, seed=0)
        assert scenario_hash(sc) in str(excinfo.value)


class TestTransmitOnceTransforms:
    GRID_POINTS = 1_031_680  # one frame on the 256 GS/s composite grid

    def test_payload_frame_transform_budget(self, monkeypatch):
        """One 3-lit payload frame: at most 9 grid-sized transforms, 22 in all.

        Counts are exact and repeatable, so this guards the frequency-domain
        span without timing anything (the time-domain chain made 18 and 31).
        """
        lengths = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(a, *args, _original=original, **kwargs):
                out = _original(a, *args, **kwargs)
                axis = kwargs.get("axis", -1)
                lengths.append(max(np.shape(a)[axis], out.shape[axis]))
                return out

            monkeypatch.setattr(np.fft, name, counted)
        link = LinkConfig(
            n_channels=4,
            active_channels=(0, 1, 2),
            channel_under_test=1,
            span_lengths_km=(240.0,),
            osnr_db=38.0,
        )
        sc = ScenarioConfig(link=link, net_rate=56e9)
        plan = SubcarrierPlan.uniform(sc.dmt.n_data_subcarriers, bits=2)
        harness_mod._transmit_once(sc, {ch: plan for ch in link.lit_channels}, 1, 4, [1], {})
        assert sum(n >= self.GRID_POINTS for n in lengths) <= 9
        assert len(lengths) <= 22


class TestTransmitOnceNoiseTransforms:
    GRID_POINTS = 1_031_680  # one frame on the 256 GS/s composite grid

    @pytest.mark.parametrize("lit, budget", [((0, 1, 2), 8), ((1,), 4)])
    def test_noise_spectrum_costs_no_transform(self, monkeypatch, lit, budget):
        """A payload frame receiving channel 1 makes no grid-sized ``fft``.

        The noise is drawn as its spectrum, so a 3-lit frame makes at most
        8 grid-sized transforms and a single-lit one 4 (drawn in the time
        domain and transformed, it made 9 and 5).
        """
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                out = _original(a, *args, **kwargs)
                axis = kwargs.get("axis", -1)
                calls.append((_name, max(np.shape(a)[axis], out.shape[axis])))
                return out

            monkeypatch.setattr(np.fft, name, counted)
        link = LinkConfig(
            n_channels=4,
            active_channels=lit,
            channel_under_test=1,
            span_lengths_km=(240.0,),
            osnr_db=38.0,
        )
        sc = ScenarioConfig(link=link, net_rate=56e9)
        plans = {ch: SubcarrierPlan.uniform(sc.dmt.n_data_subcarriers, bits=2) for ch in lit}
        harness_mod._transmit_once(sc, plans, 1, 4, [1], {})
        grid = [name for name, n in calls if n >= self.GRID_POINTS]
        assert len(grid) <= budget
        assert "fft" not in grid


class TestFadingProfileTransforms:
    def test_at_most_five_transforms_per_tone(self, monkeypatch):
        """With the interleaver and fiber, each tone costs one fft and two ifft/rfft pairs.

        The time-domain chain made 12 per tone: a round trip per filter or
        fiber pass and one rfft, for the reach and for back to back.
        """
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(a, *args, _original=original, **kwargs):
                calls.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        link = LinkConfig(n_channels=4, span_lengths_km=(50.0,))
        freqs, _ = end_to_end_fading_profile(link, tone_step=1e9)
        assert len(calls) <= 5 * freqs.size


class TestTransmitOnceFilterResponses:
    @pytest.mark.parametrize("lit, expected", [((0, 1, 2), 3), ((1,), 1)])
    def test_warm_frame_builds_only_launch_ports(self, monkeypatch, lit, expected):
        """With the link's operators cached, a frame builds one response per lit channel.

        The receive ports and the dispersion factor are kept across the
        frames of a link (the per-frame build made 5 and 3 calls).  Each
        launch port, evaluated in blocks, covers the grid's bins once.
        """
        link = LinkConfig(
            n_channels=4,
            active_channels=lit,
            channel_under_test=1,
            span_lengths_km=(240.0,),
            osnr_db=38.0,
        )
        sc = ScenarioConfig(link=link, net_rate=56e9)
        plans = {ch: SubcarrierPlan.uniform(sc.dmt.n_data_subcarriers, bits=2) for ch in lit}
        harness_mod._transmit_once(sc, plans, 1, 4, [1], {})  # warms the cache

        points = {}  # filter -> the frequencies it was evaluated at
        original = FilterSpec.amplitude_response

        def counted(self, freq):
            points[self] = points.get(self, 0) + np.size(freq)
            return original(self, freq)

        monkeypatch.setattr(FilterSpec, "amplitude_response", counted)
        harness_mod._transmit_once(sc, plans, 2, 4, [1], {})
        n = _spectral.output_length(_frame_samples(sc.dmt), sc.dmt.dac_rate, link.grid_rate)
        assert len(points) == expected
        assert points == {link.interleaver(ch): n for ch in lit}


class TestEvaluatePoint:
    def test_rate_not_loading_is_ber_one_on_every_channel(self, monkeypatch):
        sc = _fast_optical(net_rate=200e9, osnr_db=50.0)
        assert evaluate_point(sc, seed=0) == {1: 1.0}

        def not_loading(sc, seed, channels=None):
            raise InfeasibleRateError("rate does not load")

        monkeypatch.setattr(harness_mod, "run_link", not_loading)
        wdm = replace(sc, link=replace(sc.link, active_channels=(0, 1, 2)))
        assert evaluate_point(wdm, seed=0, channels=[0, 2]) == {0: 1.0, 2: 1.0}

    def test_sync_lost_is_ber_one(self, monkeypatch):
        def lost(sc, seed, channels=None):
            raise SyncNotFoundError("no plateau")

        monkeypatch.setattr(harness_mod, "run_link", lost)
        assert evaluate_point(_fast_loopback(), seed=0) == {1: 1.0}

    def test_operating_point_returns_run_link_bers(self, monkeypatch):
        calls = []

        def counted(sc, seed, channels=None):
            calls.append((sc, seed, channels))
            reports = {0: SimpleNamespace(ber=2e-3), 1: SimpleNamespace(ber=5e-4)}
            return SimpleNamespace(reports=reports)

        monkeypatch.setattr(harness_mod, "run_link", counted)
        sc = _fast_optical()
        assert evaluate_point(sc, seed=7) == {1: 5e-4}
        assert evaluate_point(sc, seed=7, channels=[0, 1]) == {0: 2e-3, 1: 5e-4}
        assert calls == [(sc, 7, None), (sc, 7, [0, 1])]


class TestRequiredOsnr:
    def test_trivial_target_returns_lower_bracket(self):
        """A target of 0.5 is met at the bottom of the bracket."""
        sc = _fast_loopback(gap=GapConfig(target_ber=0.5, gap_linear=gap_from_ber(4e-3)))
        assert required_osnr(sc, seed=0) == 10.0

    def test_infeasible_at_any_osnr(self):
        """A rate beyond the modem's reach fails even at 50 dB."""
        sc = _fast_optical(net_rate=200e9)
        with pytest.raises(InfeasibleOsnrError):
            required_osnr(sc, seed=0)

    def test_bisection_brackets_threshold(self):
        """The returned OSNR meets the target; well below it does not."""
        sc = _fast_optical(net_rate=89.6e9, min_bits=300_000)
        tol = 1.0
        value = required_osnr(sc, tol_db=tol, seed=11)
        assert 10.0 < value < 50.0

        def ber_at(osnr_db, seed):
            trial = _fast_optical(net_rate=89.6e9, min_bits=300_000, osnr_db=osnr_db)
            try:
                return run_link(trial, seed).worst_ber
            except Exception:
                return 1.0

        assert ber_at(value, seed=21) < 4e-3
        assert ber_at(value - 3 * tol, seed=22) > 4e-3


SEARCH_SEEDS = (1, 2, 3)
SEARCH_DETUNINGS = (14.25e9, 19e9)
SEARCH_TOL_DB = 1.0
SEARCH_PROBES = 4
"""Probe points of each search on ``_search_scenario``: the top and three the
SNR profiles predict (bisection probes ``1 + _probe_steps()``, 7)."""


def _search_scenario(detuning):
    """A fast optical search: 56 Gb/s at 10 km, one payload frame per count."""
    return _fast_optical(reach_km=10.0, detuning=detuning)


def _probe_steps(bracket=(10.0, 50.0), tol_db=SEARCH_TOL_DB):
    """Halvings that bring ``bracket`` within ``tol_db``."""
    return math.ceil(math.log2((bracket[1] - bracket[0]) / tol_db))


def _full_count_search(point):
    """The full-count reference search at one (detuning, seed)."""
    det, seed = point
    return required_osnr_full_count(_search_scenario(det), tol_db=SEARCH_TOL_DB, seed=seed)


class TestProbeSteeredSearch:
    @pytest.fixture(scope="class")
    def searched(self):
        """Per (detuning, seed): the search's result and the stage of each
        frame it sent (0 for a probe, 1, 2, ... for payload frames)."""
        out = {}
        transmit = harness_mod._transmit_once
        with pytest.MonkeyPatch.context() as patch:
            for det in SEARCH_DETUNINGS:
                for seed in SEARCH_SEEDS:
                    stages = []

                    def recorded(sc, plans, stage, *args):
                        stages.append(stage)
                        return transmit(sc, plans, stage, *args)

                    patch.setattr(harness_mod, "_transmit_once", recorded)
                    value = required_osnr(
                        _search_scenario(det), tol_db=SEARCH_TOL_DB, seed=seed
                    )
                    out[det, seed] = (value, stages)
        return out

    def test_same_float_as_the_full_count_reference(self, searched):
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            references = dict(zip(searched, pool.map(_full_count_search, searched)))
        for (det, seed), (value, _) in searched.items():
            assert value == references[det, seed], (det, seed)

    def test_search_and_sweep_agree(self, searched):
        """The result passes under ``sweep_osnr`` at the same seed, and the
        failing end of the final bracket fails there."""
        width = 40.0 / 2 ** _probe_steps()
        for (det, seed), (value, _) in searched.items():
            ber = sweep_osnr(_search_scenario(det), [value, value - width], seed=seed)
            assert ber[0] < 4e-3 and ber[1] >= 4e-3, (det, seed, value)

    def test_probes_then_one_count_at_the_edge(self, searched):
        """The top, three predicted points, then one count; the bottom is
        never probed, since the final bracket no longer touches it."""
        sc = _search_scenario(SEARCH_DETUNINGS[0])
        payload = math.ceil(sc.min_bits / sc.bits_per_frame)
        expected = [0] * SEARCH_PROBES + list(range(1, payload + 1))
        for key, (value, stages) in searched.items():
            assert value > 10.0 + SEARCH_TOL_DB
            assert stages == expected, key

    def test_top_loads_but_its_count_misses(self, monkeypatch):
        """A target no count can meet: counted at the edge, then at the top."""
        stages = []
        transmit = harness_mod._transmit_once

        def recorded(sc, plans, stage, *args):
            stages.append(stage)
            return transmit(sc, plans, stage, *args)

        monkeypatch.setattr(harness_mod, "_transmit_once", recorded)
        sc = replace(
            _search_scenario(19e9), gap=GapConfig(target_ber=0.0, gap_linear=gap_from_ber(4e-3))
        )
        with pytest.raises(InfeasibleOsnrError, match="still misses"):
            required_osnr(sc, tol_db=10.0, seed=1)
        assert stages.count(1) == 2

    @pytest.mark.parametrize("tol_db", [0.0, -0.25, float("nan"), float("inf")])
    def test_tolerance_must_be_positive_and_finite(self, monkeypatch, tol_db):
        def no_frame(*args):
            raise AssertionError("a frame ran")

        monkeypatch.setattr(harness_mod, "_transmit_once", no_frame)
        with pytest.raises(ValueError, match="tol_db"):
            required_osnr(_fast_optical(), tol_db=tol_db)

    @pytest.mark.parametrize("tol_db", [1e-16, 0.99 * 40 / 2**40])
    def test_tolerance_past_forty_halvings_is_refused(self, monkeypatch, tol_db):
        """A grid finer than 40 halvings of the bracket is refused before any
        frame runs; below float resolution the bracket would never close."""

        def no_frame(*args):
            raise AssertionError("a frame ran")

        monkeypatch.setattr(harness_mod, "_send", no_frame)
        monkeypatch.setattr(harness_mod, "_transmit_once", no_frame)
        with pytest.raises(ValueError, match="tol_db"):
            required_osnr(_fast_optical(), tol_db=tol_db)
        assert harness_mod._halvings(40 / 2**40) == 40

    def test_dark_channel_under_test_is_refused(self, monkeypatch):
        """A channel under test that is not lit is refused before any frame
        runs, as ``run_link`` refuses it (the search used to probe the lit
        channels and fail at the count, on a sync error for the dark one)."""

        def no_frame(*args):
            raise AssertionError("a frame ran")

        monkeypatch.setattr(harness_mod, "_send", no_frame)
        sc = _search_scenario(19e9)
        sc = replace(sc, link=replace(sc.link, active_channels=(2,)))
        with pytest.raises(ValueError, match="channel 1 is not lit"):
            required_osnr(sc, tol_db=10.0)


class TestSearchPolicy:
    """The search's decisions on a stand-in link: a point loads from
    ``loads_db`` up and counts below the target from ``passes_db`` up."""

    @staticmethod
    def _stand_in(monkeypatch, loads_db, passes_db, ber_above=1e-4):
        probed, counted = [], []

        def probe(sc, seed, sent):
            """A flat profile whose SNR scales with the OSNR, one bit per
            subcarrier short of ``b_target`` below ``loads_db``."""
            probed.append(sc.link.osnr_db)
            n = sc.dmt.n_data_subcarriers
            bits = -(-sc.b_target // n)
            snr = sc.gap.gap_linear * (2**bits - 1) * 10 ** ((sc.link.osnr_db - loads_db) / 10)
            return {ch: SnrProfile(np.full(n, snr)) for ch in sc.link.lit_channels}, "timing"

        def count(sc, seed, plans, timing, channels):
            counted.append(sc.link.osnr_db)
            ber = ber_above if sc.link.osnr_db >= passes_db else 1e-2
            return {ch: SimpleNamespace(ber=ber) for ch in channels}

        monkeypatch.setattr(harness_mod, "_probe", probe)
        monkeypatch.setattr(harness_mod, "_count", count)
        return probed, counted

    def test_edge_that_counts_below_target_is_returned(self, monkeypatch):
        probed, counted = self._stand_in(monkeypatch, loads_db=30.5, passes_db=0.0)
        assert required_osnr(_fast_optical(), tol_db=1.0) == 30.625
        assert probed == [50.0, 30.0, 30.625]
        assert counted == [30.625]

    def test_edge_that_misses_falls_back_to_counted_bisection(self, monkeypatch):
        probed, counted = self._stand_in(monkeypatch, loads_db=30.5, passes_db=36.0)
        assert required_osnr(_fast_optical(), tol_db=1.0) == 36.07421875
        # the edge, the top, then halvings between them on counted BER
        assert counted == [30.625, 50.0, 40.3125, 35.46875, 37.890625, 36.6796875, 36.07421875]

    def test_bottom_is_probed_when_the_final_bracket_touches_it(self, monkeypatch):
        probed, counted = self._stand_in(monkeypatch, loads_db=0.0, passes_db=0.0)
        assert required_osnr(_fast_optical(), tol_db=10.0) == 10.0
        assert probed == [50.0, 20.0, 10.0]
        assert counted == [10.0]

    def test_judged_at_the_scenarios_target(self, monkeypatch):
        """A BER that passes 4e-3 misses a scenario loaded for 1e-3, even at the top."""
        self._stand_in(monkeypatch, loads_db=0.0, passes_db=0.0, ber_above=2e-3)
        sc = _fast_optical(gap=GapConfig(target_ber=1e-3))
        with pytest.raises(InfeasibleOsnrError, match="still misses 1.0e-03"):
            required_osnr(sc, tol_db=10.0)

    def test_top_that_cannot_operate_is_counted_nowhere(self, monkeypatch):
        probed, counted = self._stand_in(monkeypatch, loads_db=60.0, passes_db=0.0)
        with pytest.raises(InfeasibleOsnrError, match="cannot operate at 50.0 dB"):
            required_osnr(_fast_optical())
        assert probed == [50.0]
        assert counted == []


def _grid_probe(sc, capacities, sync_lost):
    """A stand-in ``probe(k)`` for ``_loading_edge``: at grid index ``k``, a
    profile of the channel under test that carries exactly ``capacities[k]``
    bits (full subcarriers, one partial, the rest at SNR 0), or None where
    the capacity is 0 and ``sync_lost`` is set.  Returns it and the list of
    indices probed."""
    n, top, gap = sc.dmt.n_data_subcarriers, sc.dmt.max_bits_per_subcarrier, sc.gap.gap_linear
    calls = []

    def probe(k):
        calls.append(k)
        if sync_lost and capacities[k] == 0:
            return None
        full, rest = divmod(capacities[k], top)
        snr = np.zeros(n)
        snr[:full] = 1.5 * gap * (2**top - 1)
        if full < n:
            snr[full] = 1.01 * gap * (2**rest - 1)
        assert _bit_capacity(snr, gap, top) == capacities[k]
        return {sc.link.cut_index: SnrProfile(snr)}, "timing"

    return probe, calls


class TestGridRoot:
    """``_loading_edge`` on synthetic profiles, against ``_bisect`` on the
    same verdicts: a point loads when its capacity reaches ``b_target``."""

    SC = _fast_optical()

    def _check(self, tol_db, capacities, sync_lost):
        sc = self.SC
        halvings = harness_mod._halvings(tol_db)
        step = 40.0 / 2**halvings

        def loads_at(osnr_db):
            k = round((osnr_db - 10.0) / step)
            assert harness_mod._grid_osnr(k, halvings) == osnr_db  # bisection's own floats
            return capacities[k] >= sc.b_target

        probe, calls = _grid_probe(sc, capacities, sync_lost)
        lo, hi = harness_mod._loading_edge(sc, halvings, probe)
        want = harness_mod._bisect(10.0, 50.0, loads_at, tol_db)
        assert (harness_mod._grid_osnr(lo, halvings), harness_mod._grid_osnr(hi, halvings)) == want
        assert len(calls) == len(set(calls))
        assert len(calls) + (lo == 0) <= 2 * halvings + 1  # the bottom is probed after
        return calls

    @settings(max_examples=150, deadline=None)
    @given(
        tol_db=st.sampled_from([0.125, 0.25, 1.0, 10.0]),
        base=st.one_of(st.just(0), st.integers(0, 2000)),
        steps=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 2000)), max_size=6),
        sync_lost=st.booleans(),
    )
    @example(tol_db=0.125, base=0, steps=[(0.37, 4000)], sync_lost=False)  # one jump
    @example(tol_db=0.25, base=4000, steps=[], sync_lost=False)  # loads everywhere
    @example(tol_db=1.0, base=500, steps=[(0.2, 0), (0.5, 1500), (0.9, 700)], sync_lost=True)
    def test_same_edge_as_bisection(self, tol_db, base, steps, sync_lost):
        """Non-decreasing capacities with plateaus, jumps and points that
        lose sync; the top always loads."""
        n = 2 ** harness_mod._halvings(tol_db)
        top = self.SC.dmt.n_data_subcarriers * self.SC.dmt.max_bits_per_subcarrier
        capacities = [
            min(top, base + sum(inc for frac, inc in steps if int(frac * n) <= k))
            for k in range(n + 1)
        ]
        capacities[n] = max(capacities[n], self.SC.b_target)
        self._check(tol_db, capacities, sync_lost)

    @pytest.mark.parametrize("sync_lost", [False, True])
    def test_flat_profiles_fall_back_to_midpoints(self, sync_lost):
        """One jump from 0 to full capacity: the profiles on either side of it
        show no slope, the prediction creeps by one index, and the midpoints
        keep the search within 2K + 1 probes, not the 200 of a creep."""
        n = 2**9
        capacities = [0] * 300 + [self.SC.b_target * 2] * (n + 1 - 300)
        calls = self._check(0.125, capacities, sync_lost)
        assert len(calls) <= 2 * 9 + 1


class TestSharedProbe:
    """A search composes its probe frame once; each point only receives it."""

    @staticmethod
    def _scenario(lit=(1,)):
        sc = _search_scenario(19e9)
        return replace(sc, link=replace(sc.link, active_channels=lit))

    def test_each_point_captures_what_the_span_gives(self, monkeypatch):
        """Every point's probe captures equal a frame sent anew (``compose``
        and its noise seed) and taken through the shared-frame path
        (``detect``, ``capture``) on the same drives, OSNR and noise seed,
        bit for bit.  Frames of the count, which starts after the probes, are not recorded."""
        composed, seeds, received, counting = [], [], [], []
        compose, detect = harness_mod.compose, harness_mod.detect
        capture, count = harness_mod.capture, harness_mod._count

        def recorded_compose(link, drives, *args):
            if not counting:
                composed.append(drives)
            return compose(link, drives, *args)

        def recorded_detect(link, composite, cut_power, rx_channels, noise_seed):
            if not counting:
                seeds.append(noise_seed)
            return detect(link, composite, cut_power, rx_channels, noise_seed)

        def recorded_capture(link, detected, rx_channels):
            captures = capture(link, detected, rx_channels)
            if not counting:
                received.append((link, list(rx_channels), seeds[-1], dict(captures)))
            return captures

        def recorded_count(*args):
            counting.append(True)
            return count(*args)

        monkeypatch.setattr(harness_mod, "compose", recorded_compose)
        monkeypatch.setattr(harness_mod, "detect", recorded_detect)
        monkeypatch.setattr(harness_mod, "capture", recorded_capture)
        monkeypatch.setattr(harness_mod, "_count", recorded_count)
        sc = self._scenario()
        required_osnr(sc, tol_db=SEARCH_TOL_DB, seed=1)
        assert len(composed) == 1
        assert len(received) == SEARCH_PROBES
        assert len({link.osnr_db for link, *_ in received}) == len(received)
        for link, rx, noise_seed, captures in received:
            want = shared_captures(link, composed[0], rx, noise_seed, sc.dmt.dac_rate)
            for ch in rx:
                assert np.array_equal(captures[ch].samples, want[ch].samples), link.osnr_db

    @pytest.mark.parametrize("lit", [(1,), (1, 2)])
    def test_each_lit_channel_launches_once_for_the_probes(self, monkeypatch, lit):
        """One launch per lit channel for all the probes, then one per payload frame."""
        launched, stages = [], []
        launch, transmit = channel_mod._launch, harness_mod._transmit_once

        def counted(link, channel, *args):
            launched.append(channel)
            return launch(link, channel, *args)

        def recorded(sc, plans, stage, *args):
            stages.append(stage)
            return transmit(sc, plans, stage, *args)

        monkeypatch.setattr(channel_mod, "_launch", counted)
        monkeypatch.setattr(harness_mod, "_transmit_once", recorded)
        required_osnr(self._scenario(lit), tol_db=SEARCH_TOL_DB, seed=2)
        payload_frames = sum(stage > 0 for stage in stages)
        assert stages.count(0) > 1 and payload_frames >= 1
        assert sorted(launched) == sorted(list(lit) * (1 + payload_frames))

    def test_composition_released_before_the_count(self, monkeypatch):
        """No payload frame runs while the probe's composite is held."""
        kept, alive_at_count = [], []
        compose, count = harness_mod.compose, harness_mod._count

        def recorded_compose(*args):
            composite, cut_power = compose(*args)
            kept.append(weakref.ref(composite))
            return composite, cut_power

        def recorded_count(*args):
            alive_at_count.append([ref() is not None for ref in kept])
            return count(*args)

        monkeypatch.setattr(harness_mod, "compose", recorded_compose)
        monkeypatch.setattr(harness_mod, "_count", recorded_count)
        required_osnr(self._scenario(), tol_db=SEARCH_TOL_DB, seed=3)
        assert alive_at_count == [[False]]

    def test_detection_released_before_the_count(self, monkeypatch):
        """No payload frame runs while the probe's detected terms are held."""
        kept, alive_at_count = [], []
        detect, count = harness_mod.detect, harness_mod._count

        def recorded_detect(*args):
            detected = detect(*args)
            kept.extend(weakref.ref(term) for terms in detected[2].values() for term in terms)
            return detected

        def recorded_count(*args):
            alive_at_count.append([ref() is not None for ref in kept])
            return count(*args)

        monkeypatch.setattr(harness_mod, "detect", recorded_detect)
        monkeypatch.setattr(harness_mod, "_count", recorded_count)
        required_osnr(self._scenario(), tol_db=SEARCH_TOL_DB, seed=3)
        assert alive_at_count == [[False] * 3]


class TestOnePathPerFrame:
    """Every frame is sent (``_send``), then received at its OSNR."""

    def test_send_gives_the_same_arrays_at_two_osnrs_of_a_search(self):
        sc = _search_scenario(19e9)
        sent = []
        for osnr_db in (30.0, 42.5):
            point, run_seed = harness_mod._osnr_point(sc, osnr_db, 5)
            plans = harness_mod._probe_plans(sc)
            sent.append(harness_mod._send(point, plans, 0, run_seed, sc.link.lit_channels))
        (known_a, *arrays_a), (known_b, *arrays_b) = sent
        assert known_a.keys() == known_b.keys()
        for ch, (tx_symbols, tx_bits) in known_a.items():
            assert np.array_equal(tx_symbols, known_b[ch][0])
            assert np.array_equal(tx_bits, known_b[ch][1])
        composite_a, cut_power_a, draws_a = arrays_a
        composite_b, cut_power_b, draws_b = arrays_b
        assert np.array_equal(composite_a, composite_b)
        assert cut_power_a == cut_power_b
        assert draws_a is not None and np.array_equal(draws_a, draws_b)

    def test_infinite_osnr_frame_draws_no_noise(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("noise was drawn")

        monkeypatch.setattr(channel_mod, "_unit_noise", no_draw)
        sc = _fast_optical(osnr_db=np.inf, reach_km=10.0)
        plans = harness_mod._probe_plans(sc)
        _known, composite, _cut_power, draws = harness_mod._send(sc, plans, 0, 4, [1])
        assert composite is not None and draws is None
        received = harness_mod._transmit_once(sc, plans, 0, 4, [1], {})
        assert set(received) == {1}

    def test_finite_osnr_needs_the_draws(self):
        sc = _fast_optical(osnr_db=30.0)
        plans = harness_mod._probe_plans(sc)
        _known, composite, cut_power, _draws = harness_mod._send(sc, plans, 0, 4, [1])
        with pytest.raises(ValueError, match="noise draws"):
            channel_mod.receive(sc.link, composite, cut_power, [1], None)

    @pytest.mark.parametrize("lit", [(1,), (0, 1, 2)])
    def test_run_link_composes_and_receives_once_per_frame(self, monkeypatch, lit):
        calls = {"frame": 0, "compose": 0, "receive": 0}
        transmit, compose, receive = (
            harness_mod._transmit_once,
            harness_mod.compose,
            harness_mod.receive,
        )

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(harness_mod, "_transmit_once", counted("frame", transmit))
        monkeypatch.setattr(harness_mod, "compose", counted("compose", compose))
        monkeypatch.setattr(harness_mod, "receive", counted("receive", receive))
        sc = _fast_optical(osnr_db=38.0, reach_km=10.0, min_bits=300_000, min_errors=10**9)
        sc = replace(sc, link=replace(sc.link, active_channels=lit))
        run_link(sc, seed=6)
        payload_frames = math.ceil(sc.min_bits / sc.bits_per_frame)
        assert calls == dict.fromkeys(calls, 1 + payload_frames)


def _verdict_map(point):
    """One search's result, and whether the rate loads on a 0.125 dB grid
    of +-1 dB around it, at the search's seed."""
    det, seed = point
    sc = _search_scenario(det)
    value = required_osnr(sc, tol_db=SEARCH_TOL_DB, seed=seed)
    point, run_seed = harness_mod._osnr_point(sc, value, seed)
    sent = harness_mod._shared_probe(point, run_seed)

    def train(point, run_seed):  # probe, then load
        snr, _timing = harness_mod._probe(point, run_seed, sent)
        return harness_mod._load(point, snr)

    verdicts = [
        harness_mod._operable(train, *harness_mod._osnr_point(sc, x, seed)) is not None
        for x in value + np.arange(-8, 9) * 0.125
    ]
    return value, verdicts


class TestMonotoneVerdict:
    def test_verdict_is_monotone_around_each_search(self):
        """With the points of a search sharing their draws, more OSNR never
        turns a point that loads into one that does not, near any of the six
        searches of ``TestProbeSteeredSearch``."""
        points = [(det, seed) for det in SEARCH_DETUNINGS for seed in SEARCH_SEEDS]
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            maps = dict(zip(points, pool.map(_verdict_map, points)))
        for point, (value, verdicts) in maps.items():
            assert verdicts[8], (point, value)  # the result itself loads
            assert verdicts == sorted(verdicts), (point, value, verdicts)


class TestSweepDetuning:
    def test_parallel_matches_serial(self):
        """Pool execution returns bit-identical BER values in order."""
        sc = _fast_optical(osnr_db=32.0, reach_km=10.0)
        offsets = [10e9, 14e9, 19e9]
        serial = sweep_detuning(sc, offsets, seed=3, workers=None)
        pooled = sweep_detuning(sc, offsets, seed=3, workers=2)
        assert serial.dtype == np.float64 and serial.shape == (len(offsets),)
        assert np.array_equal(serial, pooled)


class TestPoolMap:
    def test_starts_at_most_one_worker_per_task(self, monkeypatch):
        """A pool forks all its workers up front, so a worker count far above
        the number of tasks asks for one worker per task, and no more."""
        asked = []

        class RecordingPool:  # runs the tasks in this process
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(
            harness_mod, "evaluate_point", lambda sc, seed: {sc.link.cut_index: seed / 10}
        )
        tasks = [(_fast_optical(), seed) for seed in (1, 2, 3)]
        assert harness_mod._pool_map(tasks, 5000) == [0.1, 0.2, 0.3]
        assert asked == [3]


class TestSweepReach:
    def test_unreachable_targets_read_inf(self, monkeypatch):
        """One row per detuning, one column per reach; a missed search reads inf."""
        searched = []

        def search(sc, seed):
            searched.append((sc.link.detuning, sc.link.span_lengths_km, sc.gap.target_ber, seed))
            if sc.link.span_lengths_km:
                raise InfeasibleOsnrError("target missed at the top of the bracket")
            return 20.0 + sc.link.detuning / 1e9

        monkeypatch.setattr(harness_mod, "required_osnr", search)
        sc = _fast_optical(gap=GapConfig(target_ber=1e-3))
        osnrs = sweep_reach(sc, [0.0, 10.0], [0.0, 19e9], seed=4)
        assert osnrs.shape == (2, 2)
        assert osnrs[:, 0].tolist() == [20.0, 39.0]
        assert np.all(np.isinf(osnrs[:, 1]))
        assert searched == [
            (0.0, (), 1e-3, 4),
            (0.0, (10.0,), 1e-3, 4),
            (19e9, (), 1e-3, 4),
            (19e9, (10.0,), 1e-3, 4),
        ]


    @pytest.mark.parametrize("reach", [-50.0, -1e-9, float("nan")])
    def test_negative_reach_rejected_before_any_frame(self, monkeypatch, reach):
        """A reach below 0 km is an error naming it, not a back-to-back point."""

        def no_search(*args, **kwargs):
            raise AssertionError("a search ran")

        monkeypatch.setattr(harness_mod, "required_osnr", no_search)
        with pytest.raises(ValueError, match="reach"):
            sweep_reach(_fast_optical(), [0.0, reach], [19e9], seed=3)


class TestTableTypes:
    def test_scenario_list_in_reach_order(self):
        reaches = [reach for _, _, reach in TABLE_SCENARIOS]
        assert reaches == sorted(reaches)
        assert {n for n, _, _ in TABLE_SCENARIOS} == {4, 5, 6, 7, 8}

    def test_row_pass_rule(self):
        row = TableRow(8, 56e9, 240.0, channel_ber=(1e-4, 3e-3), target_ber=4e-3)
        assert row.worst_ber == 3e-3
        assert row.passes
        assert not TableRow(8, 56e9, 240.0, (5e-3,), 4e-3).passes

    def test_rows_judged_at_the_scenarios_target(self, monkeypatch):
        """A BER that passes 4e-3 fails every row of a scenario loaded for 1e-3."""
        monkeypatch.setattr(
            harness_mod, "evaluate_point", lambda sc, seed, channels=None: {1: 2e-3}
        )
        base = ScenarioConfig(
            link=LinkConfig(osnr_db=38.0, detuning=19e9), gap=GapConfig(target_ber=1e-3)
        )
        rows = rate_reach_table(base, seed=7)
        assert len(rows) == len(TABLE_SCENARIOS)
        assert all(row.target_ber == 1e-3 and not row.passes for row in rows)


class TestAnalyticFading:
    def test_dc_is_unity(self):
        assert analytic_fading(0.0, 50.0) == 1.0

    def test_first_null_location(self):
        """First root at sqrt(c / (2 lambda^2 D L)); 8.57 GHz for 50 km."""
        from dmtlink.channel import SPEED_OF_LIGHT

        lam = 1550e-9
        d_si = 17.0 * 1e-6
        f1 = np.sqrt(SPEED_OF_LIGHT / (2 * lam**2 * d_si * 50e3))
        assert f1 == pytest.approx(8.5675e9, rel=1e-3)
        assert analytic_fading(f1, 50.0) == pytest.approx(0.0, abs=1e-12)

    def test_null_scales_inverse_sqrt_length(self):
        f = np.linspace(1e9, 12e9, 2000)
        null_50 = f[np.argmin(analytic_fading(f, 50.0))]
        null_100 = f[np.argmin(analytic_fading(f, 100.0))]
        assert null_100 == pytest.approx(null_50 / np.sqrt(2.0), rel=5e-3)


class TestPersistRun:
    def test_manifest_roundtrip(self, tmp_path):
        """The manifest reproduces scenario hash, seed, and BER fields."""
        record = run_link(_fast_loopback(), seed=5)
        written = persist_run(record, tmp_path)
        manifest = json.loads(written["manifest"].read_text())
        assert manifest["scenario_hash"] == record.scenario_hash
        assert manifest["seed"] == 5
        assert manifest["channels"]["1"]["bit_errors"] == 0
        assert manifest["scenario"]["net_rate"] == record.scenario.net_rate

    def test_identical_runs_byte_identical_csv(self, tmp_path):
        sc = _fast_optical()
        a = persist_run(run_link(sc, seed=9), tmp_path / "a")
        b = persist_run(run_link(sc, seed=9), tmp_path / "b")
        for key in a:
            if a[key].suffix == ".csv":
                assert a[key].read_bytes() == b[key].read_bytes()

    def test_distinct_seeds_distinct_files(self, tmp_path):
        sc = _fast_optical()
        a = persist_run(run_link(sc, seed=1), tmp_path)
        b = persist_run(run_link(sc, seed=2), tmp_path)
        assert a["ber"] != b["ber"]
        assert a["ber"].read_bytes() != b["ber"].read_bytes()

    def test_csv_headers(self, tmp_path):
        written = persist_run(run_link(_fast_loopback(), seed=0), tmp_path)
        assert written["ber"].read_text().splitlines()[0] == "channel,bit_errors,bits_total,ber"
        assert written["snr_ch1"].read_text().splitlines()[0] == "subcarrier,snr_db"
        assert written["loading_ch1"].read_text().splitlines()[0] == "subcarrier,bits,power"


class TestOnePeriodReceive:
    def test_loopback_112g_seed_2_error_free(self):
        """5,000,000 loopback bits at 112 Gb/s count no error (a tiled
        stream that cut the timing plateau at its start counted 85)."""
        sc = ScenarioConfig.single_channel(net_rate=112e9, loopback=True, min_bits=5_000_000)
        report = run_link(sc, seed=2).reports[1]
        assert report.bits_total >= 5_000_000
        assert report.bit_errors == 0

    @pytest.mark.parametrize("loopback", [True, False])
    def test_sync_sees_exactly_one_period(self, monkeypatch, loopback):
        """The synchronizer gets each lit channel's one-period probe capture,
        once per run, however many payload frames the run counts."""
        seen = []

        def recorded(w, cfg):
            seen.append(w.samples.size)
            return schmidl_cox_sync(w, cfg)

        monkeypatch.setattr(harness_mod, "schmidl_cox_sync", recorded)
        sc = _three_lit(loopback, min_bits=2 * _three_lit(loopback).bits_per_frame)
        record = run_link(sc, seed=4, channels=[0, 2])
        assert sorted(record.reports) == [0, 2]
        assert record.reports[0].bits_total == 2 * sc.bits_per_frame
        assert seen == [_frame_samples(sc.dmt)] * len(sc.link.lit_channels)


class TestOneTimingDecisionPerRun:
    def test_payload_frames_demodulate_at_the_probe_start(self, monkeypatch):
        """Every payload frame of a channel is demodulated at its probe's start."""
        found, used = [], []

        def recorded_sync(w, cfg):
            found.append(schmidl_cox_sync(w, cfg))
            return found[-1]

        def recorded_demodulate(w, sync, cfg):
            used.append(sync)
            return demodulate(w, sync, cfg)

        monkeypatch.setattr(harness_mod, "schmidl_cox_sync", recorded_sync)
        monkeypatch.setattr(harness_mod, "demodulate", recorded_demodulate)
        sc = _three_lit(min_bits=3 * _three_lit().bits_per_frame)
        run_link(sc, seed=4, channels=[0, 2])
        probe = dict(zip(sc.link.lit_channels, found))
        assert len(found) == 3 and used[:3] == found
        payload = used[3:]
        assert len(payload) == 2 * 3
        assert payload == [probe[0], probe[2]] * 3

    def test_run_completes_when_sync_fails_after_the_probe(self, monkeypatch):
        calls = []

        def probe_only(w, cfg):
            calls.append(w.samples.size)
            if len(calls) > 3:
                raise SyncNotFoundError("payload frame synchronized")
            return schmidl_cox_sync(w, cfg)

        monkeypatch.setattr(harness_mod, "schmidl_cox_sync", probe_only)
        sc = _three_lit(loopback=True, min_bits=3 * _three_lit().bits_per_frame)
        record = run_link(sc, seed=1, channels=[0, 1, 2])
        assert len(calls) == 3
        assert all(r.bits_total == 3 * sc.bits_per_frame for r in record.reports.values())
        assert record.worst_ber == 0.0

    def test_lost_sync_names_scenario_probe_pass_and_channel(self, monkeypatch):
        calls = []

        def lost_on_third(w, cfg):
            calls.append(w.samples.size)
            if len(calls) == 3:  # the probe synchronizes channels 0, 1, 2 in order
                raise SyncNotFoundError("timing metric peak 0.050 below floor 0.1")
            return schmidl_cox_sync(w, cfg)

        monkeypatch.setattr(harness_mod, "schmidl_cox_sync", lost_on_third)
        sc = _three_lit(loopback=True)
        with pytest.raises(SyncNotFoundError) as excinfo:
            run_link(sc, seed=1)
        message = str(excinfo.value)
        assert scenario_hash(sc) in message
        assert "probe pass" in message
        assert "channel 2: timing metric peak 0.050" in message
