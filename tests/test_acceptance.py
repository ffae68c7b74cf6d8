"""Acceptance gate: every release-blocking property of the simulator.

Each test is one criterion, printed as a single PASS/FAIL line (visible in
the captured output and mirrored by the verbose test status):

 1. loopback exactness          — BER 0 at every rate through the DSP chain
 2. fading oracle               — simulated nulls match the closed form
 3. loading optimality          — Chow totals exact, never beats the oracle
 4. sync robustness             — timing within the guard at 10 dB SNR
 5. AWGN calibration            — QPSK BER matches the Q function
 6. vestigial-sideband benefit  — detuning lowers required OSNR at 50 km
 7. rate ordering               — required OSNR increases with net rate
 8. crosstalk trend             — neighbors raise the 112 Gb/s BER floor
 9. rate/reach table            — the five-comb operating points pass,
                                  next-higher rates fail
10. determinism                 — serial and parallel runs byte-identical

Criteria 6-9 run the full optical chain at counting depths chosen for a
desk-scale machine; the whole module is still several minutes of work and
is the slowest part of the suite by design.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from dmtlink.channel import LinkConfig, SPEED_OF_LIGHT, end_to_end_fading_profile
from dmtlink.cli import main as cli_main
from dmtlink.core import DmtConfig, InfeasibleRateError, RealWaveform, SubcarrierPlan
from dmtlink.harness import (
    InfeasibleOsnrError,
    ScenarioConfig,
    rate_reach_table,
    required_osnr,
    run_link,
    sweep_detuning,
)
from dmtlink.loading import GapConfig, SnrProfile, chow_load
from dmtlink.rxdsp import (
    SyncResult,
    channel_estimate,
    count_errors,
    dd_equalize,
    demap_frame,
    demodulate,
    schmidl_cox_sync,
)
from dmtlink.txdsp import build_training_symbols, modulate_frame
from loading_reference import levin_campello_oracle

pytestmark = pytest.mark.acceptance

RATES = (56e9, 64e9, 74.7e9, 89.6e9, 112e9)
CFG = DmtConfig()

LADDER_POINTS = [(rate, reach, 19e9) for reach in (0.0, 50.0) for rate in RATES] + [
    (rate, 50.0, 0.0) for rate in RATES[1:]
]
"""The (rate, reach, detuning) points of criteria 6-7's required-OSNR ladder."""

# Criterion 9's table: its base scenario, the rows that must pass, and the
# next-higher rate at each of their reaches, which must fail.
TABLE_BASE = ScenarioConfig(
    link=LinkConfig(osnr_db=38.0, detuning=19e9), min_bits=300_000, min_errors=100
)
TABLE_PASS_SET = ((5, 89.6e9, 40.0), (6, 74.7e9, 80.0), (7, 64e9, 160.0), (8, 56e9, 240.0))
TABLE_FAIL_SET = ((5, 112e9, 40.0), (6, 89.6e9, 80.0), (7, 74.7e9, 160.0), (8, 64e9, 240.0))


@contextmanager
def _gate(num: int, name: str):
    """Print exactly one PASS/FAIL line for an acceptance criterion."""
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


def _ladder_scenario(rate: float, reach_km: float, detuning: float) -> ScenarioConfig:
    """Single-channel operating point at required-OSNR counting depth."""
    return ScenarioConfig.single_channel(
        net_rate=rate,
        reach_km=reach_km,
        detuning=detuning,
        min_bits=250_000,
        min_errors=100,
    )


def _ladder_point(point) -> float:
    """Required OSNR at one (rate, reach, detuning) point, +inf if unreachable."""
    rate, reach, detuning = point
    try:
        return required_osnr(_ladder_scenario(rate, reach, detuning), tol_db=0.125, seed=11)
    except InfeasibleOsnrError:
        return np.inf


def _crosstalk_ber(point) -> float:
    """Back-to-back BER of channel 1 at one (lit set, rate, OSNR) point of criterion 8.

    An OSNR where the rate does not even load counts as BER 1 (crosstalk
    can push the loading itself infeasible at the low end).
    """
    active, rate, osnr = point
    link = LinkConfig(
        n_channels=4,
        active_channels=active,
        channel_under_test=1,
        detuning=19e9,
        span_lengths_km=(),
        osnr_db=osnr,
    )
    sc = ScenarioConfig(link=link, net_rate=rate, min_bits=500_000, min_errors=100)
    try:
        return run_link(sc, seed=17).worst_ber
    except InfeasibleRateError:
        return 1.0


@pytest.fixture(scope="module")
def osnr_ladder():
    """Required OSNR over (rate, reach, detuning) points used by criteria 6-7.

    Values are bisection results at 0.125 dB quantization with a fixed
    seed; a point whose target BER is unreachable in the bracket maps to
    +inf (it needs more OSNR than any finite competitor).  Each search
    depends only on its point and seed, so the points run on two worker
    processes.
    """
    with ProcessPoolExecutor(max_workers=2) as pool:
        return dict(zip(LADDER_POINTS, pool.map(_ladder_point, LADDER_POINTS)))


class TestAcceptance:
    """Release criteria, one test per criterion, in spec order."""

    def test_criterion_01_loopback_exactness(self):
        """Every rate survives the full TX/RX DSP chain error-free."""
        with _gate(1, "loopback exactness"):
            t0 = time.perf_counter()
            for rate in RATES:
                sc = ScenarioConfig.single_channel(net_rate=rate, loopback=True)
                record = run_link(sc, seed=29)
                report = record.reports[sc.link.cut_index]
                assert report.bit_errors == 0, f"{rate / 1e9:g} Gb/s not error-free"
                assert report.bits_total >= 3 * sc.bits_per_frame
            elapsed = time.perf_counter() - t0
            assert elapsed < 30.0, f"loopback sweep took {elapsed:.1f} s"

    def test_criterion_02_fading_oracle(self):
        """Filterless dispersed nulls land on the analytic roots (±125 MHz)."""
        with _gate(2, "fading oracle"):
            for reach_km in (40.0, 80.0, 160.0):
                link = LinkConfig(
                    n_channels=4,
                    active_channels=(1,),
                    channel_under_test=1,
                    span_lengths_km=(reach_km,),
                    detuning=0.0,
                )
                freqs, sim_db = end_to_end_fading_profile(link, use_interleaver=False)
                d_si = link.dispersion_ps_nm_km * 1e-6
                lam = link.center_wavelength_nm * 1e-9
                scale = SPEED_OF_LIGHT / (2.0 * d_si * reach_km * 1e3 * lam**2)
                roots = []
                k = 0
                while True:
                    root = np.sqrt((2 * k + 1) * scale)
                    if root > 28e9:
                        break
                    roots.append(root)
                    k += 1
                assert roots, "no analytic null below 28 GHz"
                for root in roots:
                    window = np.abs(freqs - root) < 0.3e9
                    found = freqs[window][np.argmin(sim_db[window])]
                    assert abs(found - root) <= 125e6 + 1e-3, (
                        f"null at {found / 1e9:.4f} GHz vs analytic "
                        f"{root / 1e9:.4f} GHz ({reach_km:g} km)"
                    )

    def test_criterion_03_loading_optimality(self):
        """1000 random profiles: exact totals, BER bound, oracle power bound."""
        with _gate(3, "loading optimality"):
            t0 = time.perf_counter()
            rng = np.random.default_rng(20260814)
            gap = GapConfig()
            for _ in range(1000):
                snr = SnrProfile(10 ** (rng.uniform(0, 30, 64) / 10))
                with np.errstate(divide="ignore"):
                    ceiling = np.minimum(
                        np.floor(np.log2(1 + snr.snr_linear / gap.gap_linear)), 8
                    )
                b_target = int(rng.integers(1, int(ceiling.sum()) + 1))
                chow = chow_load(snr, b_target, gap, max_bits=8)
                oracle = levin_campello_oracle(snr, b_target, gap, max_bits=8)
                assert int(chow.bits.sum()) == b_target
                assert int(oracle.bits.sum()) == b_target
                for plan in (chow, oracle):
                    active = plan.bits > 0
                    achieved_gap = (
                        plan.powers[active]
                        * snr.snr_linear[active]
                        / (2.0 ** plan.bits[active] - 1.0)
                    )
                    predicted = 2.0 * norm.sf(np.sqrt(3.0 * achieved_gap))
                    assert np.all(predicted <= 1.05 * gap.target_ber)
            elapsed = time.perf_counter() - t0
            assert elapsed < 10.0, f"1000 profiles took {elapsed:.1f} s"

    def test_criterion_04_sync_robustness(self):
        """>= 99% of 1000 noisy captures sync within the 32-sample guard."""
        with _gate(4, "sync robustness"):
            plan = SubcarrierPlan.uniform(CFG.n_data_subcarriers, bits=2)
            rng = np.random.default_rng(20260814)
            payload = rng.integers(0, 2, CFG.n_data_symbols * plan.bits_per_symbol)
            signal = modulate_frame(payload, plan, CFG, seed=0).waveform.samples
            n = signal.size
            sigma = float(np.sqrt(np.mean(signal**2) / 10.0))  # 10 dB SNR
            stream = np.concatenate([signal, signal, signal[:8192]])
            hits = 0
            for _ in range(1000):
                phase = int(rng.integers(0, n))
                capture = stream[phase : phase + n + 8192].copy()
                capture += rng.normal(0.0, sigma, capture.size)
                sync = schmidl_cox_sync(RealWaveform(capture, 64e9), CFG)
                true_start = (-phase) % n
                err = (sync.start_index - true_start + n // 2) % n - n // 2
                hits += abs(err) <= CFG.cp_length
            assert hits >= 990, f"only {hits}/1000 within the cyclic prefix"

    def test_criterion_05_awgn_calibration(self):
        """Uniform-QPSK BER over pure AWGN matches Q(sqrt(SNR)) within 15%."""
        with _gate(5, "AWGN calibration"):
            plan = SubcarrierPlan.uniform(CFG.n_data_subcarriers, bits=2)
            target_ber = 1e-3
            snr = float(norm.isf(target_ber) ** 2)  # Q(sqrt(snr)) = target
            known_ts = build_training_symbols(CFG, seed=3)
            rng = np.random.default_rng(20260814)

            errors = 0
            bits = 0
            for _ in range(5):
                payload = rng.integers(0, 2, CFG.n_data_symbols * plan.bits_per_symbol)
                frame = modulate_frame(payload, plan, CFG, seed=3)
                wave = frame.waveform
                start = SyncResult(0, 1.0, 1)

                n_ts = CFG.n_training_symbols
                clean = demodulate(wave, start, CFG)
                es = float(np.mean(np.abs(clean[n_ts:]) ** 2))
                unit_noise = demodulate(
                    RealWaveform(
                        rng.standard_normal(wave.samples.size), wave.sample_rate
                    ),
                    start,
                    CFG,
                )
                bin_noise_var = float(np.mean(np.abs(unit_noise[n_ts:]) ** 2))
                sigma = float(np.sqrt(es / (snr * bin_noise_var)))

                noisy = RealWaveform(
                    wave.samples + rng.normal(0.0, sigma, wave.samples.size),
                    wave.sample_rate,
                )
                rx = demodulate(noisy, start, CFG)
                state = channel_estimate(clean[1:n_ts], known_ts[1:], step=0.0)
                equalized, _ = dd_equalize(rx[n_ts:], state, plan)
                report = count_errors(demap_frame(equalized, plan), payload, plan)
                errors += report.bit_errors
                bits += report.bits_total

            assert bits >= 1_000_000
            measured = errors / bits
            ratio = measured / target_ber
            assert 0.85 <= ratio <= 1.15, (
                f"measured BER {measured:.3e} vs theory {target_ber:.1e} "
                f"(ratio {ratio:.3f} over {bits} bits)"
            )

    def test_criterion_06_vsb_benefit(self, osnr_ladder):
        """At 50 km, detuning strictly lowers required OSNR at every rate
        >= 64 Gb/s, and the best detuning is rate-independent (one step)."""
        with _gate(6, "vestigial-sideband benefit"):
            for rate in RATES[1:]:
                detuned = osnr_ladder[(rate, 50.0, 19e9)]
                centered = osnr_ladder[(rate, 50.0, 0.0)]
                assert detuned < centered, (
                    f"{rate / 1e9:g} Gb/s at 50 km: detuned {detuned:.2f} dB "
                    f"not below centered {centered:.2f} dB"
                )

            step = 4.75e9
            offsets = np.arange(0.0, 19.1e9, step)
            argmins = {}
            for rate in RATES[1:]:
                osnr = osnr_ladder[(rate, 50.0, 19e9)] + 0.75
                sc = replace(
                    _ladder_scenario(rate, 50.0, 19e9),
                    min_bits=400_000,
                )
                sc = replace(sc, link=replace(sc.link, osnr_db=osnr))
                ber = sweep_detuning(sc, offsets, seed=13, workers=2)
                argmins[rate] = offsets[np.argmin(ber)]
                assert argmins[rate] > 0.0, f"{rate / 1e9:g} Gb/s best at 0 GHz"
            span = max(argmins.values()) - min(argmins.values())
            assert span <= step + 1.0, (
                f"best detuning varies {span / 1e9:.2f} GHz across rates: "
                f"{ {r / 1e9: a / 1e9 for r, a in argmins.items()} }"
            )

    def test_criterion_07_rate_ordering(self, osnr_ladder):
        """Required OSNR strictly increases with net rate at every reach."""
        with _gate(7, "rate ordering"):
            for reach in (0.0, 50.0):
                values = [osnr_ladder[(rate, reach, 19e9)] for rate in RATES]
                assert all(
                    lo < hi for lo, hi in zip(values, values[1:])
                ), f"ladder not strictly increasing at {reach:g} km: {values}"

    def test_criterion_08_crosstalk_trend(self):
        """Lit neighbors raise the 112 Gb/s back-to-back BER floor; the
        lower rates stay under the pre-FEC threshold."""
        with _gate(8, "crosstalk trend"):
            osnr_grid = (38.0, 44.0, np.inf)
            curves = [((1,), 112e9)] + [((0, 1, 2), rate) for rate in RATES]
            points = [(active, rate, osnr) for active, rate in curves for osnr in osnr_grid]
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
                bers = dict(zip(points, pool.map(_crosstalk_ber, points)))

            def min_ber(active, rate):
                # floor of the BER-vs-OSNR curve
                return min(bers[(active, rate, osnr)] for osnr in osnr_grid)

            single = min_ber((1,), 112e9)
            three = min_ber((0, 1, 2), 112e9)
            assert three > single, (
                f"3-channel floor {three:.3e} not above single-channel "
                f"{single:.3e} at 112 Gb/s"
            )
            for rate in RATES[:-1]:
                floor = min_ber((0, 1, 2), rate)
                assert floor < 4e-3, f"{rate / 1e9:g} Gb/s floor {floor:.3e}"

    def test_criterion_09_rate_reach_table(self):
        """The four reach scenarios pass at the evaluation OSNR and each
        next-higher rate at the same reach fails; all inside 30 minutes."""
        with _gate(9, "rate/reach table"):
            t0 = time.perf_counter()
            violations = []
            for row in rate_reach_table(TABLE_BASE, seed=7, workers=2, scenarios=TABLE_PASS_SET):
                if not row.passes:
                    violations.append(
                        f"{row.n_channels} x {row.net_rate / 1e9:g} Gb/s at "
                        f"{row.reach_km:g} km: worst BER {row.worst_ber:.3e}"
                    )
            for row in rate_reach_table(TABLE_BASE, seed=7, workers=2, scenarios=TABLE_FAIL_SET):
                if row.passes:
                    violations.append(
                        f"{row.n_channels} x {row.net_rate / 1e9:g} Gb/s at "
                        f"{row.reach_km:g} km unexpectedly passed "
                        f"(worst BER {row.worst_ber:.3e})"
                    )
            elapsed = time.perf_counter() - t0
            assert not violations, "; ".join(violations)
            assert elapsed < 1800.0, f"table took {elapsed:.0f} s"

    def test_criterion_10_determinism(self, tmp_path):
        """Identical scenario+seed: serial and parallel CSVs byte-identical."""
        with _gate(10, "determinism"):
            config = tmp_path / "scenario.json"
            config.write_text(
                '{"rate_gbps": 56.0, "osnr_db": 32.0, "reach_km": 10.0,'
                ' "min_bits": 200000, "min_errors": 50}'
            )
            args = [
                "sweep",
                "--config",
                str(config),
                "--axis",
                "detuning",
                "--start",
                "14",
                "--stop",
                "19",
                "--step",
                "5",
                "--seed",
                "5",
            ]
            serial, parallel = tmp_path / "serial", tmp_path / "parallel"
            assert cli_main(args + ["--out-dir", str(serial)]) == 0
            assert cli_main(args + ["--out-dir", str(parallel), "--workers", "2"]) == 0
            (serial_csv,) = serial.glob("*.csv")
            (parallel_csv,) = parallel.glob("*.csv")
            assert serial_csv.name == parallel_csv.name
            assert serial_csv.read_bytes() == parallel_csv.read_bytes()
