"""Tests for the receive chain: sqrt, resample, sync, demod, equalizer."""

import numpy as np
import pytest

from dmtlink.core import (
    DmtConfig,
    RealWaveform,
    SubcarrierPlan,
    constellation,
    map_symbols,
)
from dmtlink.loading import GapConfig, SnrProfile, chow_load
from dmtlink.core import target_bits_per_symbol
from dmtlink.rxdsp import (
    EqualizerState,
    SyncNotFoundError,
    SyncResult,
    channel_estimate,
    count_errors,
    dd_equalize,
    demap_frame,
    demodulate,
    resample,
    schmidl_cox_sync,
    sqrt_linearize,
)
from dmtlink.txdsp import build_training_symbols, clip, modulate_frame
from optical_reference import OpticalField, photodiode

CFG = DmtConfig()
N_TS = CFG.n_training_symbols  # rows of demodulate's output before the data rows


def _frame(plan, seed=0, payload_seed=1):
    rng = np.random.default_rng(payload_seed)
    payload = rng.integers(0, 2, CFG.n_data_symbols * plan.bits_per_symbol)
    return payload, modulate_frame(payload, plan, CFG, seed=seed)


def _receive(waveform, plan, seed=0, step=0.05):
    """Loopback receive path: sync, demodulate, estimate, equalize, demap.

    The frame is captured as a slice of a continuously repeating stream
    (cyclic lead-in and tail), so the sync plateau is symmetric around the
    true start; the stream's periodicity lets the start index be reduced
    into the first copy before demodulation.
    """
    s = waveform.samples
    pad = 4096
    stream = np.concatenate([s[-pad:], s, s, s[:pad]])
    capture = RealWaveform(stream, waveform.sample_rate)
    sync = schmidl_cox_sync(capture, CFG)
    start = pad + (sync.start_index - pad) % s.size
    rx = demodulate(capture, SyncResult(start, sync.metric_peak, sync.plateau_width), CFG)
    known_ts = build_training_symbols(CFG, seed=seed)
    state = channel_estimate(rx[1:N_TS], known_ts[1:], step=step)
    equalized, _ = dd_equalize(rx[N_TS:], state, plan)
    return demap_frame(equalized, plan)


class TestSqrtLinearize:
    def test_constant_square_inverts(self):
        w = RealWaveform(np.full(64, 6.25), 80e9)
        assert np.allclose(sqrt_linearize(w).samples, 2.5, atol=1e-15)

    def test_zero_input(self):
        w = RealWaveform(np.zeros(64), 80e9)
        assert np.all(sqrt_linearize(w).samples == 0)

    def test_negative_clamped(self):
        w = RealWaveform(np.array([-1.0, 0.0, 4.0]), 80e9)
        assert np.array_equal(sqrt_linearize(w).samples, [0.0, 0.0, 2.0])

    def test_inverts_photodiode(self):
        rng = np.random.default_rng(0)
        envelope = np.abs(rng.standard_normal(4096)) + 0.1
        field = OpticalField(envelope.astype(complex), 64e9)
        recovered = sqrt_linearize(photodiode(field))
        assert np.allclose(recovered.samples, envelope, rtol=1e-12)


class TestResample:
    def test_identity_at_same_rate(self):
        w = RealWaveform(np.arange(128.0), 80e9)
        assert resample(w, 80e9) is w

    def test_tone_80_to_64(self):
        """5 GHz tone survives the 80 -> 64 GS/s rate change untouched."""
        n = 8000
        t = np.arange(n) / 80e9
        w = RealWaveform(np.cos(2 * np.pi * 5e9 * t + 0.3), 80e9)
        out = resample(w, 64e9)
        assert out.samples.size == 6400
        spectrum = np.fft.rfft(out.samples) / out.samples.size * 2
        k = round(5e9 * out.samples.size / 64e9)
        amp_db = 20 * np.log10(np.abs(spectrum[k]))
        phase_err = np.angle(spectrum[k]) - 0.3
        assert abs(amp_db) < 0.1
        assert abs(np.degrees(phase_err)) < 1.0

    def test_white_spectrum_density_preserved(self):
        """In-band PSD is preserved within 2% through 80 -> 64 GS/s."""
        rng = np.random.default_rng(4)
        w = RealWaveform(rng.standard_normal(80_000), 80e9)
        out = resample(w, 64e9)
        f_in = np.fft.rfftfreq(w.samples.size, 1 / 80e9)
        f_out = np.fft.rfftfreq(out.samples.size, 1 / 64e9)
        band = 30e9
        psd_in = np.mean(np.abs(np.fft.rfft(w.samples)[f_in < band]) ** 2) / (
            w.samples.size * 80e9
        )
        psd_out = np.mean(np.abs(np.fft.rfft(out.samples)[f_out < band]) ** 2) / (
            out.samples.size * 64e9
        )
        assert psd_out == pytest.approx(psd_in, rel=0.02)

    def test_irrational_ratio_rejected(self):
        w = RealWaveform(np.arange(100.0), 80e9)
        with pytest.raises(ValueError):
            resample(w, 79e9)


class TestSchmidlCoxSync:
    PLAN = SubcarrierPlan.uniform(CFG.n_data_subcarriers)

    def test_noiseless_known_offset(self):
        """Frame starting at sample 1234 of a continuous stream is found.

        Truth is the frame's first sample (the prefix start); the plateau
        midpoint deliberately lands half a guard later, well inside the
        +/- one-guard window.
        """
        _, frame = _frame(self.PLAN)
        s = frame.waveform.samples
        buf = np.concatenate([s[-1234:], s, s[:4096]])
        sync = schmidl_cox_sync(RealWaveform(buf, 64e9), CFG)
        err = (sync.start_index - 1234 + s.size // 2) % s.size - s.size // 2
        assert abs(err) <= CFG.cp_length
        assert 0.0 <= sync.metric_peak <= 1.0 + 1e-9
        assert sync.plateau_width >= 1

    def test_monte_carlo_10db(self):
        """1000 noisy trials at 10 dB: at least 99% of starts within the guard.

        Each capture is a random slice of a continuously repeating
        transmission plus white noise, mirroring a real capture buffer;
        truth is the first sample of the frame copy nearest the estimate.
        """
        _, frame = _frame(self.PLAN)
        signal = frame.waveform.samples
        n = signal.size
        sigma = frame.waveform.rms() / np.sqrt(10.0)
        stream = np.concatenate([signal, signal, signal[:8192]])
        rng = np.random.default_rng(20260814)
        hits = 0
        for _ in range(1000):
            phase = int(rng.integers(0, n))
            capture = stream[phase : phase + n + 8192].copy()
            capture += rng.normal(0.0, sigma, capture.size)
            sync = schmidl_cox_sync(RealWaveform(capture, 64e9), CFG)
            true_start = (-phase) % n
            err = (sync.start_index - true_start + n // 2) % n - n // 2
            if abs(err) <= CFG.cp_length:
                hits += 1
        assert hits >= 990

    def test_pure_noise_raises(self):
        rng = np.random.default_rng(3)
        w = RealWaveform(rng.standard_normal(300_000), 64e9)
        with pytest.raises(SyncNotFoundError):
            schmidl_cox_sync(w, CFG)

    def test_too_short_capture_rejected(self):
        w = RealWaveform(np.zeros(100), 64e9)
        with pytest.raises(ValueError):
            schmidl_cox_sync(w, CFG)


class TestDemodulate:
    PLAN = SubcarrierPlan.uniform(CFG.n_data_subcarriers)

    def test_exact_sync_roundtrip(self):
        """With perfect timing the demodulated bins equal the loaded ones."""
        _, frame = _frame(self.PLAN)
        sync = SyncResult(start_index=CFG.cp_length, metric_peak=1.0, plateau_width=33)
        rx = demodulate(frame.waveform, sync, CFG)
        assert np.allclose(rx, frame.frequency_symbols, atol=1e-9)

    def test_offset_inside_guard_recovers_clean(self):
        """Any start within the prefix costs only a phase slope: zero errors."""
        payload, frame = _frame(self.PLAN)
        for early in (1, 16, 32):
            w = frame.waveform
            sync = SyncResult(CFG.cp_length - early, 1.0, 33)
            rx = demodulate(w, sync, CFG)
            ts = build_training_symbols(CFG, seed=0)
            state = channel_estimate(rx[1:N_TS], ts[1:])
            eq, _ = dd_equalize(rx[N_TS:], state, self.PLAN)
            report = count_errors(demap_frame(eq, self.PLAN), payload, self.PLAN)
            assert report.bit_errors == 0

    def test_offset_past_guard_causes_errors(self):
        """Five samples past the guard interval breaks orthogonality."""
        plan = SubcarrierPlan.uniform(CFG.n_data_subcarriers, bits=8)
        payload, frame = _frame(plan)
        tiled = RealWaveform(np.tile(frame.waveform.samples, 2), 64e9)
        sync = SyncResult(CFG.cp_length + 5, 1.0, 33)
        rx = demodulate(tiled, sync, CFG)
        ts = build_training_symbols(CFG, seed=0)
        state = channel_estimate(rx[1:N_TS], ts[1:])
        eq, _ = dd_equalize(rx[N_TS:], state, plan)
        report = count_errors(demap_frame(eq, plan), payload, plan)
        assert report.bit_errors > 0

    def test_truncated_capture_rejected(self):
        _, frame = _frame(self.PLAN)
        short = RealWaveform(frame.waveform.samples[:-100], 64e9)
        with pytest.raises(ValueError):
            demodulate(short, SyncResult(CFG.cp_length, 1.0, 33), CFG)

    def test_windows_past_the_end_wrap_to_the_start(self):
        """A one-period capture is read circularly: a rolled frame demodulates
        bit for bit as the frame itself, even when its windows wrap the end."""
        _, frame = _frame(self.PLAN)
        n = frame.waveform.samples.size
        k = n - 1000
        start = (CFG.cp_length + k) % n  # 968 samples before the end: TS4's window wraps
        rolled = RealWaveform(np.roll(frame.waveform.samples, k), 64e9)
        got = demodulate(rolled, SyncResult(start, 1.0, 33), CFG)
        want = demodulate(frame.waveform, SyncResult(CFG.cp_length, 1.0, 33), CFG)
        assert np.array_equal(got, want)


class TestChannelEstimate:
    def test_identity_channel(self):
        ts = build_training_symbols(CFG, seed=2)[1:]
        state = channel_estimate(ts, ts)
        assert np.allclose(state.taps, 1.0, atol=1e-9)

    def test_recovers_synthetic_channel(self):
        rng = np.random.default_rng(5)
        ts = build_training_symbols(CFG, seed=2)[1:]
        h = rng.standard_normal(CFG.n_data_subcarriers) + 1j * rng.standard_normal(
            CFG.n_data_subcarriers
        )
        state = channel_estimate(ts * h, ts)
        assert np.allclose(state.taps, h, atol=1e-6)

    def test_averaging_reduces_variance(self):
        """Four training symbols cut tap error variance vs a single one."""
        rng = np.random.default_rng(6)
        ts = build_training_symbols(CFG, seed=2)[1:]
        err1 = []
        err4 = []
        for _ in range(200):
            noise = (
                rng.standard_normal(ts.shape) + 1j * rng.standard_normal(ts.shape)
            ) * 0.05
            rx = ts + noise
            err1.append(np.mean(np.abs(channel_estimate(rx[:1], ts[:1]).taps - 1.0) ** 2))
            err4.append(np.mean(np.abs(channel_estimate(rx, ts).taps - 1.0) ** 2))
        ratio = np.mean(err4) / np.mean(err1)
        assert ratio < 0.5
        assert ratio > 0.15  # should sit near the analytic 1/4

    def test_all_zero_training_rejected(self):
        with pytest.raises(ValueError):
            channel_estimate(np.zeros((4, 8), complex), np.zeros((4, 8), complex))


class TestDdEqualize:
    def _symbols(self, plan, n_sym, seed):
        rng = np.random.default_rng(seed)
        groups = rng.integers(0, 2 ** plan.bits[0], (n_sym, plan.n_subcarriers))
        points = map_symbols(groups.ravel(), int(plan.bits[0])).reshape(n_sym, -1)
        return points * np.sqrt(plan.powers), groups

    def test_mu_zero_is_static(self):
        plan = SubcarrierPlan.uniform(64, bits=4)
        tx, _ = self._symbols(plan, 50, 1)
        state = EqualizerState(np.ones(64), step=0.0)
        eq, new_state = dd_equalize(tx, state, plan)
        assert np.allclose(eq, tx, atol=1e-12)
        assert np.array_equal(new_state.taps, state.taps)

    def test_mu_one_snaps_to_instantaneous(self):
        """With mu = 1 and correct decisions, taps equal the last Y/Xhat."""
        plan = SubcarrierPlan.uniform(64, bits=4)
        tx, _ = self._symbols(plan, 10, 2)
        h = 1.2 * np.exp(0.3j)
        state = EqualizerState(np.full(64, h), step=1.0)
        _, new_state = dd_equalize(tx * h, state, plan)
        assert np.allclose(new_state.taps, h, atol=1e-9)

    def test_tracks_phase_drift(self):
        """DD adaptation beats frozen taps under a slow phase drift."""
        plan = SubcarrierPlan.uniform(256, bits=4)
        tx, groups = self._symbols(plan, 119, 3)
        rng = np.random.default_rng(7)
        drift = np.exp(1j * np.deg2rad(0.1) * np.arange(119))[:, None]
        noise = (
            rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape)
        ) * np.sqrt(10 ** (-17.0 / 10) / 2)
        rx = tx * drift + noise
        tx_bits = demap_frame(tx, plan)

        frozen, _ = dd_equalize(rx, EqualizerState(np.ones(256), step=0.0), plan)
        tracked, _ = dd_equalize(rx, EqualizerState(np.ones(256), step=0.05), plan)
        frozen_errors = count_errors(demap_frame(frozen, plan), tx_bits, plan).bit_errors
        tracked_errors = count_errors(demap_frame(tracked, plan), tx_bits, plan).bit_errors
        assert tracked_errors < frozen_errors

    def test_decisions_are_nearest_points_all_orders(self):
        """Each tap update decides for the nearest point of its order, 1 to 8.

        With unit taps and mu = 1 the returned taps are ``row / (decision *
        sqrt(P))``, which exposes every decision against a brute-force search.
        """
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 9, 400)
        bits[:9] = np.arange(9)
        powers = np.where(bits > 0, rng.uniform(0.5, 2.0, bits.size), 0.0)
        powers *= np.count_nonzero(bits) / powers.sum()
        plan = SubcarrierPlan(bits=bits, powers=powers)
        scale = np.sqrt(plan.powers)
        row = (rng.uniform(-1.5, 1.5, bits.size) + 1j * rng.uniform(-1.5, 1.5, bits.size)) * scale
        _, state = dd_equalize(row[None, :], EqualizerState(np.ones(bits.size), step=1.0), plan)
        for i in np.flatnonzero(bits):
            table = constellation(int(bits[i]))
            nearest = table[np.argmin(np.abs(row[i] / scale[i] - table))]
            assert row[i] / (state.taps[i] * scale[i]) == pytest.approx(nearest, abs=1e-12)
        assert np.all(state.taps[bits == 0] == 1.0)

    def test_input_state_not_mutated(self):
        plan = SubcarrierPlan.uniform(64, bits=2)
        tx, _ = self._symbols(plan, 5, 4)
        state = EqualizerState(np.ones(64), step=0.5)
        before = state.taps.copy()
        dd_equalize(tx * 1.1, state, plan)
        assert np.array_equal(state.taps, before)


class TestCountErrors:
    PLAN = SubcarrierPlan.uniform(8, bits=2)

    def test_identical_streams(self):
        bits = np.tile([0, 1], 80)
        report = count_errors(bits, bits, self.PLAN)
        assert report.bit_errors == 0
        assert report.ber == 0.0

    def test_complemented_streams(self):
        bits = np.tile([0, 1], 80)
        report = count_errors(1 - bits, bits, self.PLAN)
        assert report.ber == 1.0

    def test_injected_flips_counted_exactly(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, 10 * self.PLAN.bits_per_symbol)
        flipped = bits.copy()
        flip_at = rng.choice(bits.size, size=7, replace=False)
        flipped[flip_at] ^= 1
        report = count_errors(flipped, bits, self.PLAN)
        assert report.bit_errors == 7

    def test_per_subcarrier_attribution(self):
        """Flips planted on one subcarrier's bit lanes land in its bucket."""
        bits = np.zeros(20 * self.PLAN.bits_per_symbol, dtype=np.int8)
        flipped = bits.reshape(20, -1).copy()
        flipped[:, 4:6] ^= 1  # subcarrier 2 owns bit lanes 4 and 5
        report = count_errors(flipped.ravel(), bits, self.PLAN)
        assert report.per_subcarrier_errors[2] == 40
        assert report.per_subcarrier_errors.sum() == 40

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_errors(np.zeros(16), np.zeros(18), self.PLAN)


class TestFullChainIdentity:
    @pytest.mark.parametrize("net_rate", [112e9, 56e9])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_loopback_is_error_free(self, net_rate, seed):
        """modulate -> sync -> demod -> estimate -> equalize -> demap: BER 0."""
        b_target = target_bits_per_symbol(net_rate, CFG)
        snr = SnrProfile(np.full(CFG.n_data_subcarriers, 10**3.0))
        plan = chow_load(snr, b_target, GapConfig(), CFG.max_bits_per_subcarrier)
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 2, CFG.n_data_symbols * plan.bits_per_symbol)
        frame = modulate_frame(payload, plan, CFG, seed=seed)
        rx_bits = _receive(frame.waveform, plan, seed=seed)
        report = count_errors(rx_bits, payload, plan)
        assert report.bit_errors == 0
        assert report.bits_total == payload.size


class TestCircularSync:
    def test_plateau_straddling_capture_start(self):
        """A one-period capture syncs inside the prefix wherever the period is cut.

        The loopback frame is rolled so that its timing plateau, which runs
        from the end of the previous frame into TS1, straddles index 0 of
        the capture; the found start must still land inside TS1's cyclic
        prefix, before its body, at every roll.
        """
        plan = SubcarrierPlan.uniform(CFG.n_data_subcarriers, bits=4)
        _, frame = _frame(plan)
        period = clip(frame.waveform, CFG.clipping_ratio_db).samples
        for offset in range(-80, 81):
            sync = schmidl_cox_sync(RealWaveform(np.roll(period, offset), 64e9), CFG)
            into_frame = (sync.start_index - offset) % period.size
            assert 0 <= sync.start_index < period.size
            assert 0 <= into_frame < CFG.cp_length, f"roll {offset}: start {into_frame}"
