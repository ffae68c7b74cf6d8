"""Each receiver detects on its own passband: a 2-3-5-smooth grid, not the frame.

``receive`` lays the bins a receiver's port passes onto a detection
grid of length ``L``, the smallest 2-3-5-smooth length of at least
``W + K`` (``W`` passed bins, ``K`` kept capture bins), and detects there.
The checks below pin the transform budget this buys, compare the captures
with detection on the full grid, and check the length helper by brute
force.
"""

from dataclasses import replace

import numpy as np
import pytest

import dmtlink.harness as harness_mod
from dmtlink import _spectral
from dmtlink.channel import (
    LinkConfig,
    _launch,
    _mean_power,
    _mux_add,
    _smooth_length,
    _span_operators,
)
from dmtlink.core import RealWaveform, SubcarrierPlan
from dmtlink.harness import ScenarioConfig
from optical_reference import (
    OpticalField,
    add_osnr_noise,
    full_grid_port,
    noise_draws,
    photodiode,
    rx_frontend,
)
from span_frame import span_captures

GRID_POINTS = 1_031_680  # one frame on the 256 GS/s composite grid
DAC_RATE = 64e9


def _smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def _link(lit, reach_km, osnr_db=38.0, **overrides):
    return LinkConfig(
        n_channels=4,
        active_channels=lit,
        channel_under_test=1,
        span_lengths_km=(reach_km,) if reach_km > 0 else (),
        osnr_db=osnr_db,
        **overrides,
    )


def _count_transforms(monkeypatch):
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            out = _original(a, *args, **kwargs)
            axis = kwargs.get("axis", -1)
            calls.append((_name, max(np.shape(a)[axis], out.shape[axis])))
            return out

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("lit, grid_sized", [((1,), 2), ((0, 1, 2), 6)])
def test_warm_payload_frame_transforms(monkeypatch, lit, grid_sized):
    """A warm payload frame receiving channel 1 makes one DAC and one launch
    transform per lit channel on the grid, and detects on a smooth grid
    ``L`` with ``W + K <= L < n`` (on the full grid it made 4 and 8)."""
    sc = ScenarioConfig(link=_link(lit, 240.0), net_rate=56e9)
    plans = {ch: SubcarrierPlan.uniform(sc.dmt.n_data_subcarriers, bits=2) for ch in lit}
    harness_mod._transmit_once(sc, plans, 1, 4, [1], {})  # warms the cache
    calls = _count_transforms(monkeypatch)
    harness_mod._transmit_once(sc, plans, 2, 4, [1], {})
    assert sum(n == GRID_POINTS for _, n in calls) == grid_sized

    operators = _span_operators(replace(sc.link, osnr_db=np.inf), GRID_POINTS)
    start, width = operators.receive_window(1)
    kept = _spectral.output_length(GRID_POINTS, sc.link.grid_rate, sc.link.rx_sample_rate) // 2 + 1
    receive = [n for name, n in calls if name == "ifft" and n > kept]
    assert len(receive) == 1
    size = receive[0]
    assert _smooth(size) and width + kept <= size < GRID_POINTS
    assert ("rfft", size) in calls


def _full_grid_captures(link, drives, rx, seed):
    """The span's captures, each receiver detected on the whole frame."""
    rate, n = link.grid_rate, next(iter(drives.values())).samples.size
    operators = _span_operators(replace(link, osnr_db=np.inf), n)
    composite = np.zeros(n, dtype=np.complex128)
    cut_power = None
    for ch, drive in drives.items():
        spectrum, shift = _launch(link, ch, drive, n / rate)
        if ch == link.cut_index:
            cut_power = _mean_power(spectrum)
        _mux_add(composite, spectrum, shift, DAC_RATE / 2 * n / rate)
    operators.disperse(composite)
    if np.isfinite(link.osnr_db):
        power = _mean_power(composite) if cut_power is None else cut_power
        draws = noise_draws(link, n, rx, seed)
        add_osnr_noise(composite, operators.noise_band(rx), rate, link.osnr_db, power, draws)
    captures = {}
    for ch in rx:
        field = OpticalField(np.fft.ifft(composite * full_grid_port(link, n, ch)), rate)
        captures[ch] = rx_frontend(
            photodiode(field), link.rx_bandwidth, link.rx_sample_rate, link.quantize_bits
        )
    return captures


FULL_FRAME_CASES = {
    "single_lit_50km": (_link((1,), 50.0, osnr_db=36.5), GRID_POINTS, [1]),
    # slot 0's band is clipped at the grid's Nyquist, slots 1 and 2 wrap through bin 0
    "three_lit_240km_probe": (_link((0, 1, 2), 240.0), GRID_POINTS, [0, 1, 2]),
    "odd_frame": (_link((1, 2), 80.0, osnr_db=35.0, composite_rate=240e9), 30_723, [2, 1]),
    # a demultiplexer so wide that W + K exceeds the frame: L is capped at n
    "whole_frame_window": (_link((1,), 20.0, osnr_db=30.0, demux_fwhm=90e9), 2048, [1]),
}


@pytest.mark.parametrize("name", sorted(FULL_FRAME_CASES))
def test_captures_match_full_grid_detection(name):
    link, n, rx = FULL_FRAME_CASES[name]
    rng = np.random.default_rng(8)
    drives = {
        ch: RealWaveform(
            _spectral.resample_real(rng.standard_normal(n // 4), n), link.grid_rate
        )
        for ch in link.lit_channels
    }
    got = span_captures(link, drives, rx, 21, occupied_bandwidth=DAC_RATE)
    want = _full_grid_captures(link, drives, rx, 21)
    for ch in rx:
        peak = np.max(np.abs(want[ch].samples))
        assert np.max(np.abs(got[ch].samples - want[ch].samples)) <= 1e-12 * peak
        assert got[ch].sample_rate == link.rx_sample_rate


def test_three_lit_windows_cover_the_edge_cases():
    """The 3-lit case above reaches both ways a window meets the grid's ends."""
    operators = _span_operators(_link((0, 1, 2), 240.0), GRID_POINTS)
    start, width = operators.receive_window(0)
    assert start == GRID_POINTS // 2 and start + width < GRID_POINTS
    for ch in (1, 2):
        start, width = operators.receive_window(ch)
        assert start + width > GRID_POINTS


@pytest.mark.parametrize("lit", [(1,), (0, 1, 2)])
def test_receive_window_holds_every_passed_bin(lit):
    link = _link(lit, 0.0)
    operators = _span_operators(link, 4096)
    eps = np.finfo(np.float64).eps
    for ch in lit:
        start, width = operators.receive_window(ch)
        inside = np.zeros(4096, dtype=bool)
        inside[(start + np.arange(width)) % 4096] = True
        passed = full_grid_port(link, 4096, ch) > eps
        assert np.all(passed[inside]) and not np.any(passed[~inside])


def test_smooth_length_by_brute_force():
    smooth = [m for m in range(1, 10_001) if _smooth(m)]
    for m in range(1, 5_001):
        assert _smooth_length(m) == min(s for s in smooth if s >= m)
