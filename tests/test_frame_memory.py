"""A frame in the memory of its composite.

``compose`` launches one channel at a time: the DAC, the modulator, one
``rfft`` and the interleaver port, evaluated in blocks of bins.  The checks
below hold its composite and cut power to the earlier full-grid launch
(``tests/optical_reference.py``) byte for byte and bound a warm ``_send``'s
traced peak by the composite's bytes.  That each launch port covers the
grid once is checked in ``tests/test_harness.py``.
"""

import tracemalloc

import numpy as np
import pytest

import dmtlink.channel as channel_mod
import dmtlink.harness as harness_mod
from dmtlink.channel import LinkConfig, compose
from dmtlink.core import RealWaveform
from dmtlink.harness import ScenarioConfig
from dmtlink.txdsp import dac
from optical_reference import full_grid_compose

DAC_RATE = 64e9
DAC_SAMPLES = 257_920  # one frame at the DAC rate: 1,031,680 bins on the 256 GS/s grid


def _link(lit, km, **kwargs):
    kwargs.setdefault("channel_under_test", 1)
    return LinkConfig(n_channels=4, active_channels=lit, span_lengths_km=(km,), **kwargs)


ORACLE_CASES = {
    # name: (link, waveform samples, waveform rate, port block or None for the default)
    "single_lit_50km": (_link((1,), 50.0), DAC_SAMPLES, DAC_RATE, None),
    "three_lit_240km": (_link((0, 1, 2), 240.0), DAC_SAMPLES, DAC_RATE, None),
    "centred_0ghz": (_link((1,), 50.0, detuning=0.0), DAC_SAMPLES, DAC_RATE, None),
    # grid-rate drives pass the DAC unchanged; the cut channel 0 is dark
    "odd_frame": (
        _link((1, 2), 80.0, composite_rate=240e9, channel_under_test=0), 30_723, 240e9, 4096
    ),
    # lasers 1,792, 192 and 1,408 bins off center, across 1,000-bin blocks and a partial last one
    "shift_across_block_edges": (_link((0, 1, 2), 20.0), 8192, 256e9, 1000),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_composite_is_the_full_grid_launch_byte_for_byte(name, monkeypatch):
    link, size, rate, block = ORACLE_CASES[name]
    if block is not None:
        monkeypatch.setattr(channel_mod, "_PORT_BLOCK", block)
    rng = np.random.default_rng(6)
    waveforms = {ch: RealWaveform(rng.standard_normal(size), rate) for ch in link.lit_channels}
    drives = {ch: dac(w, link.grid_rate) for ch, w in waveforms.items()}
    composite, cut_power = compose(link, waveforms, link.lit_channels, DAC_RATE)
    want, want_power = full_grid_compose(link, drives, DAC_RATE)
    assert np.array_equal(composite, want)
    assert cut_power == want_power
    assert (cut_power is None) == (link.cut_index not in link.lit_channels)


SEND_CASES = {
    "three_lit_56g_240km": ((0, 1, 2), 56e9, 240.0),
    "single_lit_89g6_50km": ((1,), 89.6e9, 50.0),
}


@pytest.mark.parametrize("name", sorted(SEND_CASES))
def test_warm_send_peaks_within_four_composites(name):
    """A warm probe frame's traced peak, above ``_send``'s entry, is at most
    4x its composite's bytes (the full-grid launch took 6.4x and 4.9x)."""
    lit, rate, km = SEND_CASES[name]
    sc = ScenarioConfig(link=_link(lit, km, osnr_db=38.0), net_rate=rate)
    plans = harness_mod._probe_plans(sc)
    harness_mod._send(sc, plans, 0, 4, lit)  # builds the link's operators
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        sent = harness_mod._send(sc, plans, 0, 4, lit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    composite = sent[1]
    assert peak - entry <= 4 * composite.nbytes, (peak - entry) / composite.nbytes

