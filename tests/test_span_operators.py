"""The optical span's per-link operators, against a cold build.

The span (``compose``, ``noise_draws``, ``receive``) builds its dispersion
factor and receive ports the first time a link needs them and keeps them
for the most recent link.  A warm cache, or one that another link has
evicted, must give the cold build's captures bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from dmtlink import _spectral
from dmtlink.channel import (
    LinkConfig,
    _dispersion_phase,
    _grid_frequencies,
    _span_operators,
)
from dmtlink.core import RealWaveform
from span_frame import span_captures

DAC_RATE = 64e9

CASES = {
    "back_to_back": (
        LinkConfig(n_channels=4, active_channels=(1,), channel_under_test=1,
                   span_lengths_km=(), osnr_db=30.0),
        2048,
        [1],
    ),
    # 2049 = 3 * 683 samples: an odd frame that still captures whole at 80 GS/s
    "odd_frame": (
        LinkConfig(n_channels=4, active_channels=(1, 2), channel_under_test=2,
                   span_lengths_km=(80.0,), osnr_db=35.0, composite_rate=240e9),
        2049,
        [2],
    ),
    "dark_channel_under_test": (
        LinkConfig(n_channels=4, active_channels=(0, 2), channel_under_test=1,
                   span_lengths_km=(40.0,), osnr_db=25.0),
        2048,
        [0],
    ),
    "two_receivers": (
        LinkConfig(n_channels=4, active_channels=(0, 1, 2), channel_under_test=1,
                   span_lengths_km=(160.0,), osnr_db=38.0),
        2048,
        [2, 0],
    ),
}
OTHER_LINK = LinkConfig(n_channels=4, active_channels=(3,), channel_under_test=3,
                        span_lengths_km=(10.0,), osnr_db=30.0)


def _captures(link, n, rx, seed):
    rng = np.random.default_rng(seed)
    drives = {
        ch: RealWaveform(_spectral.resample_real(rng.standard_normal(n // 4), n), link.grid_rate)
        for ch in link.lit_channels
    }
    out = span_captures(link, drives, rx, seed, occupied_bandwidth=DAC_RATE)
    return [out[ch].samples for ch in rx]


def _assert_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(CASES))
def test_warm_and_evicted_cache_match_cold_build(name):
    link, n, rx = CASES[name]
    _span_operators.cache_clear()
    cold = _captures(link, n, rx, seed=5)
    assert _span_operators.cache_info().misses == 1

    _assert_equal(_captures(link, n, rx, seed=5), cold)
    # another OSNR is the same link: its frames share the entry
    _captures(replace(link, osnr_db=link.osnr_db + 3.0), n, rx, seed=6)
    assert _span_operators.cache_info().misses == 1

    _captures(OTHER_LINK, 2048, [3], seed=7)
    assert _span_operators.cache_info().currsize == 1
    _assert_equal(_captures(link, n, rx, seed=5), cold)
    assert _span_operators.cache_info().misses == 3


@pytest.mark.parametrize("n", [2048, 2049, 2050, 2051])
def test_half_table_folds_onto_the_full_dispersion_factor(n):
    link = LinkConfig(n_channels=4, span_lengths_km=(80.0, 30.0))
    full = np.exp(
        1j
        * _dispersion_phase(
            _grid_frequencies(n, link.grid_rate),
            link.total_length_km,
            link.dispersion_ps_nm_km,
            link.center_wavelength_nm,
        )
    )
    folded = np.ones(n, dtype=np.complex128)
    _span_operators(link, n).disperse(folded)
    assert np.array_equal(folded, full)


def test_cached_operators_are_read_only():
    link, n, rx = CASES["two_receivers"]
    _captures(link, n, rx, seed=1)
    operators = _span_operators(replace(link, osnr_db=np.inf), n)
    with pytest.raises(ValueError):
        operators.dispersion[0] = 0.0
    for ch in rx:
        with pytest.raises(ValueError):
            operators.receive_port(ch)[0] = 0.0


def test_back_to_back_link_has_no_dispersion_table():
    link, n, rx = CASES["back_to_back"]
    assert _span_operators(replace(link, osnr_db=np.inf), n).dispersion is None
