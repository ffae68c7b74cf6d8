"""One frame across the optical span, sent and received as the harness does it.

``compose``, then ``receive``, which draws the noise at the seed the frame
carries at a finite OSNR: the captures of a set of drives at the link's
OSNR and a noise seed.  A probe
frame that a search receives at several OSNRs is detected once
(``detect``) and captured at each OSNR (``capture``); ``shared_captures``
takes that path.
"""

import numpy as np

from dmtlink.channel import capture, compose, detect, receive


def _sent(link, drives, rx_channels, noise_seed, occupied_bandwidth):
    """``(composite, cut_power, noise_seed)`` of one frame of ``drives``; the
    seed is ``None`` at an infinite OSNR, as ``harness._send`` gives it."""
    composite, cut_power = compose(link, drives, rx_channels, occupied_bandwidth)
    return composite, cut_power, noise_seed if np.isfinite(link.osnr_db) else None


def span_captures(link, drives, rx_channels, noise_seed, occupied_bandwidth):
    """Receive channel -> front-end capture of one frame of ``drives``."""
    rx = list(rx_channels)
    composite, cut_power, seed = _sent(link, drives, rx, noise_seed, occupied_bandwidth)
    return receive(link, composite, cut_power, rx, seed)


def shared_captures(link, drives, rx_channels, noise_seed, occupied_bandwidth):
    """The same frame detected once and captured at the link's OSNR."""
    rx = list(rx_channels)
    composite, cut_power, seed = _sent(link, drives, rx, noise_seed, occupied_bandwidth)
    return capture(link, detect(link, composite, cut_power, rx, seed), rx)
