"""One frame across the optical span, sent and received as the harness does it.

``compose``, then ``noise_draws`` at a finite OSNR, then ``receive``: the
captures of a set of drives at the link's OSNR and a noise seed.  A probe
frame that a search receives at several OSNRs is detected once
(``detect``) and captured at each OSNR (``capture``); ``shared_captures``
takes that path.
"""

import numpy as np

from dmtlink.channel import capture, compose, detect, noise_draws, receive


def _sent(link, drives, rx_channels, noise_seed, occupied_bandwidth):
    """``(composite, cut_power, draws)`` of one frame of ``drives``."""
    composite, cut_power = compose(link, drives, rx_channels, occupied_bandwidth)
    draws = None
    if np.isfinite(link.osnr_db):
        draws = noise_draws(link, composite.size, rx_channels, noise_seed)
    return composite, cut_power, draws


def span_captures(link, drives, rx_channels, noise_seed, occupied_bandwidth):
    """Receive channel -> front-end capture of one frame of ``drives``."""
    rx = list(rx_channels)
    composite, cut_power, draws = _sent(link, drives, rx, noise_seed, occupied_bandwidth)
    return receive(link, composite, cut_power, rx, draws)


def shared_captures(link, drives, rx_channels, noise_seed, occupied_bandwidth):
    """The same frame detected once and captured at the link's OSNR."""
    rx = list(rx_channels)
    composite, cut_power, draws = _sent(link, drives, rx, noise_seed, occupied_bandwidth)
    return capture(link, detect(link, composite, cut_power, rx, draws), rx)
