"""One frame across the optical span, sent and received as the harness does it.

``compose``, then ``noise_draws`` at a finite OSNR, then ``receive``: the
captures of a set of drives at the link's OSNR and a noise seed.
"""

import numpy as np

from dmtlink.channel import compose, noise_draws, receive


def span_captures(link, drives, rx_channels, noise_seed, occupied_bandwidth):
    """Receive channel -> front-end capture of one frame of ``drives``."""
    rx = list(rx_channels)
    composite, cut_power = compose(link, drives, rx, occupied_bandwidth)
    draws = None
    if np.isfinite(link.osnr_db):
        draws = noise_draws(link, composite.size, rx, noise_seed)
    return receive(link, composite, cut_power, rx, draws)
