"""The time-domain optical chain: the reference ``compose`` and ``receive`` are checked against.

Each stage takes and returns a field and transforms it on its own, as the
link model was first written: modulator, filter, fiber, noise loading and
photodiode.  The arithmetic (the modulator transfer, the dispersion phase,
the noise draw) is written out here rather than taken from ``dmtlink``, so
a fault in the package's frequency-domain pieces cannot hide in both.  Only
the filter shape, the waveform type and the two physical constants are
shared, and ``rx_frontend`` runs the package's own front end.  The last
section keeps the package's earlier full-grid launch and multiplexer, the
oracle that ``compose`` must match byte for byte.

All fields are complex baseband envelopes.  ``OpticalField.center_offset``
records the absolute frequency (relative to the WDM grid center) that the
field's own zero frequency corresponds to, so filters and dispersion are
evaluated in absolute grid coordinates whichever hop produced the field.
"""

from dataclasses import dataclass, replace

import numpy as np

from dmtlink.channel import (
    OSNR_REFERENCE_BANDWIDTH,
    SPEED_OF_LIGHT,
    FilterSpec,
    _capture,
    _mean_power,
    _span_operators,
)
from dmtlink.core import RealWaveform, _freeze


@dataclass(frozen=True)
class OpticalField:
    """Complex baseband field envelope (sqrt-power units)."""

    samples: np.ndarray
    sample_rate: float
    center_offset: float = 0.0

    def __post_init__(self):
        samples = _freeze(np.asarray(self.samples, dtype=np.complex128))
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a nonempty 1-D sequence")
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))
        object.__setattr__(self, "center_offset", float(self.center_offset))

    def power(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2))


def _absolute_frequencies(field: OpticalField) -> np.ndarray:
    n = field.samples.size
    return np.fft.fftfreq(n, d=1.0 / field.sample_rate) + field.center_offset


def mzm(drive: RealWaveform, vpi=2.0, bias=None, drive_swing=0.2, bias_margin=0.01):
    """Mach-Zehnder field ``E = sin(pi * (v + bias) / (2 * vpi))``.

    ``v`` is the drive scaled to a peak of ``drive_swing * vpi``;
    ``bias=None`` parks its lowest sample ``bias_margin * vpi`` above the
    field null.
    """
    if not 0 < drive_swing <= 1:
        raise ValueError("drive_swing must lie in (0, 1]")
    peak = np.max(np.abs(drive.samples))
    v = drive.samples * (drive_swing * vpi / peak if peak > 0 else 1.0)
    if bias is None:
        bias = -np.min(v) + bias_margin * vpi
    return OpticalField(np.sin(np.pi * (v + bias) / (2.0 * vpi)), drive.sample_rate)


def optical_filter(field: OpticalField, spec: FilterSpec) -> OpticalField:
    """Flat-phase filtering at the field's absolute grid frequencies."""
    response = spec.amplitude_response(_absolute_frequencies(field))
    spectrum = np.fft.fft(field.samples) * response
    return OpticalField(np.fft.ifft(spectrum), field.sample_rate, field.center_offset)


def fiber_cd(field, length_km, dispersion_ps_nm_km=17.0, wavelength_nm=1550.0):
    """``H(f) = exp(+j * pi * D * L * lambda^2 * f^2 / c)`` at absolute grid frequencies."""
    if length_km < 0:
        raise ValueError("length_km must be >= 0")
    if length_km == 0:
        return field
    f = _absolute_frequencies(field)
    lam = wavelength_nm * 1e-9
    d_si = dispersion_ps_nm_km * 1e-6  # ps/(nm km) -> s/m^2
    phase = np.pi * d_si * (length_km * 1e3) * lam**2 * f**2 / SPEED_OF_LIGHT
    spectrum = np.fft.fft(field.samples) * np.exp(1j * phase)
    return OpticalField(np.fft.ifft(spectrum), field.sample_rate, field.center_offset)


def load_noise_to_osnr(field, osnr_db, seed, reference_power=None):
    """Add white circular noise putting ``reference_power`` (default: the field's) at ``osnr_db``.

    The noise power in a 12.5 GHz reference bandwidth is the reference
    power over the OSNR; the draw is ``sigma * (re + 1j * im)`` from one
    generator seeded with ``seed``.
    """
    if not np.isfinite(osnr_db):
        return field
    power = field.power() if reference_power is None else float(reference_power)
    if power <= 0:
        raise ValueError("cannot set a finite OSNR on a zero-power field")
    psd = power / (10 ** (osnr_db / 10.0) * OSNR_REFERENCE_BANDWIDTH)
    sigma = np.sqrt(psd * field.sample_rate / 2.0)
    rng = np.random.default_rng(seed)
    n = field.samples.size
    noise = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return OpticalField(field.samples + noise, field.sample_rate, field.center_offset)


def photodiode(field: OpticalField) -> RealWaveform:
    """Square-law detection with unit responsivity."""
    return RealWaveform(np.abs(field.samples) ** 2, field.sample_rate)


def rx_frontend(
    w: RealWaveform,
    bandwidth: float = 29.4e9,
    out_rate: float = 80e9,
    quantize_bits: int | None = None,
) -> RealWaveform:
    """The package's receiver front end (``channel._capture``) on a whole waveform."""
    return _capture(
        np.fft.rfft(w.samples), w.samples.size, w.sample_rate, bandwidth, out_rate, quantize_bits
    )


# The launch and the multiplexer as the package wrote them on the full grid,
# before ``compose`` evaluated the launch port in blocks: every channel's
# drive at the grid rate, a grid-sized ``freq`` and port per channel.  They
# are the byte-identity oracle of ``compose`` (``full_grid_compose``).


def _full_grid_launch(link, channel, drive, freq, duration):
    """One channel's modulated spectrum after its interleaver port (full grid)."""
    samples = drive.samples
    vpi = 2.0  # only ratios to the switching voltage matter
    peak = np.max(np.abs(samples))
    v = samples * (link.drive_swing * vpi / peak if peak > 0 else 1.0)
    v += -np.min(v) + link.mzm_bias_margin * vpi
    v *= np.pi
    v /= 2.0 * vpi
    n = drive.samples.size
    spectrum = np.empty(n, dtype=np.complex128)
    np.fft.rfft(np.sin(v, out=v), out=spectrum[: n // 2 + 1])
    np.conjugate(spectrum[(n - 1) // 2 : 0 : -1], out=spectrum[n // 2 + 1 :])
    shift = round((float(link.channel_centers[channel]) + link.detuning) * duration)
    spectrum *= link.interleaver(channel).amplitude_response(freq + shift / duration)
    return spectrum, shift


def _full_grid_mux_add(composite, spectrum, shift, half_band_bins):
    """Add one channel's spectrum to the composite, moved up by ``shift`` bins."""
    if abs(shift) + half_band_bins > composite.size / 2:
        raise ValueError("carrier would alias")
    split = shift % composite.size
    composite[split:] += spectrum[: composite.size - split]
    composite[:split] += spectrum[composite.size - split :]


def full_grid_compose(link, drives, occupied_bandwidth):
    """``(composite, cut_power)`` of grid-rate ``drives``, every array full-grid."""
    rate = link.grid_rate
    n = next(iter(drives.values())).samples.size
    duration = n / rate
    freq = np.fft.fftfreq(n, d=1.0 / rate)
    composite = np.zeros(n, dtype=np.complex128)
    cut_power = None
    for ch, drive in drives.items():
        spectrum, shift = _full_grid_launch(link, ch, drive, freq, duration)
        if ch == link.cut_index:
            cut_power = _mean_power(spectrum)
        _full_grid_mux_add(composite, spectrum, shift, occupied_bandwidth / 2 * duration)
    _span_operators(replace(link, osnr_db=np.inf), n).disperse(composite)
    return composite, cut_power
