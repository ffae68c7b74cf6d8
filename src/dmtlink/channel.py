"""Linear optical channel: modulator, WDM grid, filters, fiber, noise, receiver.

A frame crosses the span in one frequency-domain pass from modulator to
receiver, in steps: ``compose`` sums the launched comb after dispersion,
``noise_draws`` draws the unit noise over the bins a receiver passes, and
``receive`` scales that noise to the OSNR, adds it as a spectrum and
detects each receiver on a grid that holds only its own passband.  A frame
received at several OSNRs is instead detected once (``detect``: the
detection is a quadratic in the noise scale, kept as its three terms) and
captured at each OSNR (``capture``).  Only ``receive`` and ``capture``
depend on the OSNR.  ``end_to_end_fading_profile`` probes the
same pieces (the modulator transfer, the dispersion phase and the filter
responses) with one tone at a time.

What a frame holds: its composite, a full two-sided spectrum of the grid
(16.5 MB at 1,031,680 bins), is the one grid-sized array that lives from
``compose`` to ``receive``.  Beside it, ``compose`` holds one channel at a
time, in one buffer of the composite's size where that channel's drive,
field and launched spectrum are built in turn; the launch port is
evaluated in blocks of bins, so no grid-sized frequency or port array
exists.  ``receive`` adds the noise draws and one receiver's detection
grid at a time.  ``detect`` keeps, in place of the composite, three
spectra of the kept bins per receiver.

Sign conventions, documented once here:

* The Mach-Zehnder transfer is ``E = sin(pi / 2 * (v + bias))``, with drive
  and bias in units of the switching voltage; the bias parks the most
  negative drive sample slightly above the field null, so the envelope
  stays non-negative (no phase flips).
* Chromatic dispersion multiplies by ``exp(+j * pi * D * L * lambda^2 * f^2 / c)``
  (anomalous regime for positive D at 1550 nm: higher frequencies are
  delayed).  The double-sideband fading null pinned by the tests,
  ``f_1 = sqrt(c / (2 * lambda^2 * D * L))``, fixes this convention.
* Filters are flat-phase: power response ``-3 * x**(2*order)`` dB with
  ``x = (f - center)/(fwhm/2)``, giving exactly -3 dB at the half-width and
  wrapping modulo the free spectral range when one is configured.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace

import numpy as np

from . import _spectral
from .core import RealWaveform, _freeze
from .txdsp import dac_length, dac_samples

__all__ = [
    "FilterSpec",
    "LinkConfig",
    "SPEED_OF_LIGHT",
    "capture",
    "compose",
    "detect",
    "end_to_end_fading_profile",
    "noise_draws",
    "receive",
]

SPEED_OF_LIGHT = 299_792_458.0
OSNR_REFERENCE_BANDWIDTH = 12.5e9
"""Noise reference bandwidth for OSNR (0.1 nm at 1550 nm)."""
_PROBE_SWING = 0.05  # fading-probe drive, kept small for a small-signal response


@dataclass(frozen=True)
class FilterSpec:
    """Flat-phase super-Gaussian optical filter.

    Parameters
    ----------
    center : float
        Passband center in absolute grid frequency, Hz.
    fwhm_3db : float
        Full width between the -3 dB power points, Hz.
    order : int
        Super-Gaussian order (1 = Gaussian-like, higher = flatter top).
    fsr : float or None
        Free spectral range for periodic (interleaver) filters; ``None``
        for single-passband filters such as a demultiplexer.
    """

    center: float = 0.0
    fwhm_3db: float = 44e9
    order: int = 2
    fsr: float | None = 100e9

    def __post_init__(self):
        if self.fwhm_3db <= 0:
            raise ValueError("fwhm_3db must be positive")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.fsr is not None and not 0 < self.fwhm_3db < self.fsr:
            raise ValueError("periodic filter needs 0 < fwhm_3db < fsr")

    def amplitude_response(self, freq: np.ndarray) -> np.ndarray:
        """Amplitude response at absolute grid frequencies ``freq``."""
        # worked in place on one buffer: grids reach a million points
        x = np.asarray(freq, dtype=np.float64) - self.center
        if self.fsr is not None:  # the period nearest the center
            period = np.divide(x, self.fsr)
            np.rint(period, out=period)
            period *= self.fsr
            x -= period
        x /= self.fwhm_3db / 2.0
        power_db = np.square(x, out=x)
        power_db **= self.order
        power_db *= -3.0
        power_db /= 20.0
        return np.power(10.0, power_db, out=power_db)


@dataclass(frozen=True)
class LinkConfig:
    """Complete description of one WDM link scenario.

    Parameters
    ----------
    n_channels : int
        Size of the 50-GHz WDM comb, between 4 and 8.
    grid_spacing : float
        Channel spacing in Hz.
    detuning : float
        Signed laser offset from the interleaver passband center, Hz.
        Positive detuning pushes the carrier toward the upper band edge so
        the interleaver carves out a vestigial-sideband signal.
    span_lengths_km : tuple of float
        Fiber spans; the empty tuple is back-to-back.
    dispersion_ps_nm_km : float
        Fiber dispersion parameter D.
    center_wavelength_nm : float
        Carrier wavelength used in the dispersion phase.
    osnr_db : float
        Optical SNR set at the receiver input (0.1 nm reference bandwidth);
        ``inf`` disables noise loading.
    rx_bandwidth : float
        Receiver front-end -3 dB bandwidth, Hz.
    rx_sample_rate : float
        Capture rate of the receiver, Hz.
    composite_rate : float or None
        Sample rate of the multiplexed grid; ``None`` picks 256 GS/s when
        the lit carriers' sidebands fit below 128 GHz and 512 GS/s
        otherwise (always a multiple of the DAC rate so resampling stays
        exact).
    drive_swing : float
        Peak drive as a fraction of the modulator's switching voltage.
    mzm_bias_margin : float
        Extra bias above the field null, as a fraction of the switching
        voltage.
    il_fwhm / il_order / il_fsr : interleaver shape parameters.
    demux_fwhm / demux_order : demultiplexer shape parameters.
    quantize_bits : int or None
        Receiver ADC resolution; ``None`` captures without quantization.
    active_channels : tuple of int or None
        Comb slots actually carrying light; ``None`` lights the whole comb.
    channel_under_test : int or None
        Comb slot the receiver reports on; ``None`` picks the middle slot.
    """

    n_channels: int = 8
    grid_spacing: float = 50e9
    detuning: float = 19e9
    span_lengths_km: tuple[float, ...] = (80.0, 80.0, 80.0)
    dispersion_ps_nm_km: float = 17.0
    center_wavelength_nm: float = 1550.0
    osnr_db: float = np.inf
    rx_bandwidth: float = 29.4e9
    rx_sample_rate: float = 80e9
    composite_rate: float | None = None
    drive_swing: float = 0.2
    mzm_bias_margin: float = 0.01
    il_fwhm: float = 44e9
    il_order: int = 2
    il_fsr: float = 100e9
    demux_fwhm: float = 44e9
    demux_order: int = 2
    quantize_bits: int | None = None
    active_channels: tuple[int, ...] | None = None
    channel_under_test: int | None = None

    def __post_init__(self):
        if not 4 <= self.n_channels <= 8:
            raise ValueError(f"n_channels must be in [4, 8], got {self.n_channels}")
        if not self.lit_channels:
            raise ValueError("at least one channel must be lit")
        for f in fields(self):  # an int is always finite
            value = getattr(self, f.name)
            noiseless = f.name == "osnr_db" and value == np.inf
            if isinstance(value, float) and not (np.isfinite(value) or noiseless):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if not all(0 < length < np.inf for length in self.span_lengths_km):
            raise ValueError(
                f"span_lengths_km must hold positive, finite lengths, got {self.span_lengths_km}"
            )
        if not 0 < self.drive_swing <= 1:
            raise ValueError("drive_swing must lie in (0, 1]")
        q = self.quantize_bits
        if q is not None and not (isinstance(q, (int, np.integer)) and q >= 1):
            raise ValueError(f"quantize_bits must be None or an integer >= 1, got {q!r}")
        rate = self.grid_rate
        if self.max_signal_frequency > rate / 2:
            raise ValueError(
                f"comb does not fit the composite grid: needs > {self.max_signal_frequency:.3e} Hz "
                f"of one-sided bandwidth but Nyquist is {rate / 2:.3e} Hz"
            )
        cut = self.cut_index
        if not 0 <= cut < self.n_channels:
            raise ValueError(f"channel_under_test {cut} outside comb of {self.n_channels}")
        for idx in self.lit_channels:
            if not 0 <= idx < self.n_channels:
                raise ValueError(f"active channel {idx} outside comb of {self.n_channels}")
        for port, shape in (
            (self.interleaver, f"il_fwhm={self.il_fwhm:g}, il_order={self.il_order}, "
             f"il_fsr={self.il_fsr:g}"),
            (self.demux, f"demux_fwhm={self.demux_fwhm:g}, demux_order={self.demux_order}"),
        ):
            try:
                port(cut)
            except ValueError as exc:
                raise ValueError(f"{shape}: {exc}") from None
        if not self.rx_bandwidth > 0:
            raise ValueError(f"rx_bandwidth must be positive, got {self.rx_bandwidth:g}")
        if not 0 < self.rx_sample_rate <= rate:
            raise ValueError(
                f"rx_sample_rate must lie in (0, grid rate {rate:g}], got {self.rx_sample_rate:g}"
            )

    @property
    def channel_centers(self) -> np.ndarray:
        """Absolute grid center of each comb slot, symmetric around zero."""
        k = np.arange(self.n_channels)
        return (k - (self.n_channels - 1) / 2.0) * self.grid_spacing

    @property
    def grid_rate(self) -> float:
        """Composite sample rate, auto-sized to the lit comb when not set."""
        if self.composite_rate is not None:
            return self.composite_rate
        return 256e9 if self.max_signal_frequency <= 128e9 else 512e9

    @property
    def max_signal_frequency(self) -> float:
        """Highest absolute frequency any lit carrier's sideband reaches."""
        centers = self.channel_centers
        edge = float(max(abs(centers[idx]) for idx in self.lit_channels))
        return edge + abs(self.detuning) + 32e9

    @property
    def total_length_km(self) -> float:
        return float(sum(self.span_lengths_km))

    @property
    def cut_index(self) -> int:
        return self.n_channels // 2 if self.channel_under_test is None else self.channel_under_test

    @property
    def lit_channels(self) -> tuple[int, ...]:
        if self.active_channels is None:
            return tuple(range(self.n_channels))
        return tuple(self.active_channels)

    def interleaver(self, channel: int) -> FilterSpec:
        """The interleaver port serving one comb slot."""
        return FilterSpec(
            center=float(self.channel_centers[channel]),
            fwhm_3db=self.il_fwhm,
            order=self.il_order,
            fsr=self.il_fsr,
        )

    def demux(self, channel: int) -> FilterSpec:
        """The receive demultiplexer passband for one comb slot."""
        return FilterSpec(
            center=float(self.channel_centers[channel]),
            fwhm_3db=self.demux_fwhm,
            order=self.demux_order,
            fsr=None,
        )


def _mzm_transfer(samples: np.ndarray, drive_swing: float, bias_margin: float) -> np.ndarray:
    """The Mach-Zehnder modulator's real (chirp-free) field for a drive.

    Drive and bias are in units of the switching voltage.  The drive is
    rescaled so its peak equals ``drive_swing``, then pushed through
    ``E = sin(pi / 2 * (v + bias))`` with ``bias = -min(v) + bias_margin``:
    the lowest drive sample sits just above the field null, keeping the
    envelope non-negative while staying close to the linear low-bias
    operating point.  Works in place:
    ``samples`` becomes the field, and is returned.
    """
    peak = max(np.max(samples), -np.min(samples))  # max |v|, with no temporary
    v = samples
    v *= drive_swing / peak if peak > 0 else 1.0
    v += -np.min(v) + bias_margin
    v *= np.pi / 2
    return np.sin(v, out=v)


_PORT_BLOCK = 65_536
"""Bins per block of a launch port: 0.5 MB per block array on any grid."""


def _grid_frequencies(n: int, sample_rate: float) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / sample_rate)


def _dispersion_phase(
    freq: np.ndarray, length_km: float, dispersion_ps_nm_km: float, wavelength_nm: float
) -> np.ndarray:
    d_si = dispersion_ps_nm_km * 1e-6  # ps/(nm km) -> s/m^2
    lam = wavelength_nm * 1e-9
    return np.pi * d_si * (length_km * 1e3) * lam**2 * freq**2 / SPEED_OF_LIGHT


def _noise_scale(n: int, sample_rate: float, osnr_db: float, power: float) -> float:
    """``sqrt(n) * sigma``: the factor on each unit draw of an ``n``-bin spectrum
    that puts a signal of ``power`` at ``osnr_db`` (see ``_add_osnr_noise``)."""
    if power <= 0:
        raise ValueError("cannot set a finite OSNR on a zero-power field")
    psd = power / (10 ** (osnr_db / 10.0) * OSNR_REFERENCE_BANDWIDTH)
    sigma = np.sqrt(psd * sample_rate / 2.0)
    return np.sqrt(n) * sigma


def _add_osnr_noise(
    spectrum: np.ndarray,
    band: np.ndarray,
    sample_rate: float,
    osnr_db: float,
    power: float,
    draws: np.ndarray,
) -> None:
    """Add, in place, the spectrum of white noise putting a signal of ``power`` at ``osnr_db``.

    Circular noise ``sigma * (re + 1j * im)`` per sample has, as its DFT,
    circular noise ``sqrt(n) * sigma * (re + 1j * im)`` per bin, iid again,
    so the spectrum is drawn directly, with no transform.  It lives only on
    ``band``, ``[start, stop)`` bin ranges in ascending order, and
    ``draws`` (``noise_draws``) holds its ``2 * m`` unit draws for their
    ``m`` bins, the first ``m`` the real parts and the next ``m`` the
    imaginary parts.  Each bin gains its unit draw times
    ``sqrt(n) * sigma`` (``_noise_scale``), the only factor that depends on
    the OSNR and the power; ``draws`` is read, not changed.
    """
    scale = _noise_scale(spectrum.size, sample_rate, osnr_db, power)
    m = draws.size // 2
    at = 0
    for start, stop in band:
        width = stop - start
        spectrum.real[start:stop] += draws[at : at + width] * scale
        spectrum.imag[start:stop] += draws[m + at : m + at + width] * scale
        at += width


def _mean_power(spectrum: np.ndarray) -> float:
    """Mean power of the signal whose DFT is ``spectrum`` (Parseval)."""
    return float(np.vdot(spectrum, spectrum).real) / spectrum.size**2


def _kept_frequencies(n_in: int, in_rate: float, kept: int) -> np.ndarray:
    """The first ``kept`` frequencies of ``np.fft.rfftfreq(n_in, 1 / in_rate)``,
    with its arithmetic, and no others."""
    return np.arange(kept) * (1.0 / (n_in * (1.0 / in_rate)))


def _front_end(spectrum: np.ndarray, n_in: int, in_rate: float, bandwidth: float) -> None:
    """Apply the front end's response, in place, to the lowest rfft bins of an
    ``n_in``-sample signal at ``in_rate``: a zero-phase 4th-order Butterworth
    magnitude ``|H(f)| = 1/sqrt(1 + (f/bandwidth)^8)`` (the capture path is
    modeled as delay-free)."""
    freq = _kept_frequencies(n_in, in_rate, spectrum.size)
    spectrum /= np.sqrt(1.0 + (freq / bandwidth) ** 8)


def _digitize(
    spectrum: np.ndarray, n_in: int, n_out: int, out_rate: float, quantize_bits: int | None
) -> RealWaveform:
    """The capture from its filtered bins: one ``irfft`` to ``n_out`` samples
    at ``out_rate`` and, when ``quantize_bits`` is set, a uniform quantizer
    over +/- 4 standard deviations around the mean."""
    samples = _spectral.irfft_resized(spectrum, n_in, n_out)
    if quantize_bits is not None:
        mean = samples.mean()
        sigma = samples.std()
        if sigma > 0:
            lsb = 8.0 * sigma / 2**quantize_bits
            codes = np.clip(
                np.round((samples - mean) / lsb),
                -(2 ** (quantize_bits - 1)),
                2 ** (quantize_bits - 1) - 1,
            )
            samples = codes * lsb + mean
    return RealWaveform(samples, out_rate)


def _capture(
    spectrum: np.ndarray,
    n_in: int,
    in_rate: float,
    bandwidth: float,
    out_rate: float,
    quantize_bits: int | None,
) -> RealWaveform:
    """Receiver front end on the detected signal's lowest rfft bins.

    The front end applies its response (``_front_end``), resamples to
    ``out_rate`` and, when ``quantize_bits`` is set, quantizes
    (``_digitize``).  ``spectrum`` holds at least the ``n_out // 2 + 1``
    bins the capture keeps, on the scale of the rfft of the ``n_in``-sample
    signal; only those bins are filtered, in place, and one ``irfft`` makes
    the capture.
    """
    if out_rate > in_rate:
        raise ValueError("out_rate must not exceed the input rate")
    n_out = _spectral.output_length(n_in, in_rate, out_rate)
    spectrum = spectrum[: n_out // 2 + 1]
    _front_end(spectrum, n_in, in_rate, bandwidth)
    return _digitize(spectrum, n_in, n_out, out_rate, quantize_bits)


def _smooth_length(m: int) -> int:
    """The smallest 2-3-5-smooth integer ``>= m`` (a fast transform length)."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two reaching m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _launch(
    link: LinkConfig, channel: int, waveform: RealWaveform, duration: float
) -> tuple[np.ndarray, int]:
    """One channel's modulated spectrum after its interleaver port.

    The whole launch works in the one buffer that ends as the spectrum: the
    DAC (``txdsp.dac_samples``; a grid-rate drive passes unchanged) writes
    the drive into its upper half, spending its lower half on the
    resized spectrum; the modulator turns the drive into the field in
    place; the field's ``rfft`` lands in the lower half, and its mirror
    overwrites the spent field.  The port multiplies the spectrum in blocks
    of ``_PORT_BLOCK`` bins, each block's absolute frequencies taken from
    its bin indices and the laser's position, so no grid-sized frequency or
    port array is built.  Returns the full (two-sided) spectrum, centered on
    the channel's laser, and the laser's position on the composite grid in
    whole bins.
    """
    rate = link.grid_rate
    n = dac_length(waveform, rate)
    buffer = np.empty(n + 1, dtype=np.complex128)  # one spare bin: 2n + 2 floats
    spectrum, half = buffer[:n], buffer[: n // 2 + 1]
    field = buffer.view(np.float64)[n + 2 :]  # clear of the rfft's n + 2 floats
    dac_samples(waveform, rate, out=field, work=half)
    _mzm_transfer(field, link.drive_swing, link.mzm_bias_margin)
    np.fft.rfft(field, out=half)
    # the field is real, so its negative frequencies mirror the positive ones
    np.conjugate(spectrum[(n - 1) // 2 : 0 : -1], out=spectrum[n // 2 + 1 :])
    shift = round((float(link.channel_centers[channel]) + link.detuning) * duration)
    port = link.interleaver(channel)
    bin_width = 1.0 / (n * (1.0 / rate))  # np.fft.fftfreq's spacing, to the bit
    offset = shift / duration
    for start in range(0, n, _PORT_BLOCK):
        signed = np.arange(start, min(start + _PORT_BLOCK, n))
        signed[signed > (n - 1) // 2] -= n  # fftfreq's bin order
        freq = signed * bin_width
        freq += offset
        spectrum[start : start + freq.size] *= port.amplitude_response(freq)
    return spectrum, shift


def _mux_add(
    composite: np.ndarray, spectrum: np.ndarray, shift: int, half_band_bins: float
) -> None:
    """Add one channel's spectrum to the composite, moved up by ``shift`` bins.

    With the laser on the frame's frequency resolution, a whole-bin move is
    the exact frequency translation of the circular frame.  Content
    ``half_band_bins`` either side of the laser must stay below the grid's
    Nyquist frequency, or it would wrap onto the far side of the comb.
    """
    if abs(shift) + half_band_bins > composite.size / 2:
        raise ValueError(
            f"a carrier {shift} bins off center with {half_band_bins:g} bins of "
            f"half-band would alias on a {composite.size}-bin grid"
        )
    split = shift % composite.size  # np.roll's move, without its copy
    composite[split:] += spectrum[: composite.size - split]
    composite[:split] += spectrum[composite.size - split :]


class _SpanOperators:
    """The frame-constant operators of one link on an ``n``-bin grid.

    They depend on neither the OSNR nor the frame's content, so
    ``_span_operators`` keeps them across the frames and the OSNR points of
    a link.  Every array is read-only: it is shared by every frame.
    """

    def __init__(self, link: LinkConfig, n: int):
        self.link, self.n = link, n
        self.dispersion = None
        if link.total_length_km > 0:
            # the phase is even in f, so the non-negative half holds all of it
            phase = _dispersion_phase(
                np.fft.rfftfreq(n, d=1.0 / link.grid_rate),
                link.total_length_km,
                link.dispersion_ps_nm_km,
                link.center_wavelength_nm,
            )
            self.dispersion = np.exp(1j * phase)
            self.dispersion.flags.writeable = False
        self._ports = {}
        self._bands = {}

    def disperse(self, spectrum: np.ndarray) -> None:
        """Multiply a full spectrum by the dispersion factor, in place."""
        if self.dispersion is None:
            return
        h = self.n // 2 + 1
        spectrum[:h] *= self.dispersion
        spectrum[h:] *= self.dispersion[(self.n - 1) // 2 : 0 : -1]

    def receive_port(self, channel: int) -> np.ndarray:
        """The product of one channel's interleaver and demultiplexer ports."""
        port = self._ports.get(channel)
        if port is None:
            freq = _grid_frequencies(self.n, self.link.grid_rate)
            port = self.link.interleaver(channel).amplitude_response(freq)
            port *= self.link.demux(channel).amplitude_response(freq)
            port.flags.writeable = False
            self._ports[channel] = port
        return port

    def noise_band(self, channels) -> np.ndarray:
        """The bins some channel's receive port passes above float64's epsilon.

        Returned as ``[start, stop)`` rows in ascending order; noise outside
        them reaches no capture.
        """
        key = frozenset(channels)
        band = self._bands.get(key)
        if band is None:
            passed = np.zeros(self.n + 2, dtype=bool)  # a stop bin either side
            for ch in key:
                passed[1:-1] |= self.receive_port(ch) > np.finfo(np.float64).eps
            band = np.flatnonzero(np.diff(passed)).reshape(-1, 2)
            band.flags.writeable = False
            self._bands[key] = band
        return band

    def receive_window(self, channel: int) -> tuple[int, int]:
        """``(start, width)``: the shortest circular run of bins holding the
        bins one channel's receive port passes (its ``noise_band``)."""
        band = self.noise_band([channel])
        starts, stops = band[:, 0], band[:, 1]
        gaps = np.append(starts[1:], starts[0] + self.n) - stops  # after each run
        widest = int(np.argmax(gaps))
        return int(starts[(widest + 1) % len(band)]), self.n - int(gaps[widest])


@functools.lru_cache(maxsize=1)
def _span_operators(link: LinkConfig, n: int) -> _SpanOperators:
    """The operators of the most recent link; ``link`` comes with ``osnr_db`` at inf."""
    return _SpanOperators(link, n)


def compose(
    link: LinkConfig, waveforms: dict, rx_channels, occupied_bandwidth: float
) -> tuple[np.ndarray, float | None]:
    """Launch, multiplex and disperse one frame: the span's noiseless composite.

    Between the modulator and the photodiode, the only nonlinear steps, the
    span is linear and diagonal in frequency over one circular frame, so it
    runs on one composite spectrum.  Each channel in turn is brought to the
    grid rate by the DAC, modulated and transformed once, shaped by its
    interleaver port and moved onto its laser by a whole-bin shift; the sum
    takes the dispersion phase.  The dispersion
    factor, the receive ports and each receive set's noise band are built
    the first time a link needs them and kept, read-only, for the most
    recent link.

    What is alive at once: the composite and the one launch buffer of the
    channel being launched (``_launch``), each the composite's size; never
    two channels' arrays, whatever the number of lit channels.

    Parameters
    ----------
    link : LinkConfig
        Geometry, filters and fiber; the OSNR plays no part here.
    waveforms : dict
        Lit channel -> its clipped drive waveform, one frame of equal length
        at one rate: the DAC rate, or ``link.grid_rate``, which the DAC
        passes unchanged.
    rx_channels : iterable of int
        The receivers whose ports a link's first frame builds, before any
        of the frame's own grid-sized arrays exists.
    occupied_bandwidth : float
        Two-sided extent of each channel's modulated content (the DAC
        rate), used by the aliasing guard.

    Returns ``(composite, cut_power)``: the full two-sided spectrum of the
    comb at the receiver, before noise, and the launch power of the channel
    under test (``None`` when that channel is dark).
    """
    rate = link.grid_rate
    first = next(iter(waveforms.values()))
    if any(
        w.sample_rate != first.sample_rate or w.samples.size != first.samples.size
        for w in waveforms.values()
    ):
        raise ValueError("every waveform must be one frame of equal length at one rate")
    n = dac_length(first, rate)
    duration = n / rate
    operators = _span_operators(replace(link, osnr_db=np.inf), n)
    for ch in rx_channels:  # a cold build runs before the frame's grid-sized arrays exist
        operators.receive_window(ch)
    composite = np.zeros(n, dtype=np.complex128)
    cut_power = None
    for ch, waveform in waveforms.items():
        spectrum, shift = _launch(link, ch, waveform, duration)
        if ch == link.cut_index:
            cut_power = _mean_power(spectrum)
        _mux_add(composite, spectrum, shift, occupied_bandwidth / 2 * duration)
        del spectrum  # one launched spectrum alive at a time
    operators.disperse(composite)
    return composite, cut_power


def noise_draws(link: LinkConfig, n: int, rx_channels, noise_seed: int) -> np.ndarray:
    """The unit draws of the noise that ``receive`` adds for ``rx_channels``.

    One ``standard_normal(2 * m)`` at ``noise_seed`` for the ``m`` bins of
    the noise band of ``rx_channels`` on the ``n``-bin grid.  They do not
    depend on the OSNR, so one draw serves a composite received at several
    OSNRs.
    """
    band = _span_operators(replace(link, osnr_db=np.inf), n).noise_band(rx_channels)
    m = int(np.sum(band[:, 1] - band[:, 0]))
    return np.random.default_rng(noise_seed).standard_normal(2 * m)


def receive(
    link: LinkConfig,
    composite: np.ndarray,
    cut_power: float | None,
    rx_channels,
    draws: np.ndarray | None,
) -> dict:
    """Add the OSNR noise to ``compose``'s composite and capture each receiver.

    The noise is ``draws`` (``noise_draws`` for ``rx_channels``), scaled to
    the link's OSNR and added as a spectrum over the bins some receiver
    passes above float64's epsilon (``_add_osnr_noise``).  It refers to
    ``cut_power``, or to the composite's power when that is ``None``.  At
    an infinite OSNR nothing is added and ``draws`` may be ``None``.

    Each receiver takes the circular run of ``W`` bins its ports pass above
    that epsilon, applies both ports in one product and lays the run onto
    a detection grid of ``L`` bins, the smallest 2-3-5-smooth length of at
    least ``W + K``, where ``K`` is the number of bins the capture keeps
    (at least ``2K`` for a band narrower than the capture, and at most the
    frame).  It transforms back, detects and transforms forward on that
    grid.  A bin-to-position map that is one shift modulo ``L`` leaves
    ``|E|^2`` unchanged, and with ``L >= W + K`` no beat between passed
    bins aliases onto a kept bin, so this is detection on the whole frame,
    to rounding, at about 0.7 of its transform length.

    Works in place: the noise lands in ``composite`` and the last receiver
    detects in its buffer.  A caller receiving one composite at several
    OSNRs detects it once (``detect``) and captures it at each
    (``capture``).  Returns receive channel -> front-end capture at
    ``link.rx_sample_rate``.
    """
    rate = link.grid_rate
    n = composite.size
    rx_channels = list(rx_channels)
    operators = _span_operators(replace(link, osnr_db=np.inf), n)
    if np.isfinite(link.osnr_db):
        if draws is None:
            raise ValueError(f"a finite OSNR ({link.osnr_db} dB) needs the frame's noise draws")
        power = _mean_power(composite) if cut_power is None else cut_power
        band = operators.noise_band(rx_channels)
        _add_osnr_noise(composite, band, rate, link.osnr_db, power, draws)

    kept = _spectral.output_length(n, rate, link.rx_sample_rate) // 2 + 1
    captures = {}
    for i, ch in enumerate(rx_channels):
        start, width = operators.receive_window(ch)
        size = min(_smooth_length(max(width, kept) + kept), n)
        if i + 1 < len(rx_channels):
            field = np.empty(size, dtype=np.complex128)
        else:  # the last receiver works in the composite's own buffer
            field = composite[:size]
        _lay_window(field, composite, operators.receive_port(ch), start, width)
        detected = np.abs(np.fft.ifft(field, out=field))
        del field
        # square-law detection, |E|^2 with unit responsivity
        spectrum = np.fft.rfft(np.square(detected, out=detected))[:kept]
        del detected
        spectrum *= size / n  # onto the scale of the n-sample detection
        captures[ch] = _capture(
            spectrum, n, rate, link.rx_bandwidth, link.rx_sample_rate, link.quantize_bits
        )
        del spectrum
    return captures


def detect(
    link: LinkConfig,
    composite: np.ndarray,
    cut_power: float | None,
    rx_channels,
    draws: np.ndarray | None,
) -> tuple:
    """Detect ``compose``'s composite once, for captures at any OSNR (``capture``).

    Each receiver's field is ``E = E_s + s * E_w``: ``E_s`` is the
    composite's window through its ports, laid as ``receive`` lays it;
    ``E_w`` is the unit draws (``noise_draws`` for ``rx_channels``) laid
    the same way, straight from the noise band; and ``s`` is the noise
    scale an OSNR sets (``_noise_scale``).  The detected signal is then
    ``|E|^2 = A + 2 s B + s^2 C``, with ``A = |E_s|^2``,
    ``B = Re(conj(E_s) E_w)`` and ``C = |E_w|^2``, and what follows up to
    the capture's ``irfft`` is linear: each term is transformed once, and
    its kept bins are scaled to the frame and passed through the front end
    (``_front_end``).

    Works in place, as ``receive`` does: each receiver lays and transforms
    ``E_w`` first, the last one detects ``E_s`` in the composite's buffer,
    and each field goes once its terms are formed.  Returns
    ``(n, power, terms)``: the frame's bins; the power the OSNR refers to,
    ``cut_power`` or else the composite's (``None`` without draws); and
    receive channel -> read-only ``(A, B, C)`` spectra of the kept bins,
    ``B`` and ``C`` ``None`` without draws.
    """
    rate = link.grid_rate
    n = composite.size
    rx_channels = list(rx_channels)
    operators = _span_operators(replace(link, osnr_db=np.inf), n)
    noisy = draws is not None
    power = band = None
    if noisy:
        power = _mean_power(composite) if cut_power is None else cut_power
        band = operators.noise_band(rx_channels)
    kept = _spectral.output_length(n, rate, link.rx_sample_rate) // 2 + 1

    def kept_spectrum(detected: np.ndarray, size: int) -> np.ndarray:
        spectrum = np.fft.rfft(detected)[:kept].copy()
        spectrum *= size / n  # onto the scale of the n-sample detection
        _front_end(spectrum, n, rate, link.rx_bandwidth)
        spectrum.flags.writeable = False
        return spectrum

    terms = {}
    for i, ch in enumerate(rx_channels):
        start, width = operators.receive_window(ch)
        size = min(_smooth_length(max(width, kept) + kept), n)
        port = operators.receive_port(ch)
        b = c = None
        if noisy:
            noise = np.zeros(size, dtype=np.complex128)
            _lay_noise(noise, draws, band, port, start, width, n)
            np.fft.ifft(noise, out=noise)
        last = i + 1 == len(rx_channels)
        field = composite[:size] if last else np.empty(size, dtype=np.complex128)
        _lay_window(field, composite, port, start, width)
        np.fft.ifft(field, out=field)
        if noisy:
            detected = np.abs(noise)
            c = kept_spectrum(np.square(detected, out=detected), size)
            np.multiply(field.real, noise.real, out=detected)
            detected += field.imag * noise.imag
            del noise
            b = kept_spectrum(detected, size)
        detected = np.abs(field)
        del field
        a = kept_spectrum(np.square(detected, out=detected), size)
        del detected
        terms[ch] = (a, b, c)
    return n, power, terms


def capture(link: LinkConfig, detected: tuple, rx_channels) -> dict:
    """Capture ``rx_channels`` of a ``detect``-ed frame at ``link.osnr_db``.

    Each receiver's kept bins are ``A + 2 s B + s^2 C`` with ``s`` the noise
    scale of the OSNR (``_noise_scale``; 0 at an infinite OSNR), and
    ``_digitize`` makes the capture from them, as in ``receive``.  The
    captures agree with ``receive``'s on the same frame to rounding.
    ``detected`` is read, not changed, so one detection serves every OSNR.
    Returns receive channel -> front-end capture at ``link.rx_sample_rate``.
    """
    n, power, terms = detected
    rate = link.grid_rate
    scale = 0.0
    if np.isfinite(link.osnr_db):
        if power is None:
            raise ValueError(f"a finite OSNR ({link.osnr_db} dB) needs the frame's noise draws")
        scale = _noise_scale(n, rate, link.osnr_db, power)
    n_out = _spectral.output_length(n, rate, link.rx_sample_rate)
    captures = {}
    for ch in rx_channels:
        a, b, c = terms[ch]
        if scale:  # (s C / 2 + B) 2 s + A, with no temporary
            spectrum = c * (0.5 * scale)
            spectrum += b
            spectrum *= 2.0 * scale
            spectrum += a
        else:
            spectrum = a  # read, not changed
        captures[ch] = _digitize(spectrum, n, n_out, link.rx_sample_rate, link.quantize_bits)
    return captures


def _window_runs(n: int, size: int, start: int, width: int) -> tuple:
    """Where one receiver's window of ``width`` bins from ``start`` lands on
    its ``size``-bin detection grid.

    Returns two runs ``(a, b, to)``, bins ``[a, b)`` of the ``n``-bin frame
    landing at ``[to, to + b - a)``: the wrapped run ``[0, low)`` stays in
    place, and the upper run ``[start, stop)`` moves down by one shift when
    it would pass the grid's end.  Each bin lands at its signed frequency
    modulo ``size``, or all are moved down by one shift when they do not
    wrap; a constant shift modulo the grid leaves ``|E|^2`` unchanged.
    """
    stop = min(start + width, n)
    low = start + width - stop
    shift = max(stop - size, 0)
    return (0, low, 0), (start, stop, start - shift)


def _lay_window(
    field: np.ndarray, composite: np.ndarray, port: np.ndarray, start: int, width: int
) -> None:
    """Lay one receiver's window of ``composite * port`` onto its detection grid.

    Bins ``[start, start + width)``, modulo the composite's ``n``, land on
    ``field`` where ``_window_runs`` puts them; every other position is
    zero.  ``field`` may be ``composite[:field.size]`` itself, since each
    run only moves down, to positions no unread run occupies.
    """
    runs = _window_runs(composite.size, field.size, start, width)
    for a, b, to in runs:
        field[to : to + b - a] = composite[a:b]
        field[to : to + b - a] *= port[a:b]
    (_, low, _), (start, stop, to) = runs
    field[low:to] = 0
    field[to + stop - start :] = 0


def _lay_noise(
    field: np.ndarray,
    draws: np.ndarray,
    band: np.ndarray,
    port: np.ndarray,
    start: int,
    width: int,
    n: int,
) -> None:
    """Lay the unit noise of ``band`` (``noise_draws``) times ``port`` onto one
    receiver's zeroed detection grid, as ``_lay_window`` lays the composite.

    The bins of ``band`` inside the window land where ``_window_runs`` puts
    them, each as its unit draw ``re + 1j * im`` (laid out as in
    ``_add_osnr_noise``) times the port.
    """
    m = draws.size // 2
    at = 0
    for lo, hi in band:
        for a, b, to in _window_runs(n, field.size, start, width):
            first, last = max(a, lo), min(b, hi)
            if first < last:
                src = at + first - lo
                dst = slice(to + first - a, to + last - a)
                field.real[dst] = draws[src : src + last - first]
                field.imag[dst] = draws[m + src : m + src + last - first]
                field[dst] *= port[first:last]
        at += hi - lo


def end_to_end_fading_profile(
    link: LinkConfig, use_interleaver: bool = True, tone_step: float = 62.5e6
) -> tuple[np.ndarray, np.ndarray]:
    """Measure the link's small-signal RF response by single-tone probing.

    Drives the modulator with one low-amplitude tone at a time, passes the
    field through the interleaver port (at the link's detuning), the fiber
    and the port again, detects it, and reads back the tone's RF power.
    The pieces are those a frame crosses: the modulator transfer, the
    dispersion phase and the filter response, which act on the field's
    spectrum as one product per reach.  The result is normalized to a
    back-to-back run of the same chain, isolating the dispersion/vestigial-
    sideband interplay from the static filter and modulator shaping.

    Parameters
    ----------
    link : LinkConfig
        Channel geometry; only the detuning, filter shapes, spans, and
        dispersion parameters are used (a single channel at grid center is
        probed).
    use_interleaver : bool
        When ``False`` the filters are skipped (plain double-sideband
        transmission), exposing the unmitigated fading nulls.
    tone_step : float
        Probe frequency spacing; must be a multiple of the probe's
        resolution bandwidth (31.25 MHz).

    Returns
    -------
    (frequencies, response_db) : tuple of numpy.ndarray
        Tone frequencies in Hz and received RF power relative to
        back-to-back, in dB.
    """
    base_rate, base_n = 64e9, 2048
    rate = link.grid_rate
    n = int(round(base_n * rate / base_rate))
    resolution = base_rate / base_n
    step_bins = int(round(tone_step / resolution))
    if step_bins < 1 or step_bins * resolution != tone_step:
        raise ValueError(f"tone_step must be a positive multiple of {resolution:.4e} Hz")
    bins = np.arange(step_bins, base_n // 2, step_bins)
    freqs = bins * resolution

    # The probe waveform keeps the base geometry's 31.25 MHz resolution at
    # any composite rate (same duration, more samples), so a tone at bin k
    # of the 64 GS/s grid also lands exactly on bin k of the composite FFT.
    t = np.arange(n) / rate
    freq = _grid_frequencies(n, rate) + link.detuning  # absolute grid frequencies
    if use_interleaver:  # the transmit and the receive pass of one port
        tx_il = FilterSpec(center=0.0, fwhm_3db=link.il_fwhm, order=link.il_order, fsr=link.il_fsr)
        port = np.square(tx_il.amplitude_response(freq))
    else:
        port = np.ones(n)
    phase = _dispersion_phase(
        freq, link.total_length_km, link.dispersion_ps_nm_km, link.center_wavelength_nm
    )
    transfers = (port * np.exp(1j * phase), port)  # the link, then back to back
    powers = np.empty((len(transfers), freqs.size))
    for i, (f, k) in enumerate(zip(freqs, bins)):
        field = _mzm_transfer(np.sin(2 * np.pi * f * t), _PROBE_SWING, link.mzm_bias_margin)
        spectrum = np.fft.fft(field)
        for row, transfer in zip(powers, transfers):
            detected = np.square(np.abs(np.fft.ifft(spectrum * transfer)))
            row[i] = np.abs(np.fft.rfft(detected)[k]) ** 2
    received, reference = powers
    with np.errstate(divide="ignore"):
        response_db = 10.0 * np.log10(received / reference)
    return _freeze(freqs), _freeze(response_db)
