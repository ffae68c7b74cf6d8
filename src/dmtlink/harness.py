"""End-to-end link runner and experiment engine.

Ties the transmit DSP, the loading engine, the optical channel, and the
receive DSP into seeded, reproducible experiments: single link runs with the
train-then-measure two-pass structure (probe, load, count), the
required-OSNR search (on bisection's grid of OSNRs, steered by the SNR
profiles of one probe frame sent and detected once and captured at each
OSNR, with BER counted once at the edge it finds),
detuning sweeps, and the rate/reach/channel-count table, with CSV/JSON
persistence and a process pool for independent sweep points.

Steady-state capture model
--------------------------
The transmitter loops one DMT frame continuously (an arbitrary waveform
generator replaying its pattern), so the physical receive signal is the
periodic steady state of the chain.  All channel operations here are
implemented as circular (FFT) operators over exactly one frame period, which
*is* that steady state, provided every carrier completes an integer number
of cycles per period; carrier offsets are therefore snapped to the frame's
spectral resolution (a sub-MHz adjustment on a 50 GHz grid).  The WDM mux is
then an exact whole-bin shift of each channel's spectrum, not a mixer, and
the optical span from modulator to photodiode runs on one composite spectrum.
Every frame takes one path: it is sent (``_send``: modulation, DAC,
``channel.compose`` and the seed of the unit noise, none of which depends on
the OSNR), detected (``channel.detect``) and captured (``channel.capture``).
A frame received at one OSNR goes through ``channel.receive``, which adds
the noise to the composite, detects it with no noise seed and captures it
at noise scale 0.  A search's probe frame is instead detected once with its
noise seed, which keeps the detection's three terms in the noise scale
(``_shared_probe``), and captured at each OSNR it probes.  The
receiver reads the one-period capture circularly, in sync and in
demodulation alike (a window that runs past the end continues at the
start, as it does in the looped signal).  Every frame
of a run sees the same span with the same delay, so each lit channel is
synchronized once, on its probe capture, and every frame of that channel
is demodulated at the start found there.

Neighborhood equivalence
------------------------
The linear chain is covariant under frequency translation by the channel
spacing: the quadratic dispersion phase differs between comb slots only by a
constant group delay, the interleaver repeats with its free spectral range,
and the demultiplexer is the same shape on every slot.  A channel's
statistics therefore depend only on which neighbors are lit, not on its
absolute slot, so per-channel WDM evaluations run on a compact centered
comb carrying the channel under test and its immediate neighbors (the
documented 3-channel neighborhood).  The rate/reach table runs every
channel this way; a whole comb at its true slots is still one
``evaluate_point(sc, seed, range(n))``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .channel import (
    LinkConfig,
    SPEED_OF_LIGHT,
    capture,
    compose,
    detect,
    receive,
)
from .core import (
    DmtConfig,
    InfeasibleRateError,
    SubcarrierPlan,
    target_bits_per_symbol,
)
from .loading import GapConfig, _bit_capacity, chow_load, estimate_snr
from .rxdsp import (
    SyncNotFoundError,
    channel_estimate,
    count_errors,
    dd_equalize,
    demap_frame,
    demodulate,
    resample,
    schmidl_cox_sync,
    sqrt_linearize,
)
from .txdsp import clip, modulate_frame

__all__ = [
    "InfeasibleOsnrError",
    "RunRecord",
    "ScenarioConfig",
    "TABLE_OSNR_DB",
    "TABLE_SCENARIOS",
    "TableRow",
    "analytic_fading",
    "evaluate_point",
    "persist_run",
    "rate_reach_table",
    "required_osnr",
    "run_link",
    "scenario_hash",
    "sweep_detuning",
    "sweep_osnr",
    "sweep_reach",
    "write_csv",
]

TABLE_SCENARIOS = (
    (4, 112e9, 0.0),
    (5, 89.6e9, 40.0),
    (6, 74.7e9, 80.0),
    (7, 64e9, 160.0),
    (8, 56e9, 240.0),
)
"""Rate/reach/channel-count operating points evaluated by the table run."""

TABLE_OSNR_DB = 38.0
"""Evaluation OSNR of the table run when its config leaves the OSNR unset."""

_OSNR_BRACKET_DB = (10.0, 50.0)
"""OSNR range, in dB, that ``required_osnr`` searches."""

_MAX_HALVINGS = 40
"""Most halvings of the OSNR bracket ``required_osnr`` accepts: its grid
step is then at least 40 dB / 2**40, and its grid points are exact,
distinct floats."""


class InfeasibleOsnrError(RuntimeError):
    """The target BER is not met even at the upper OSNR bracket."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one measurable link condition.

    Parameters
    ----------
    link : LinkConfig
        Optical geometry: comb, filters, fiber, OSNR.
    dmt : DmtConfig
        Modem geometry.
    net_rate : float
        Net information rate per channel, bit/s.
    gap : GapConfig
        Loading target (BER, gap, margin).
    min_bits / min_errors : int
        Counting depth for one BER point: frames accumulate until at least
        ``min_bits`` bits are demapped or every evaluated channel has seen
        ``min_errors`` bit errors.
    loopback : bool
        When set, the optical chain is bypassed entirely (channel output =
        clipped transmit waveform); used for exactness checks.
    label : str
        Free tag, carried into the manifest and the scenario hash.
    """

    link: LinkConfig = field(default_factory=LinkConfig)
    dmt: DmtConfig = field(default_factory=DmtConfig)
    net_rate: float = 112e9
    gap: GapConfig = field(default_factory=GapConfig)
    min_bits: int = 1_000_000
    min_errors: int = 100
    loopback: bool = False
    label: str = ""

    def __post_init__(self):
        if not 0 < self.net_rate < math.inf:
            raise ValueError(f"net_rate must be positive and finite, got {self.net_rate!r}")
        if self.min_bits < 1 or self.min_errors < 1:
            raise ValueError("min_bits and min_errors must be positive")

    @property
    def b_target(self) -> int:
        """Bits each data symbol must carry for the configured net rate."""
        return target_bits_per_symbol(self.net_rate, self.dmt)

    @property
    def bits_per_frame(self) -> int:
        """Payload bits carried by one frame of one channel."""
        return self.dmt.n_data_symbols * self.b_target

    @classmethod
    def single_channel(
        cls,
        net_rate: float = 112e9,
        reach_km: float = 0.0,
        detuning: float = 19e9,
        osnr_db: float = np.inf,
        **overrides,
    ) -> "ScenarioConfig":
        """One lit carrier on a compact comb (the single-channel study setup)."""
        link = LinkConfig(
            n_channels=4,
            active_channels=(1,),
            channel_under_test=1,
            span_lengths_km=(reach_km,) if reach_km > 0 else (),
            detuning=detuning,
            osnr_db=osnr_db,
        )
        return cls(link=link, net_rate=net_rate, **overrides)


@dataclass(frozen=True)
class RunRecord:
    """Result of one seeded link run.

    ``snr``, ``plans``, and ``reports`` are keyed by evaluated channel
    index; reports pool every payload frame the run executed.
    """

    scenario: ScenarioConfig
    seed: int
    snr: dict
    plans: dict
    reports: dict
    wall_time_s: float

    @property
    def scenario_hash(self) -> str:
        return scenario_hash(self.scenario)

    @property
    def worst_ber(self) -> float:
        return max(report.ber for report in self.reports.values())


@dataclass(frozen=True)
class TableRow:
    """One operating point of the rate/reach table."""

    n_channels: int
    net_rate: float
    reach_km: float
    channel_ber: tuple
    target_ber: float

    @property
    def worst_ber(self) -> float:
        return max(self.channel_ber)

    @property
    def passes(self) -> bool:
        return self.worst_ber < self.target_ber


def scenario_hash(sc: ScenarioConfig) -> str:
    """Stable short hash of every scenario field (filename-friendly)."""
    canonical = json.dumps(asdict(sc), sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _seed_int(*parts) -> int:
    """Deterministic child seed from integer context parts."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _with_context(exc, context: str):
    """Re-raise a chain error of the same type with scenario context."""
    if isinstance(exc, InfeasibleRateError):
        return InfeasibleRateError(f"{context}: {exc.args[0]}", exc.max_achievable)
    return type(exc)(f"{context}: {exc.args[0] if exc.args else exc}")


def _send(sc: ScenarioConfig, plans: dict, stage: int, seed: int, rx_channels):
    """Build one frame up to the receivers: all of it that the OSNR does not set.

    Modulates every lit channel at its SubcarrierPlan in ``plans`` and clips
    its drive; ``stage`` separates the seed streams of the probe pass and
    each payload frame.  Of each modulated frame only what the receiver
    reads is kept: ``known[ch]`` is ``(frequency_symbols, tx_bits)``, the
    channel's transmitted subcarrier values (training rows first) and its
    payload bits.  Returns ``(known, signal, cut_power, noise_seed)``.  A
    loopback frame's signal is its clipped drives, by channel, with no
    launch power or noise (``None``).  Otherwise the drives go through the
    DAC and ``compose``, the signal is the composite, and ``noise_seed`` is
    the seed the receivers draw the frame's unit noise at; an infinite
    OSNR draws no noise (``None``).
    """
    link, dmt = sc.link, sc.dmt
    known, drives = {}, {}
    for ch in link.lit_channels:
        payload_rng = np.random.default_rng(_seed_int(seed, stage, 101, ch))
        payload = payload_rng.integers(0, 2, dmt.n_data_symbols * plans[ch].bits_per_symbol)
        # training symbols are fixed across stages
        frame = modulate_frame(payload, plans[ch], dmt, seed=_seed_int(seed, 202, ch))
        known[ch] = (frame.frequency_symbols, frame.tx_bits)
        drives[ch] = clip(frame.waveform, dmt.clipping_ratio_db)
    del frame  # the last channel's unclipped waveform
    if sc.loopback:
        return known, drives, None, None
    # The modulated content spans the DAC Nyquist band around each laser
    # (compose upsamples each drive before its modulator, so there is
    # headroom for its weak harmonics, but the occupied band is the DAC's).
    composite, cut_power = compose(link, drives, rx_channels, dmt.dac_rate)
    del drives
    noise_seed = _seed_int(seed, stage, 303) if np.isfinite(link.osnr_db) else None
    return known, composite, cut_power, noise_seed


def _transmit_once(
    sc: ScenarioConfig, plans: dict, stage: int, seed: int, rx_channels, timing, sent=None
):
    """Send one frame, receive it and demodulate ``rx_channels``.

    ``plans``, ``stage`` and ``seed`` are those of ``_send``.  ``timing``
    maps each channel to the ``SyncResult`` its frames are demodulated at;
    a channel missing from it is first synchronized on this capture (the
    probe pass fills it, payload frames only read it).  ``sent``, a probe
    frame built once for calls that differ only in the OSNR
    (``_shared_probe``), stands in for sending anew, to the same bits: its
    detection is captured at the link's OSNR (``capture``), in place of
    ``receive``, and a loopback frame's drives are read from a copy of
    their dict.  Returns ``{channel: (tx_symbols, tx_bits, rx_symbols)}``:
    the frame's transmitted subcarrier values and payload bits (``_send``'s
    ``known``) and the received subcarrier values (``demodulate``),
    training rows first.
    """
    link, dmt = sc.link, sc.dmt
    if sent is not None:
        known, signal = sent
        rx = signal if sc.loopback else capture(link, signal, rx_channels)
    else:
        known, signal, cut_power, noise_seed = _send(sc, plans, stage, seed, rx_channels)
        rx = signal if sc.loopback else receive(link, signal, cut_power, rx_channels, noise_seed)
        del signal  # the frame's composite goes before the RX DSP
    if sc.loopback:
        captures = dict(rx)  # the clipped drives
    else:
        captures = {ch: resample(sqrt_linearize(rx.pop(ch)), dmt.dac_rate) for ch in rx_channels}

    received = {}
    for ch in rx_channels:
        waveform = captures.pop(ch)
        if ch not in timing:
            try:
                timing[ch] = schmidl_cox_sync(waveform, dmt)
            except SyncNotFoundError as exc:
                raise _with_context(exc, f"channel {ch}") from exc
        received[ch] = (*known[ch], demodulate(waveform, timing[ch], dmt))
    return received


def _shared_probe(sc: ScenarioConfig, seed: int):
    """The probe frame of ``sc`` and ``seed``, for points that differ only in the OSNR.

    It is sent once (``_send``, all lit channels received) and detected
    once (``detect``), which consumes the composite; the composite goes
    when this returns.  Returns ``(known, signal)``, the ``sent``
    of ``_transmit_once`` and ``_probe``: ``signal`` is the detection, or a
    loopback frame's drives.
    """
    lit = sc.link.lit_channels
    known, signal, cut_power, noise_seed = _send(sc, _probe_plans(sc), 0, seed, lit)
    if not sc.loopback:
        signal = detect(sc.link, signal, cut_power, lit, noise_seed)
    return known, signal


def _probe_plans(sc: ScenarioConfig) -> dict:
    """The probe frame's plans: uniform QPSK on every lit channel."""
    plan = SubcarrierPlan.uniform(sc.dmt.n_data_subcarriers, bits=2)
    return {ch: plan for ch in sc.link.lit_channels}


def _probe(sc: ScenarioConfig, seed: int, sent=None):
    """Probe pass: sync each lit channel once and estimate its SNR profile.

    Returns ``(snr, timing)`` keyed by lit channel; every later frame of a
    channel is demodulated at its ``timing``.  ``sent`` is a probe frame
    sent and detected once for several OSNRs (``_shared_probe``).
    """
    dmt = sc.dmt
    lit = sc.link.lit_channels
    timing = {}
    try:
        probe = _transmit_once(sc, _probe_plans(sc), 0, seed, lit, timing, sent)
    except SyncNotFoundError as exc:
        raise _with_context(exc, f"scenario {scenario_hash(sc)} probe pass") from exc
    snr = {}
    for ch in lit:
        tx_symbols, _tx_bits, rx_symbols = probe[ch]
        snr[ch] = estimate_snr(rx_symbols, tx_symbols, dmt)
    return snr, timing


def _load(sc: ScenarioConfig, snr: dict) -> dict:
    """Bit/power plan of each probed channel at the scenario's rate."""
    plans = {}
    for ch, profile in snr.items():
        try:
            plans[ch] = chow_load(
                profile, sc.b_target, sc.gap, max_bits=sc.dmt.max_bits_per_subcarrier
            )
        except InfeasibleRateError as exc:
            raise _with_context(exc, f"scenario {scenario_hash(sc)} channel {ch}") from exc
    return plans


def _count(sc: ScenarioConfig, seed: int, plans: dict, timing: dict, channels) -> dict:
    """Payload frames, from a probe's ``plans`` and ``timing``, to counting depth.

    Returns one pooled report per channel in ``channels``.
    """
    n_ts = sc.dmt.n_training_symbols
    n_frames = max(1, math.ceil(sc.min_bits / sc.bits_per_frame))
    reports = {ch: None for ch in channels}
    for frame_idx in range(n_frames):
        received = _transmit_once(sc, plans, 1 + frame_idx, seed, channels, timing)
        for ch in channels:
            tx_symbols, tx_bits, rx_symbols = received[ch]
            state = channel_estimate(rx_symbols[1:n_ts], tx_symbols[1:n_ts])
            equalized, _ = dd_equalize(rx_symbols[n_ts:], state, plans[ch])
            bits = demap_frame(equalized, plans[ch])
            report = count_errors(bits, tx_bits, plans[ch])
            reports[ch] = report if reports[ch] is None else reports[ch].merged(report)
        if all(r.bit_errors >= sc.min_errors for r in reports.values()):
            break
    return reports


def _check_lit(link: LinkConfig, channels) -> None:
    """Raise ``ValueError`` for a channel to report on that ``link`` does not light."""
    for ch in channels:
        if ch not in link.lit_channels:
            raise ValueError(f"channel {ch} is not lit in this scenario")


def run_link(sc: ScenarioConfig, seed: int, channels=None) -> RunRecord:
    """Execute one scenario: probe, load, then measure until counting depth.

    The probe pass sends a uniform-QPSK frame on every lit channel,
    synchronizes on each channel's capture, estimates its SNR profile at
    the receiver, and derives its bit/power plan; payload frames then
    accumulate a pooled error count per evaluated channel until the
    scenario's counting depth (``min_bits`` or ``min_errors``) is reached.
    Probe and payload passes see independent noise but the same channel,
    with the same delay, so every frame of a channel is demodulated at the
    start its probe capture gave: one timing decision per channel per run.

    Parameters
    ----------
    sc : ScenarioConfig
        The condition to measure.
    seed : int
        Run seed: together with ``sc`` it fully determines every number.
    channels : sequence of int, optional
        Lit channels to demodulate and report on; defaults to the channel
        under test.

    Raises
    ------
    InfeasibleRateError
        If a channel's SNR cannot carry the target bits per symbol.
    SyncNotFoundError
        If frame timing cannot be recovered on a lit channel's probe
        capture; the message names the channel.  Payload frames never
        synchronize, so sync is lost only in the probe pass.
    """
    t0 = time.perf_counter()
    link = sc.link
    eval_channels = [link.cut_index] if channels is None else sorted(set(channels))
    _check_lit(link, eval_channels)

    snr, timing = _probe(sc, seed)
    plans = _load(sc, snr)
    reports = _count(sc, seed, plans, timing, eval_channels)
    return RunRecord(
        scenario=sc,
        seed=seed,
        snr={ch: snr[ch] for ch in eval_channels},
        plans={ch: plans[ch] for ch in eval_channels},
        reports=reports,
        wall_time_s=time.perf_counter() - t0,
    )


def _operable(step, *args):
    """``step(*args)``, or None where the link cannot operate at the point:
    the rate does not load, or frame timing is unrecoverable."""
    try:
        return step(*args)
    except (InfeasibleRateError, SyncNotFoundError):
        return None


def evaluate_point(sc: ScenarioConfig, seed: int, channels=None) -> dict:
    """BER of each requested channel at one seeded operating point.

    A point where the link cannot operate at all — the rate does not load,
    or frame timing is unrecoverable — counts as BER 1 on every requested
    channel: the operating point fails, it does not crash.  ``channels``
    defaults to the channel under test, as in ``run_link``.
    """
    requested = (sc.link.cut_index,) if channels is None else tuple(channels)
    record = _operable(run_link, sc, seed, channels)
    if record is None:
        return {ch: 1.0 for ch in requested}
    return {ch: record.reports[ch].ber for ch in requested}


def _pool_map(tasks, workers) -> list:
    """BER of each (scenario, seed) task's channel under test (``evaluate_point``).

    Runs serially or on a process pool of at most one worker per task (a
    pool forks all its workers up front); results merge by task index, so
    parallel output is identical to serial.
    """
    workers = min(workers or 1, len(tasks))
    if workers <= 1:
        cells = [evaluate_point(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(evaluate_point, *zip(*tasks)))
    return [cell[sc.link.cut_index] for (sc, _seed), cell in zip(tasks, cells)]


def _osnr_point(sc: ScenarioConfig, osnr_db: float, seed: int):
    """Scenario and run seed of one OSNR point, for sweep and search alike.

    The run seed does not depend on the OSNR, so the points of one search
    or sweep share their payload, training symbols and noise draws, and
    differ only in the noise scale sigma(x) the OSNR sets (common random
    numbers).
    """
    return replace(sc, link=replace(sc.link, osnr_db=float(osnr_db))), _seed_int(seed, 404)


def _capacity_deficit(sc: ScenarioConfig, probed) -> int:
    """Lowest loading capacity (``_bit_capacity``) over the lit channels of a
    probed point, less ``sc.b_target``; a point whose sync is lost has
    capacity 0.  The rate loads (``_load`` succeeds) exactly when it is >= 0.
    """
    if probed is None:
        return -sc.b_target
    snr, _timing = probed
    gap, max_bits = sc.gap.gap_linear, sc.dmt.max_bits_per_subcarrier
    return min(_bit_capacity(p.snr_linear, gap, max_bits) for p in snr.values()) - sc.b_target


def _halvings(tol_db: float) -> int:
    """The halvings K of the OSNR bracket that bisection to ``tol_db`` makes:
    the least K with ``(top - bottom) / 2**K <= tol_db``.

    Raises ``ValueError``, naming ``tol_db``, if it is not positive and
    finite, or if it needs more than ``_MAX_HALVINGS`` halvings.
    """
    if not (math.isfinite(tol_db) and tol_db > 0):
        raise ValueError(f"tol_db must be positive and finite, got {tol_db!r}")
    bottom, top = _OSNR_BRACKET_DB
    finest = (top - bottom) / 2**_MAX_HALVINGS
    if tol_db < finest:
        raise ValueError(
            f"tol_db must be at least {finest:.3g} dB ({_MAX_HALVINGS} halvings of the "
            f"{bottom:g}-{top:g} dB bracket), got {tol_db!r}"
        )
    halvings = 0
    while (top - bottom) / 2**halvings > tol_db:
        halvings += 1
    return halvings


def _grid_osnr(index: int, halvings: int) -> float:
    """OSNR (dB) of a grid index: ``bottom + index * (top - bottom) / 2**halvings``,
    the float bisection visits there."""
    bottom, top = _OSNR_BRACKET_DB
    return bottom + index * ((top - bottom) / 2**halvings)


def _predicted_edge(sc: ScenarioConfig, halvings: int, probed: dict, lo: int, hi: int) -> int:
    """The lowest grid index in ``(lo, hi]`` at which every lit channel's
    predicted capacity reaches ``sc.b_target`` (``hi`` if no lower one does).

    Each subcarrier's error variance is modelled as
    ``1 / SNR(x) = a + b * 10**(-x / 10)`` at OSNR ``x``: ``b`` is the
    signal-ASE beat, which scales with the ASE density, and ``a`` what the
    OSNR does not set (distortion, clipping, fading residue, crosstalk).
    Both are fitted from the profiles of the two probed indices in
    ``probed`` (index -> ``_probe``'s ``(snr, timing)`` or None) nearest
    the bracket, or with ``a = 0`` from the one there is, and clamped at 0
    or above; a subcarrier with SNR 0 in either profile is predicted dead.
    The prediction is arithmetic on the profiles; no frame runs.
    """
    known = sorted(
        (k for k, found in probed.items() if found is not None),
        key=lambda k: (max(lo - k, k - hi), k),
    )[:2]
    beat = [10 ** (-_grid_osnr(k, halvings) / 10) for k in known]
    fits = []
    for ch in probed[known[0]][0]:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            var = [1.0 / probed[k][0][ch].snr_linear for k in known]
            dead = np.logical_or.reduce([~np.isfinite(v) for v in var])
            if len(known) == 2:
                b = (var[0] - var[1]) / (beat[0] - beat[1])
                a = var[0] - b * beat[0]
            else:
                b, a = var[0] / beat[0], 0.0
            fits.append((np.where(dead, np.inf, np.maximum(a, 0.0)),
                         np.where(dead, 0.0, np.maximum(b, 0.0))))
    gap, max_bits = sc.gap.gap_linear, sc.dmt.max_bits_per_subcarrier

    def predicted_to_load(k: int) -> bool:
        x = 10 ** (-_grid_osnr(k, halvings) / 10)
        with np.errstate(divide="ignore"):
            return all(
                _bit_capacity(1.0 / (a + b * x), gap, max_bits) >= sc.b_target for a, b in fits
            )

    while hi - lo > 1:  # the predicted capacity is non-decreasing in x
        mid = (lo + hi) // 2
        if predicted_to_load(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _loading_edge(sc: ScenarioConfig, halvings: int, probe) -> tuple:
    """Adjacent grid indices ``(lo, hi)``: ``hi`` loads, and ``lo`` fails or
    is the unprobed bottom, index 0.

    Index ``k`` is the OSNR ``_grid_osnr(k, halvings)``, and the top, index
    ``2**halvings``, loads.  ``probe(k)`` returns ``_probe``'s ``(snr,
    timing)`` there, or None where sync is lost; a point loads when its
    ``_capacity_deficit`` is >= 0.  The next index is ``_predicted_edge``,
    less one after a point that loads, so that the probe lands on the other
    side of the edge from the last one.  It is taken only while bisection
    from the larger side it could leave would end within ``2 * halvings -
    1`` probes past the top; otherwise the midpoint is.  The prediction
    only picks the point: where the verdict is monotone along the grid,
    ``hi`` is the lowest index that loads, as bisection finds it.
    """
    lo, hi = 0, 2**halvings
    probed = {hi: probe(hi)}
    loaded, budget = True, 2 * halvings - 1
    while hi - lo > 1:
        edge = _predicted_edge(sc, halvings, probed, lo, hi)
        k = min(max(edge - 1 if loaded else edge, lo + 1), hi - 1)
        budget -= 1
        if (max(k - lo, hi - k) - 1).bit_length() > budget:  # bisection's probes from there
            k = (lo + hi) // 2
        probed[k] = probe(k)
        loaded = _capacity_deficit(sc, probed[k]) >= 0
        if loaded:
            hi = k
        else:
            lo = k
    return lo, hi


def _bisect(lo: float, hi: float, passes, tol_db: float):
    """Halve ``(lo, hi)``, ``lo`` failing and ``hi`` passing, to ``tol_db``."""
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def required_osnr(sc: ScenarioConfig, tol_db: float = 0.25, seed: int = 0) -> float:
    """OSNR needed to reach ``sc.gap.target_ber``, searched over 10-50 dB.

    Each point is the operating point ``sweep_osnr`` evaluates at that OSNR
    and seed; its loading adapts to the point, as in a trained
    transceiver.  The points share one run seed (``_osnr_point``), so they
    share payload, training symbols and noise draws, and differ only in the
    noise scale sigma(x) the OSNR sets.  The search is steered by the probe
    pass alone: a point passes when its rate loads (timing found, Chow
    loading feasible).  The probe frame is sent and detected once
    (``_shared_probe``): its detection is kept as three terms of the noise
    scale, and each point only captures it at its OSNR (``capture``,
    ``A + 2 s B + s^2 C`` on the kept bins) and runs the RX DSP and its SNR
    estimate.

    The points probed are those a bisection to ``tol_db`` can visit,
    ``10 + k * 40 / 2**K`` dB for its K halvings, each predicted from the
    SNR profiles already probed (``_loading_edge``): a search probes 4-5
    points where bisection probes K + 1, and at most 2K + 1.  On a verdict
    monotone in the OSNR, the edge is the float bisection finds, the lowest
    grid point that loads.  The bottom of the bracket is probed only when
    the final bracket still touches it.  The frame is dropped, and the BER
    counted once, at the passing end of the final bracket, continuing from
    that point's own probe (its plans and timing; no second probe frame).
    If that count misses the target, the top of the bracket is counted, and
    the search bisects on counted BER between the two, with a point that
    cannot operate counting as BER 1; its probes send their own frames.

    Returns a point whose BER was counted below the target: the bottom of
    the bracket, or a point within ``tol_db`` above one seen to fail.

    Raises
    ------
    ValueError
        If ``tol_db`` is not a positive finite number, or is finer than
        ``40 / 2**40`` dB (about 3.6e-11 dB; 40 halvings of the bracket,
        past which grid points are not distinct floats), or if the channel
        under test is not lit, checked before any frame runs.
    InfeasibleOsnrError
        If the link cannot operate at the top of the bracket, or its
        counted BER misses the target.
    """
    halvings = _halvings(tol_db)
    bottom, top = _OSNR_BRACKET_DB
    target_ber = sc.gap.target_ber
    cut = sc.link.cut_index
    _check_lit(sc.link, [cut])
    probed, ber = {}, {}

    def probe(osnr_db: float, sent=None):
        if osnr_db not in probed:
            point = _osnr_point(sc, osnr_db, seed)
            probed[osnr_db] = (point, _operable(_probe, *point, sent))
        return probed[osnr_db][1]

    def loads(osnr_db: float, sent=None) -> bool:
        return _capacity_deficit(sc, probe(osnr_db, sent)) >= 0

    def passes(osnr_db: float) -> bool:
        if osnr_db not in ber:
            ber[osnr_db] = 1.0
            if loads(osnr_db):
                point, (snr, timing) = probed[osnr_db]
                ber[osnr_db] = _count(*point, _load(sc, snr), timing, [cut])[cut].ber
        return ber[osnr_db] < target_ber

    sent = _shared_probe(*_osnr_point(sc, top, seed))
    if not loads(top, sent):
        raise InfeasibleOsnrError(f"the link cannot operate at {top:.1f} dB OSNR")
    lo, hi = _loading_edge(sc, halvings, lambda k: probe(_grid_osnr(k, halvings), sent))
    edge = bottom if lo == 0 and loads(bottom, sent) else _grid_osnr(hi, halvings)
    del sent  # dropped before the first payload frame
    if passes(edge):
        return edge
    if not passes(top):
        raise InfeasibleOsnrError(
            f"BER {ber[top]:.3e} at {top:.1f} dB OSNR still misses {target_ber:.1e}"
        )
    return _bisect(edge, top, passes, tol_db)[1]


def sweep_osnr(
    sc: ScenarioConfig, osnrs, seed: int = 0, workers: int | None = None
) -> np.ndarray:
    """BER of the channel under test at each OSNR (dB), as a float64 array.

    Each point has the scenario and seed that ``required_osnr`` gives the
    same OSNR, so a sweep point and a search point at the same OSNR and
    seed load the same plan and count the same BER.  The points share one
    run seed: their payload, training symbols and noise draws are the same,
    and only the noise scale sigma(x) differs, so a sweep's points are not
    independent samples.  Each point still sends its own frames.  A
    point where the link cannot operate counts as BER 1 (see
    ``evaluate_point``).
    """
    tasks = [_osnr_point(sc, v, seed) for v in osnrs]
    return np.array(_pool_map(tasks, workers), dtype=np.float64)


def sweep_detuning(
    sc: ScenarioConfig, offsets, seed: int = 0, workers: int | None = None
) -> np.ndarray:
    """BER of the channel under test at each laser detuning offset (Hz).

    Returns a float64 array in the order of ``offsets``.  An offset where
    the configured rate does not load (or timing is unrecoverable) counts
    as BER 1, so fading-crippled points rank worst instead of aborting the
    sweep.
    """
    tasks = [
        (replace(sc, link=replace(sc.link, detuning=float(off))), _seed_int(seed, 505, i))
        for i, off in enumerate(offsets)
    ]
    return np.array(_pool_map(tasks, workers), dtype=np.float64)


def sweep_reach(sc: ScenarioConfig, reaches_km, detunings_hz, seed: int = 0) -> np.ndarray:
    """Required OSNR (dB) at each reach, one row per laser detuning.

    Returns an array of shape ``(len(detunings_hz), len(reaches_km))``; a
    point whose target BER (``sc.gap.target_ber``) is missed even at the top
    of the OSNR bracket is ``inf``.  The searches run one after another in this process.

    Raises ``ValueError`` for a reach below 0 km, before any frame runs.
    """
    for reach in reaches_km:
        if not reach >= 0:
            raise ValueError(f"reach must be at least 0 km, got {reach!r}")
    out = np.empty((len(detunings_hz), len(reaches_km)))
    for i, det in enumerate(detunings_hz):
        for j, reach in enumerate(reaches_km):
            spans = (float(reach),) if reach > 0 else ()
            trial = replace(
                sc, link=replace(sc.link, span_lengths_km=spans, detuning=float(det))
            )
            try:
                out[i, j] = required_osnr(trial, seed=seed)
            except InfeasibleOsnrError:
                out[i, j] = np.inf
    return out


def _neighborhood_scenario(sc: ScenarioConfig, n_channels: int, ch: int) -> ScenarioConfig:
    """Centered compact comb equivalent to slot ``ch`` of an n-channel comb.

    Interior slots map to a channel with both neighbors lit, edge slots to
    a channel with the single inboard neighbor.  By translation covariance
    of the chain (see module notes), noiseless captures of the same drives
    have the same spectrum magnitudes to rounding, except the capture's
    Nyquist bin at reach: a real capture keeps only the real part of that
    bin, so the neighborhood's different group delay moves it, by about
    1.4e-5 of the spectrum's peak at 80 and 240 km (tested).
    """
    if not 0 <= ch < n_channels:
        raise ValueError(f"channel {ch} outside comb of {n_channels}")
    if ch == 0:
        lit = (1, 2)  # neighbor above
    elif ch == n_channels - 1:
        lit = (0, 1)  # neighbor below
    else:
        lit = (0, 1, 2)
    link = replace(
        sc.link,
        n_channels=4,
        active_channels=lit,
        channel_under_test=1,
        composite_rate=None,
    )
    return replace(sc, link=link)


def rate_reach_table(
    base: ScenarioConfig,
    seed: int = 0,
    workers: int | None = None,
    scenarios=TABLE_SCENARIOS,
) -> list:
    """Worst-channel BER for each rate/reach/channel-count operating point.

    Every channel of every comb is evaluated, each as its 3-channel
    neighborhood on a compact comb (capture spectra of the same magnitudes
    but for their Nyquist bin, see ``_neighborhood_scenario``), on a pool
    of ``workers`` processes.  A channel whose rate does not load at the
    evaluation OSNR counts as BER 1 — the operating point fails rather
    than aborting the table.  Each row is judged at ``base.gap.target_ber``.

    ``base`` supplies everything but comb size, rate, and spans (notably
    the evaluation OSNR, detuning, target BER and counting depth).
    """
    rows = []
    for s_idx, (n_channels, net_rate, reach_km) in enumerate(scenarios):
        spans = (reach_km,) if reach_km > 0 else ()
        sc = replace(base, net_rate=net_rate)
        tasks = []
        for ch in range(n_channels):
            hood = _neighborhood_scenario(sc, n_channels, ch)
            hood = replace(hood, link=replace(hood.link, span_lengths_km=spans))
            tasks.append((hood, _seed_int(seed, 606, s_idx, ch)))
        rows.append(
            TableRow(
                n_channels=n_channels,
                net_rate=net_rate,
                reach_km=reach_km,
                channel_ber=tuple(_pool_map(tasks, workers)),
                target_ber=base.gap.target_ber,
            )
        )
    return rows


def analytic_fading(
    freq,
    length_km: float,
    dispersion_ps_nm_km: float = 17.0,
    wavelength_nm: float = 1550.0,
):
    """Small-signal power fading of dispersed double-sideband detection.

    ``cos^2(pi * D * L * lambda^2 * f^2 / c)``: the independent closed-form
    oracle for the simulated end-to-end fading profile.  First null at
    ``sqrt(c / (2 * lambda^2 * D * L))``.
    """
    f = np.asarray(freq, dtype=np.float64)
    d_si = dispersion_ps_nm_km * 1e-6
    lam = wavelength_nm * 1e-9
    phase = np.pi * d_si * (length_km * 1e3) * lam**2 * f**2 / SPEED_OF_LIGHT
    out = np.cos(phase) ** 2
    return float(out) if np.isscalar(freq) else out


def persist_run(record: RunRecord, path) -> dict:
    """Write a run's manifest and result tables under ``path``.

    The manifest (JSON) holds the full scenario snapshot, seed, package
    version, and wall time — everything needed to reproduce the run.  CSV
    bodies carry only seeded results, so identical scenario+seed runs give
    byte-identical CSVs.  Filenames embed the scenario hash and seed.

    Returns a dict naming every written file.
    """
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"run_{record.scenario_hash}_s{record.seed}"

    manifest_path = out / f"{stem}_manifest.json"
    manifest = {
        "scenario_hash": record.scenario_hash,
        "seed": record.seed,
        "package_version": __version__,
        "wall_time_s": record.wall_time_s,
        "scenario": asdict(record.scenario),
        "channels": {
            str(ch): {
                "bit_errors": rep.bit_errors,
                "bits_total": rep.bits_total,
                "ber": rep.ber,
            }
            for ch, rep in sorted(record.reports.items())
        },
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=repr))

    written = {"manifest": manifest_path, "ber": out / f"{stem}_ber.csv"}
    write_csv(
        written["ber"],
        ["channel", "bit_errors", "bits_total", "ber"],
        [(ch, r.bit_errors, r.bits_total, r.ber) for ch, r in sorted(record.reports.items())],
    )
    for ch in sorted(record.reports):
        written[f"snr_ch{ch}"] = snr = out / f"{stem}_ch{ch}_snr.csv"
        write_csv(snr, ["subcarrier", "snr_db"], enumerate(record.snr[ch].to_db(), start=1))
        plan = record.plans[ch]
        written[f"loading_ch{ch}"] = loading = out / f"{stem}_ch{ch}_loading.csv"
        rows = zip(range(1, plan.bits.size + 1), plan.bits.tolist(), plan.powers)
        write_csv(loading, ["subcarrier", "bits", "power"], rows)
    return written


def write_csv(path, header, rows) -> None:
    """Write a comma-separated table: ``header``, then one line per row.

    Floats are written as ``repr`` (the shortest string that reads back to
    the same float) and every line ends in ``\\n`` on any platform, so the
    same rows always give the same bytes.  Cells are not quoted.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        for line in [header, *rows]:
            cells = (repr(float(v)) if isinstance(v, float) else str(v) for v in line)
            fh.write(",".join(cells) + "\n")
