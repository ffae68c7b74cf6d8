"""Command-line surface: config files, experiment subcommands, CSV/SVG output.

Subcommands
-----------
``run``
    One seeded link run; persists a manifest and result tables, prints a
    one-line BER summary per evaluated channel.
``sweep``
    BER or required-OSNR curves over one axis (``osnr``, ``detuning``, or
    ``reach``); emits a CSV table and, with ``--svg``, a standalone plot.
``table``
    The rate/reach/channel-count grid: worst-channel BER and pass/fail per
    operating point.
``fading``
    Dumps the analytic and simulated small-signal fading profiles.

Configs are JSON documents whose keys carry explicit units (``_ghz``,
``_km``, ``_db``…); unknown keys are rejected so a typo cannot silently
fall back to a default.  Command-line flags override file values.  The
default output directory comes from ``DMTLINK_OUT_DIR`` when set.

Exit codes: 0 success; 1 measured BER above target; 2 unparseable or
invalid configuration; 3 infeasible operating point (rate does not load,
timing unrecoverable, or target BER unreachable at any OSNR); 141
(128 + SIGPIPE) the reader of standard output closed it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .channel import LinkConfig
from .core import InfeasibleRateError
from .harness import (
    InfeasibleOsnrError,
    ScenarioConfig,
    TABLE_OSNR_DB,
    TABLE_SCENARIOS,
    analytic_fading,
    persist_run,
    rate_reach_table,
    run_link,
    scenario_hash,
    sweep_detuning,
    sweep_osnr,
    sweep_reach,
    write_csv,
)
from .channel import end_to_end_fading_profile
from .loading import GapConfig
from .rxdsp import SyncNotFoundError

__all__ = ["ConfigError", "DEFAULT_CONFIG", "build_scenario", "load_config", "main"]

OUT_DIR_ENV = "DMTLINK_OUT_DIR"


class ConfigError(ValueError):
    """The configuration file or overrides cannot be used."""


# A kind takes a key's value as JSON gives it and returns its ScenarioConfig
# field in SI units.  Values are never coerced: "false" is not a bool, 4.7 is
# not an int and NaN is not a number; each is a ConfigError naming the key.


def _check(key: str, value, ok: bool, what: str):
    if not ok:
        raise ConfigError(f"'{key}' must be {what}, got {value!r}")
    return value


def _is(kind: type, what: str):
    return lambda key, value: _check(key, value, isinstance(value, kind), what)


def _int(key: str, value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _check(key, value, isinstance(value, int) and not isinstance(value, bool), "an integer")


def _float(key: str, value) -> float:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    finite = number and abs(value) <= sys.float_info.max  # NaN compares false
    return float(_check(key, value, finite, "a finite number"))


def _giga(key: str, value) -> float:  # GHz, GS/s or Gb/s to Hz, S/s or b/s
    return _float(key, value) * 1e9


def _reach(key: str, value) -> tuple:  # one span; 0 km is back to back
    km = _check(key, _float(key, value), value >= 0, "at least 0")
    return (km,) if km > 0 else ()


def _osnr(key: str, value) -> float:  # null or +inf is a noiseless link
    return np.inf if value is None or value == np.inf else _float(key, value)


def _slots(key: str, value) -> tuple:
    _check(key, value, isinstance(value, (list, tuple)), "a list of comb slots")
    return tuple(_int(key, slot) for slot in value)


def _optional(kind):  # null stays None
    return lambda key, value: None if value is None else kind(key, value)


_bool, _str = _is(bool, "true or false"), _is(str, "a string")
_channel, _channels = _optional(_int), _optional(_slots)  # null: middle slot, whole comb


_KEYS = {
    "n_channels": (4, "link.n_channels", _int),
    "active_channels": ([1], "link.active_channels", _channels),
    "channel_under_test": (1, "link.channel_under_test", _channel),
    "grid_spacing_ghz": (50.0, "link.grid_spacing", _giga),
    "detuning_ghz": (19.0, "link.detuning", _giga),
    "reach_km": (0.0, "link.span_lengths_km", _reach),
    "dispersion_ps_nm_km": (17.0, "link.dispersion_ps_nm_km", _float),
    "wavelength_nm": (1550.0, "link.center_wavelength_nm", _float),
    "osnr_db": (None, "link.osnr_db", _osnr),
    "rx_bandwidth_ghz": (29.4, "link.rx_bandwidth", _giga),
    "rx_sample_rate_gsps": (80.0, "link.rx_sample_rate", _giga),
    "composite_rate_gsps": (None, "link.composite_rate", _optional(_giga)),
    "drive_swing": (0.2, "link.drive_swing", _float),
    "mzm_bias_margin": (0.01, "link.mzm_bias_margin", _float),
    "il_fwhm_ghz": (44.0, "link.il_fwhm", _giga),
    "il_order": (2, "link.il_order", _int),
    "il_fsr_ghz": (100.0, "link.il_fsr", _giga),
    "demux_fwhm_ghz": (44.0, "link.demux_fwhm", _giga),
    "demux_order": (2, "link.demux_order", _int),
    "quantize_bits": (None, "link.quantize_bits", _optional(_int)),
    "rate_gbps": (112.0, "net_rate", _giga),
    "target_ber": (4e-3, "gap.target_ber", _float),
    "margin_db": (0.0, "gap.margin_db", _float),
    "min_bits": (1_000_000, "min_bits", _int),
    "min_errors": (100, "min_errors", _int),
    "loopback": (False, "loopback", _bool),
    "label": ("", "label", _str),
}
"""The config schema: key -> (default, the ScenarioConfig field it sets, kind)."""

DEFAULT_CONFIG = {key: default for key, (default, _, _) in _KEYS.items()}
"""Config file defaults: a single lit channel, back-to-back, noiseless."""


def load_config(path: str | None) -> dict:
    """Read a JSON config and merge it over the defaults.

    Unknown keys are rejected (unit-suffixed names make GHz/Hz mix-ups a
    loud failure instead of a silent one); a missing path returns the
    defaults unchanged.
    """
    merged = dict(DEFAULT_CONFIG)
    if path is None:
        return merged
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config must be a JSON object")
    for key in loaded:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key '{key}'")
    merged.update(loaded)
    return merged


def build_scenario(cfg: dict) -> ScenarioConfig:
    """Turn a merged config dict into a ScenarioConfig (units to SI)."""
    fields = {"link": {}, "gap": {}, "": {}}
    for key, (_, field, kind) in _KEYS.items():
        group, _, name = field.rpartition(".")
        fields[group][name] = kind(key, cfg[key])
    try:
        return ScenarioConfig(
            link=LinkConfig(**fields["link"]), gap=GapConfig(**fields["gap"]), **fields[""]
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    """Command-line flags supersede config file values.

    Each override flag stores under its config key; a flag not given keeps
    the file's value.  A comb size given on the command line lights every
    slot and tests the middle one.
    """
    comb = args.n_channels is not None
    out = dict(cfg)
    for key, (_, _, kind) in _KEYS.items():
        if getattr(args, key, None) is not None:
            out[key] = getattr(args, key)
        elif comb and kind in (_channel, _channels):
            out[key] = None
    return out


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out_dir is not None:
        return Path(args.out_dir)
    return Path(os.environ.get(OUT_DIR_ENV, "dmtlink-results"))


_SVG_COLORS = ("#1a6fb5", "#c23b22", "#2e8b57", "#8a2be2", "#b8860b", "#008b8b")


def _svg_plot(path: Path, series: list, x_label: str, y_label: str, title: str) -> None:
    """Write a self-contained SVG line plot (no external renderer needed).

    ``series`` is a list of ``(label, x_array, y_array)``; non-finite y
    values break the polyline rather than being drawn.
    """
    width, height = 640, 480
    left, right, top, bottom = 70, 20, 30, 50
    plot_w, plot_h = width - left - right, height - top - bottom

    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    finite_y = ys[np.isfinite(ys)]
    if finite_y.size == 0:
        raise ValueError("nothing finite to plot")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(finite_y.min()), float(finite_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444"/>',
        f'<text x="{left + plot_w / 2:.0f}" y="{height - 12}" text-anchor="middle">'
        f"{x_label}</text>",
        f'<text x="16" y="{top + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.0f})">{y_label}</text>',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<line x1="{px(fx):.1f}" y1="{top + plot_h}" x2="{px(fx):.1f}" '
            f'y2="{top + plot_h + 4}" stroke="#444"/>'
            f'<text x="{px(fx):.1f}" y="{top + plot_h + 18}" text-anchor="middle">{fx:g}</text>'
        )
        parts.append(
            f'<line x1="{left - 4}" y1="{py(fy):.1f}" x2="{left}" y2="{py(fy):.1f}" '
            f'stroke="#444"/>'
            f'<text x="{left - 8}" y="{py(fy) + 4:.1f}" text-anchor="end">{fy:g}</text>'
        )
    for idx, (label, x, y) in enumerate(series):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        run = []
        chunks = []
        for xi, yi in zip(x, y):
            if np.isfinite(yi):
                run.append(f"{px(xi):.1f},{py(yi):.1f}")
            elif run:
                chunks.append(run)
                run = []
        if run:
            chunks.append(run)
        for chunk in chunks:
            parts.append(
                f'<polyline points="{" ".join(chunk)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<rect x="{left + 10}" y="{top + 10 + 16 * idx}" width="12" height="3" '
            f'fill="{color}"/>'
            f'<text x="{left + 28}" y="{top + 16 + 16 * idx}">{label}</text>'
        )
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")


def _log_ber(values) -> np.ndarray:
    """log10 of BER with empty counts shown as a break, for plotting."""
    arr = np.asarray(values, dtype=float)
    out = np.full(arr.shape, np.nan)
    positive = arr > 0
    out[positive] = np.log10(arr[positive])
    return out


def _tested_scenario(cfg: dict) -> ScenarioConfig:
    """``build_scenario`` for a command that reports on the channel under
    test (``run`` and ``sweep``): that channel must be lit."""
    sc = build_scenario(cfg)
    cut, lit = sc.link.cut_index, list(sc.link.lit_channels)
    if cut not in lit:
        raise ConfigError(f"channel_under_test {cut} is not among active_channels {lit}")
    return sc


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    sc = _tested_scenario(cfg)
    record = run_link(sc, seed=args.seed)
    written = persist_run(record, _out_dir(args))
    for ch, report in sorted(record.reports.items()):
        print(
            f"channel {ch}: BER {report.ber:.3e} "
            f"({report.bit_errors}/{report.bits_total} bits)"
        )
    print(f"manifest: {written['manifest']}")
    return 1 if record.worst_ber >= sc.gap.target_ber else 0


_MAX_SWEEP_POINTS = 10_000
"""The most points one sweep runs; each is at least one seeded link run."""


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    sc = _tested_scenario(cfg)
    out = _out_dir(args)
    stem = f"sweep_{args.axis}_{scenario_hash(sc)}_s{args.seed}"
    if not (np.isfinite([args.start, args.stop]).all() and 0 < args.step < np.inf):
        raise ConfigError(
            f"a sweep needs a finite --start and --stop and a positive, finite --step, "
            f"got {args.start:g}, {args.stop:g} and {args.step:g}"
        )
    if (args.stop - args.start) / args.step >= _MAX_SWEEP_POINTS:  # before any allocation
        raise ConfigError(
            f"--start {args.start:g}, --stop {args.stop:g} and --step {args.step:g} make "
            f"more than the {_MAX_SWEEP_POINTS:,} points a sweep runs"
        )
    values = np.arange(args.start, args.stop + args.step / 2, args.step)
    if values.size == 0:
        raise ConfigError("empty sweep range")
    detunings = args.series_detuning_ghz
    if detunings is None:
        detunings = [19.0]
    elif args.axis != "reach":
        raise ConfigError(
            f"--series-detuning-ghz applies to --axis reach only, not --axis {args.axis}"
        )
    # every point must make a valid scenario before the first frame runs
    key = {"osnr": "osnr_db", "detuning": "detuning_ghz", "reach": "reach_km"}[args.axis]
    checks = [(f"--axis {args.axis}", key, v) for v in values]
    if args.axis == "reach":
        checks += [("--series-detuning-ghz", "detuning_ghz", d) for d in detunings]
    for flag, name, value in checks:
        try:
            build_scenario(dict(cfg, **{name: float(value)}))
        except ConfigError as exc:
            raise ConfigError(f"{flag} {value:g}: {exc}") from exc

    if args.axis == "detuning":
        ber = sweep_detuning(sc, values * 1e9, seed=args.seed, workers=args.workers)
        write_csv(out / f"{stem}.csv", ["detuning_ghz", "ber"], zip(values, ber))
        print(f"BER minimum {ber.min():.3e} at {values[np.argmin(ber)]:g} GHz")
        series = [("BER", values, _log_ber(ber))]
        labels = ("laser detuning (GHz)", "log10(BER)", "BER vs detuning")
    elif args.axis == "osnr":
        ber = sweep_osnr(sc, values, seed=args.seed, workers=args.workers)
        write_csv(out / f"{stem}.csv", ["osnr_db", "ber"], zip(values, ber))
        target = sc.gap.target_ber
        crossing = _osnr_crossing(values, ber, target)
        if crossing is None:
            print(f"no OSNR in range reaches BER {target:.1e}")
        else:
            print(f"required OSNR (BER < {target:.1e}): {crossing:.2f} dB")
        series = [("BER", values, _log_ber(ber))]
        labels = ("OSNR (dB)", "log10(BER)", "BER vs OSNR")
    else:  # reach
        columns = sweep_reach(sc, values, [det * 1e9 for det in detunings], seed=args.seed)
        header = ["reach_km"] + [f"required_osnr_db_{det:g}ghz" for det in detunings]
        write_csv(out / f"{stem}.csv", header, zip(values, *columns))
        series = [
            (f"detuning {det:g} GHz", values, col)
            for det, col in zip(detunings, columns)
        ]
        labels = ("reach (km)", "required OSNR (dB)", "required OSNR vs reach")
        print(f"wrote {values.size} reach points x {len(detunings)} detunings")

    if args.svg:
        _svg_plot(out / f"{stem}.svg", series, *labels)
        print(f"plot: {out / (stem + '.svg')}")
    print(f"table: {out / (stem + '.csv')}")
    return 0


def _osnr_crossing(osnr_db: np.ndarray, ber: np.ndarray, target: float):
    """First crossing below target along increasing OSNR, interpolated."""
    for i in range(osnr_db.size):
        if ber[i] < target:
            if i == 0:
                return float(osnr_db[0])
            lo_ber, hi_ber = ber[i - 1], ber[i]
            if lo_ber <= 0 or hi_ber <= 0 or lo_ber <= hi_ber:
                return float(osnr_db[i])
            frac = (np.log10(lo_ber) - np.log10(target)) / (
                np.log10(lo_ber) - np.log10(hi_ber)
            )
            return float(osnr_db[i - 1] + frac * (osnr_db[i] - osnr_db[i - 1]))
    return None


def _cmd_table(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if cfg["osnr_db"] is None:
        cfg["osnr_db"] = TABLE_OSNR_DB
    base = build_scenario(cfg)
    scenarios = TABLE_SCENARIOS
    if args.scenario is not None:
        try:
            n_str, rate_str = args.scenario.split("x")
            wanted = (int(n_str), float(rate_str))
        except ValueError as exc:
            raise ConfigError(
                f"--scenario must look like '8x56', got '{args.scenario}'"
            ) from exc
        scenarios = tuple(
            row
            for row in TABLE_SCENARIOS
            if row[0] == wanted[0] and abs(row[1] / 1e9 - wanted[1]) < 0.05
        )
        if not scenarios:
            raise ConfigError(f"no operating point matches '{args.scenario}'")
    rows = rate_reach_table(base, seed=args.seed, workers=args.workers, scenarios=scenarios)
    out = _out_dir(args)
    csv_rows = []
    for row in rows:
        status = "pass" if row.passes else "fail"
        csv_rows.append((row.n_channels, row.net_rate / 1e9, row.reach_km, row.worst_ber, status))
        print(
            f"{row.n_channels} x {row.net_rate / 1e9:g} Gb/s @ {row.reach_km:g} km: "
            f"worst BER {row.worst_ber:.3e} [{status}]"
        )
    stem = f"table_{scenario_hash(base)}_s{args.seed}"
    write_csv(
        out / f"{stem}.csv",
        ["n_channels", "rate_gbps", "reach_km", "worst_channel_ber", "status"],
        csv_rows,
    )
    print(f"table: {out / (stem + '.csv')}")
    return 0 if all(row.passes for row in rows) else 1


def _cmd_fading(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    sc = build_scenario(cfg)
    reach = sc.link.total_length_km
    freqs, simulated_db = end_to_end_fading_profile(
        sc.link, use_interleaver=not args.no_interleaver
    )
    analytic_db = 10.0 * np.log10(
        np.maximum(
            analytic_fading(
                freqs, reach, sc.link.dispersion_ps_nm_km, sc.link.center_wavelength_nm
            ),
            1e-300,
        )
    )
    out = _out_dir(args)
    stem = f"fading_{scenario_hash(sc)}"
    rows = zip(freqs / 1e9, analytic_db, simulated_db)
    write_csv(out / f"{stem}.csv", ["frequency_ghz", "analytic_db", "simulated_db"], rows)
    if args.svg:
        _svg_plot(
            out / f"{stem}.svg",
            [
                ("analytic double-sideband", freqs / 1e9, analytic_db),
                ("simulated", freqs / 1e9, simulated_db),
            ],
            "frequency (GHz)",
            "RF power vs back-to-back (dB)",
            f"fading profile, {reach:g} km",
        )
        print(f"plot: {out / (stem + '.svg')}")
    print(f"table: {out / (stem + '.csv')}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON scenario config file")
    parser.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    parser.add_argument(
        "--out-dir", help=f"output directory (default ${OUT_DIR_ENV} or ./dmtlink-results)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "process pool size of sweep --axis osnr/detuning and table (default serial); "
            "sweep --axis reach ignores it and runs its searches serially"
        ),
    )
    parser.add_argument(
        "--channels",
        type=int,
        dest="n_channels",
        metavar="CHANNELS",
        help="comb size override (lights all slots)",
    )
    parser.add_argument("--rate-gbps", type=float, dest="rate_gbps", help="net rate override")
    parser.add_argument("--reach-km", type=float, dest="reach_km", help="fiber reach override")
    parser.add_argument(
        "--detuning-ghz", type=float, dest="detuning_ghz", help="laser detuning override"
    )
    parser.add_argument("--osnr-db", type=float, dest="osnr_db", help="OSNR override")
    parser.add_argument("--svg", action="store_true", help="also write an SVG plot")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmtlink",
        description="Flexible-rate IM/DD DMT WDM link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one seeded link run")
    _add_common(p_run)
    p_run.add_argument(
        "--loopback", action="store_true", default=None, help="bypass the optical chain"
    )
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="BER / required-OSNR curves over one axis")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--axis", choices=("osnr", "detuning", "reach"), required=True, help="sweep axis"
    )
    p_sweep.add_argument("--start", type=float, required=True, help="axis start (dB/GHz/km)")
    p_sweep.add_argument("--stop", type=float, required=True, help="axis stop, inclusive")
    p_sweep.add_argument("--step", type=float, required=True, help="axis step")
    p_sweep.add_argument(
        "--series-detuning-ghz",
        type=lambda s: [float(x) for x in s.split(",")],
        help="comma list of detunings for reach sweeps (one curve each; default 19)",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_table = sub.add_parser("table", help="rate/reach/channel-count grid")
    _add_common(p_table)
    p_table.add_argument(
        "--scenario", help="restrict to one operating point, e.g. '8x56'"
    )
    p_table.set_defaults(handler=_cmd_table)

    p_fading = sub.add_parser("fading", help="analytic + simulated fading profiles")
    _add_common(p_fading)
    p_fading.add_argument(
        "--no-interleaver",
        action="store_true",
        help="probe without filters (plain double-sideband)",
    )
    p_fading.set_defaults(handler=_cmd_fading)
    return parser


def _check_counts(args: argparse.Namespace) -> None:
    """Refuse a negative seed and a pool of fewer than one worker."""
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        status = args.handler(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
    except BrokenPipeError:
        # the reader closed our output (``| head``): end quietly, as a process
        # killed by SIGPIPE would, with stdout on devnull so that the
        # interpreter's own flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleRateError, InfeasibleOsnrError, SyncNotFoundError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
