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
    TABLE_SCENARIOS,
    analytic_fading,
    persist_run,
    rate_reach_table,
    run_link,
    scenario_hash,
    sweep_detuning,
    sweep_osnr,
    sweep_reach,
)
from .channel import end_to_end_fading_profile
from .loading import GapConfig
from .rxdsp import SyncNotFoundError

__all__ = ["ConfigError", "DEFAULT_CONFIG", "build_scenario", "load_config", "main"]

OUT_DIR_ENV = "DMTLINK_OUT_DIR"

DEFAULT_CONFIG = {
    "n_channels": 4,
    "active_channels": [1],
    "channel_under_test": 1,
    "grid_spacing_ghz": 50.0,
    "detuning_ghz": 19.0,
    "reach_km": 0.0,
    "dispersion_ps_nm_km": 17.0,
    "wavelength_nm": 1550.0,
    "osnr_db": None,
    "rx_bandwidth_ghz": 29.4,
    "rx_sample_rate_gsps": 80.0,
    "composite_rate_gsps": None,
    "vpi_v": 2.0,
    "drive_swing": 0.2,
    "mzm_bias_margin": 0.01,
    "il_fwhm_ghz": 44.0,
    "il_order": 2,
    "il_fsr_ghz": 100.0,
    "demux_fwhm_ghz": 44.0,
    "demux_order": 2,
    "quantize_bits": None,
    "rate_gbps": 112.0,
    "target_ber": 4e-3,
    "margin_db": 0.0,
    "min_bits": 1_000_000,
    "min_errors": 100,
    "loopback": False,
    "label": "",
}
"""Config file defaults: a single lit channel, back-to-back, noiseless."""


class ConfigError(ValueError):
    """The configuration file or overrides cannot be used."""


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
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"unknown config key '{key}'")
    merged.update(loaded)
    return merged


def build_scenario(cfg: dict) -> ScenarioConfig:
    """Turn a merged config dict into a ScenarioConfig (units to SI)."""
    osnr = cfg["osnr_db"]
    composite = cfg["composite_rate_gsps"]
    active = cfg["active_channels"]
    reach = float(cfg["reach_km"])
    try:
        link = LinkConfig(
            n_channels=int(cfg["n_channels"]),
            grid_spacing=float(cfg["grid_spacing_ghz"]) * 1e9,
            detuning=float(cfg["detuning_ghz"]) * 1e9,
            span_lengths_km=(reach,) if reach > 0 else (),
            dispersion_ps_nm_km=float(cfg["dispersion_ps_nm_km"]),
            center_wavelength_nm=float(cfg["wavelength_nm"]),
            osnr_db=np.inf if osnr is None else float(osnr),
            rx_bandwidth=float(cfg["rx_bandwidth_ghz"]) * 1e9,
            rx_sample_rate=float(cfg["rx_sample_rate_gsps"]) * 1e9,
            composite_rate=None if composite is None else float(composite) * 1e9,
            vpi=float(cfg["vpi_v"]),
            drive_swing=float(cfg["drive_swing"]),
            mzm_bias_margin=float(cfg["mzm_bias_margin"]),
            il_fwhm=float(cfg["il_fwhm_ghz"]) * 1e9,
            il_order=int(cfg["il_order"]),
            il_fsr=float(cfg["il_fsr_ghz"]) * 1e9,
            demux_fwhm=float(cfg["demux_fwhm_ghz"]) * 1e9,
            demux_order=int(cfg["demux_order"]),
            quantize_bits=None if cfg["quantize_bits"] is None else int(cfg["quantize_bits"]),
            active_channels=None if active is None else tuple(int(c) for c in active),
            channel_under_test=(
                None if cfg["channel_under_test"] is None else int(cfg["channel_under_test"])
            ),
        )
        return ScenarioConfig(
            link=link,
            net_rate=float(cfg["rate_gbps"]) * 1e9,
            gap=GapConfig(
                target_ber=float(cfg["target_ber"]), margin_db=float(cfg["margin_db"])
            ),
            min_bits=int(cfg["min_bits"]),
            min_errors=int(cfg["min_errors"]),
            loopback=bool(cfg["loopback"]),
            label=str(cfg["label"]),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    """Command-line flags supersede config file values."""
    mapping = {
        "channels": "n_channels",
        "rate_gbps": "rate_gbps",
        "reach_km": "reach_km",
        "detuning_ghz": "detuning_ghz",
        "osnr_db": "osnr_db",
    }
    out = dict(cfg)
    for attr, key in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            out[key] = value
    if getattr(args, "loopback", False):
        out["loopback"] = True
    if getattr(args, "channels", None) is not None:
        # a full comb request lights every slot and tests the middle one
        out["active_channels"] = None
        out["channel_under_test"] = None
    return out


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out_dir is not None:
        return Path(args.out_dir)
    return Path(os.environ.get(OUT_DIR_ENV, "dmtlink-results"))


def _write_csv(path: Path, header: list, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


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


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    sc = build_scenario(cfg)
    record = run_link(sc, seed=args.seed)
    written = persist_run(record, _out_dir(args))
    for ch, report in sorted(record.reports.items()):
        print(
            f"channel {ch}: BER {report.ber:.3e} "
            f"({report.bit_errors}/{report.bits_total} bits)"
        )
    print(f"manifest: {written['manifest']}")
    target = float(cfg["target_ber"])
    return 1 if record.worst_ber >= target else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    sc = build_scenario(cfg)
    target = float(cfg["target_ber"])
    out = _out_dir(args)
    stem = f"sweep_{args.axis}_{scenario_hash(sc)}_s{args.seed}"
    values = np.arange(args.start, args.stop + args.step / 2, args.step)
    if values.size == 0:
        raise ConfigError("empty sweep range")

    if args.axis == "detuning":
        sweep = sweep_detuning(sc, values * 1e9, seed=args.seed, workers=args.workers)
        rows = [(float(v), float(b)) for v, b in zip(values, sweep.ber)]
        _write_csv(out / f"{stem}.csv", ["detuning_ghz", "ber"], rows)
        print(f"BER minimum {sweep.ber.min():.3e} at {sweep.argmin_axis / 1e9:g} GHz")
        series = [("BER", values, _log_ber(sweep.ber))]
        labels = ("laser detuning (GHz)", "log10(BER)", "BER vs detuning")
    elif args.axis == "osnr":
        sweep = sweep_osnr(sc, values, seed=args.seed, workers=args.workers)
        rows = [(float(v), float(b)) for v, b in zip(values, sweep.ber)]
        _write_csv(out / f"{stem}.csv", ["osnr_db", "ber"], rows)
        crossing = _osnr_crossing(values, sweep.ber, target)
        if crossing is None:
            print(f"no OSNR in range reaches BER {target:.1e}")
        else:
            print(f"required OSNR (BER < {target:.1e}): {crossing:.2f} dB")
        series = [("BER", values, _log_ber(sweep.ber))]
        labels = ("OSNR (dB)", "log10(BER)", "BER vs OSNR")
    else:  # reach
        detunings = args.series_detuning_ghz
        columns = sweep_reach(
            sc, values, [det * 1e9 for det in detunings], target_ber=target, seed=args.seed
        )
        header = ["reach_km"] + [f"required_osnr_db_{det:g}ghz" for det in detunings]
        rows = [
            tuple([float(v)] + [float(col[i]) for col in columns])
            for i, v in enumerate(values)
        ]
        _write_csv(out / f"{stem}.csv", header, rows)
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
        cfg["osnr_db"] = args.table_osnr_db
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
    rows = rate_reach_table(
        base,
        seed=args.seed,
        workers=args.workers,
        full_comb=args.full_comb,
        scenarios=scenarios,
        target_ber=float(cfg["target_ber"]),
    )
    out = _out_dir(args)
    csv_rows = []
    for row in rows:
        csv_rows.append(
            (
                row.n_channels,
                float(row.net_rate / 1e9),
                float(row.reach_km),
                float(row.worst_ber),
                "pass" if row.passes else "fail",
            )
        )
        print(
            f"{row.n_channels} x {row.net_rate / 1e9:g} Gb/s @ {row.reach_km:g} km: "
            f"worst BER {row.worst_ber:.3e} "
            f"[{'pass' if row.passes else 'fail'}]"
        )
    stem = f"table_{scenario_hash(base)}_s{args.seed}"
    _write_csv(
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
        sc.link,
        detuning=sc.link.detuning,
        use_interleaver=not args.no_interleaver,
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
    rows = [
        (float(f / 1e9), float(a), float(s))
        for f, a, s in zip(freqs, analytic_db, simulated_db)
    ]
    _write_csv(
        out / f"{stem}.csv", ["frequency_ghz", "analytic_db", "simulated_db"], rows
    )
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
    parser.add_argument("--channels", type=int, help="comb size override (lights all slots)")
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
    p_run.add_argument("--loopback", action="store_true", help="bypass the optical chain")
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
        default=[19.0],
        help="comma list of detunings for reach sweeps (one curve each)",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_table = sub.add_parser("table", help="rate/reach/channel-count grid")
    _add_common(p_table)
    p_table.add_argument(
        "--scenario", help="restrict to one operating point, e.g. '8x56'"
    )
    p_table.add_argument(
        "--full-comb",
        action="store_true",
        help="light every comb slot instead of the 3-channel neighborhood",
    )
    p_table.add_argument(
        "--table-osnr-db",
        type=float,
        default=38.0,
        help="evaluation OSNR when the config leaves it unset (default 38)",
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
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
