"""One round of a workload, inside a fresh interpreter.

``run.py`` starts this script once per round.  Set-up ends when
``dmtlink.cli`` is imported and the input files are written; the script then
prints ``ready``.  With ``--setup-only`` it stops there.  Otherwise it runs
the workload's ``dmtlink`` command lines through ``dmtlink.cli.main``, as the
``dmtlink`` entry point would, checks every output against figures it
computes itself, and prints one JSON line with the measurements.  With
``--trace-file`` the round runs under the span recorder of ``spans.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import multiprocessing.process
import os
import resource
import shutil
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

TARGET_BER = 4e-3
RATE = "56"  # Gb/s per channel of the 8 x 56 Gb/s comb
ACCEPTANCE_BITS = 250_000  # counting depth of the acceptance criteria
LOOPBACK_BITS = 5_000_000  # 23 frames at 56 Gb/s
# both laser detunings are in the vestigial-sideband regime
SEARCH_DETUNINGS_GHZ = ("14.25", "19")
# DMT frame: (2048 + 32) samples x (119 data + 5 training) symbols at 64 GS/s
FRAME_SAMPLES = 257_920
DATA_SYMBOLS = 119
DAC_RATE = 64 * 10**9


def _printed_path(stdout: str, prefix: str) -> Path:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return Path(line[len(prefix):].strip())
    raise ValueError(f"no '{prefix.strip()}' line in the command output")


def _read_csv(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_run(rc: int, stdout: str, depth: int, loopback: bool) -> list:
    """One ``dmtlink run`` of channel 1 at RATE.

    Loopback must count zero bit errors, the optical link a BER below the
    target (exit code 0).  Either way the count is whole frames of at least
    ``depth`` bits, and the persisted loading table carries exactly
    ``ceil(R * 257,920 / (64e9 * 119))`` bits per symbol with the powers of
    its active subcarriers summing to their count.
    """
    errors = [] if rc == 0 else [f"run exit code {rc}, expected 0"]
    manifest_path = _printed_path(stdout, "manifest: ")
    counts = json.loads(manifest_path.read_text())["channels"]["1"]
    if loopback and counts["bit_errors"] != 0:
        errors.append(f"loopback counted {counts['bit_errors']} bit errors")
    if not counts["bit_errors"] < TARGET_BER * counts["bits_total"]:
        errors.append(f"{counts['bit_errors']} errors in {counts['bits_total']} bits")
    rate_bps = int(Fraction(RATE) * 10**9)
    bits_per_symbol = -(-rate_bps * FRAME_SAMPLES // (DAC_RATE * DATA_SYMBOLS))
    frame_bits = DATA_SYMBOLS * bits_per_symbol
    total = counts["bits_total"]
    if total % frame_bits or total < depth:
        errors.append(f"{total} bits is not whole frames of {frame_bits} bits, >= {depth}")
    loading_path = Path(str(manifest_path).replace("_manifest.json", "_ch1_loading.csv"))
    table = _read_csv(loading_path)
    bits = [int(r["bits"]) for r in table]
    active_powers = [float(r["power"]) for r in table if int(r["bits"]) > 0]
    if sum(bits) != bits_per_symbol:
        errors.append(f"loading carries {sum(bits)} bits per symbol, expected {bits_per_symbol}")
    if abs(sum(active_powers) - len(active_powers)) > 1e-9 * len(active_powers):
        errors.append(
            f"active powers sum to {sum(active_powers)}, expected {len(active_powers)}"
        )
    return errors


def check_search(rc: int, stdout: str) -> list:
    """Both required OSNRs at 50 km are finite, inside the (10, 50] dB bracket."""
    errors = [] if rc == 0 else [f"sweep exit code {rc}, expected 0"]
    rows = _read_csv(_printed_path(stdout, "table: "))
    if len(rows) != 1 or float(rows[0]["reach_km"]) != 50.0:
        return errors + [f"expected one row at 50 km, got {rows}"]
    for detuning in SEARCH_DETUNINGS_GHZ:
        value = float(rows[0][f"required_osnr_db_{detuning}ghz"])
        if not 10.0 < value <= 50.0:
            errors.append(f"required OSNR at {detuning} GHz is {value}, outside (10, 50] dB")
    return errors


def wdm_run(inputs: dict, seed: int, out: Path) -> tuple:
    argv = ["run", "--config", inputs["wdm"], "--rate-gbps", RATE, "--reach-km", "240",
            "--osnr-db", "38", "--seed", str(seed), "--out-dir", str(out)]
    return argv, 1, lambda rc, stdout: check_run(rc, stdout, ACCEPTANCE_BITS, False)


def osnr_search(inputs: dict, seed: int, out: Path) -> tuple:
    argv = [
        "sweep", "--axis", "reach", "--start", "50", "--stop", "50", "--step", "50",
        "--series-detuning-ghz", ",".join(SEARCH_DETUNINGS_GHZ), "--workers", "2",
        "--rate-gbps", "89.6", "--config", inputs["search"],
        "--seed", str(seed), "--out-dir", str(out),
    ]
    return argv, 2, check_search


def dsp_loopback(inputs: dict, seed: int, out: Path) -> tuple:
    argv = ["run", "--loopback", "--rate-gbps", RATE, "--config", inputs["loopback"],
            "--seed", str(seed), "--out-dir", str(out)]
    return argv, 1, lambda rc, stdout: check_run(rc, stdout, LOOPBACK_BITS, True)


WORKLOADS = {"wdm_run": wdm_run, "osnr_search": osnr_search, "dsp_loopback": dsp_loopback}

CONFIGS = {
    # channel 1 with both neighbours lit: the table's 3-channel neighbourhood
    "wdm": {"active_channels": [0, 1, 2], "channel_under_test": 1,
            "min_bits": ACCEPTANCE_BITS},
    "search": {"min_bits": ACCEPTANCE_BITS},
    "loopback": {"min_bits": LOOPBACK_BITS},
}


def build_inputs(out: Path) -> dict:
    """Write the config files the commands read."""
    out.mkdir(parents=True, exist_ok=True)
    inputs = {}
    for name, config in CONFIGS.items():
        path = out / f"{name}.json"
        path.write_text(json.dumps(config))
        inputs[name] = str(path)
    return inputs


def _cpu_s() -> float:
    """User plus system CPU of this process and of its reaped pool workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class ChildRss(threading.Thread):
    """Peak of the summed resident memory of live pool workers, in KiB."""

    def __init__(self, interval_s: float = 0.05):
        super().__init__(daemon=True)
        self.interval_s = interval_s
        self.peak_kib = 0
        self._done = threading.Event()

    def run(self):
        while not self._done.wait(self.interval_s):
            total = 0
            # the processes this interpreter started, such as ProcessPoolExecutor
            # workers; list() takes the snapshot under the GIL
            for proc in list(multiprocessing.process._children):
                try:
                    with open(f"/proc/{proc.pid}/status") as fh:
                        for line in fh:
                            if line.startswith("VmRSS:"):
                                total += int(line.split()[1])
                except (OSError, TypeError):
                    continue
            self.peak_kib = max(self.peak_kib, total)

    def stop(self):
        self._done.set()
        self.join()


def layer_metrics(table: dict, tracer, wall_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, for one traced round."""
    def get(name, key):
        return table.get(name, {}).get(key, 0)

    frames = get("harness._transmit_once", "calls")
    fft_calls = sum(get(f"fft.{fn}", "calls") for fn in ("fft", "ifft", "rfft", "irfft"))
    fft_s = sum(get(f"fft.{fn}", "s") for fn in ("fft", "ifft", "rfft", "irfft"))
    runs = get("harness.run_link", "calls")
    searches = get("harness.required_osnr", "calls")
    m = {}
    for name in ("optical_filter", "wdm_mux", "fiber_cd", "load_noise_to_osnr", "mzm",
                 "photodiode", "rx_frontend", "FilterSpec.amplitude_response"):
        m[f"channel.{name}.s"] = get(f"channel.{name}", "s")
    m["channel.optical_filter.calls"] = get("channel.optical_filter", "calls")
    m["fft.calls"] = fft_calls
    m["fft.mpoints"] = tracer.fft_points / 1e6
    m["fft.s"] = fft_s
    m["fft.calls_per_frame"] = fft_calls / frames if frames else 0.0
    m["fft.mpoints_per_frame"] = tracer.fft_points / 1e6 / frames if frames else 0.0
    m["harness.frames"] = frames
    m["harness.payload_bits"] = tracer.payload_bits
    m["harness.run_link.calls"] = runs
    m["harness.run_link.s"] = get("harness.run_link", "s")
    m["harness.run_link.self_s"] = get("harness.run_link", "self_s")
    m["harness.run_link.useful_ratio"] = tracer.records / runs if runs else 0.0
    m["harness.required_osnr.calls"] = searches
    m["harness.required_osnr.runs_per_search"] = runs / searches if searches else 0.0
    for name in ("modulate_frame", "clip", "dac"):
        m[f"txdsp.{name}.s"] = get(f"txdsp.{name}", "s")
    for name in ("sqrt_linearize", "resample", "schmidl_cox_sync", "demodulate",
                 "channel_estimate", "dd_equalize", "demap_frame", "count_errors"):
        m[f"rxdsp.{name}.s"] = get(f"rxdsp.{name}", "s")
    m["loading.estimate_snr.s"] = get("loading.estimate_snr", "s")
    m["loading.chow_load.s"] = get("loading.chow_load", "s")
    m["loading.chow_load.calls"] = get("loading.chow_load", "calls")
    m["harness.persist_run.self_s"] = get("harness.persist_run", "self_s")
    m["cli.main.self_s"] = get("cli.main", "self_s")
    for layer in ("txdsp", "channel", "rxdsp", "loading", "harness", "cli", "fft"):
        m[f"layer.{layer}.self_s"] = sum(
            row["self_s"] for name, row in table.items() if name.split(".")[0] == layer
        )
    self_sum = sum(row["self_s"] for row in table.values())
    m["trace.self_coverage"] = self_sum / wall_s
    return m


def run_round(workload, inputs, dm_seed, out, cli) -> dict:
    """Run the round's command line through ``cli.main`` and check its output."""
    argv, ops, check = WORKLOADS[workload](inputs, dm_seed, out)
    captured = io.StringIO()
    c0, w0 = _cpu_s(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = None
    result = {"wall_s": time.perf_counter() - w0, "cpu_s": _cpu_s() - c0,
              "attempted": ops, "failed": 0, "errors": []}
    if not isinstance(rc, int) or rc >= 2:
        print(f"operation failed: dmtlink {' '.join(argv)} -> {rc}", file=sys.stderr)
        result["failed"] = ops
        return result
    try:
        result["errors"] = check(rc, captured.getvalue())
    except (OSError, ValueError, KeyError) as exc:
        result["errors"] = [f"unreadable output of dmtlink {argv[0]}: {exc!r}"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--dmtlink-seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="scratch directory of this round")
    parser.add_argument("--trace-file", help="trace the round and write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath("src"))
    import dmtlink.cli as cli

    out = Path(args.out)
    inputs = build_inputs(out)
    print("ready", flush=True)
    if args.setup_only:
        shutil.rmtree(out)
        return 0

    tracer = None
    if args.trace_file:
        from spans import Tracer

        tracer = Tracer()
        tracer.run_id = Path(args.trace_file).stem
        tracer.install()
    child_rss = ChildRss()
    child_rss.start()
    try:
        result = run_round(args.workload, inputs, args.dmtlink_seed, out / "results", cli)
    finally:
        child_rss.stop()
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + child_rss.peak_kib
    ) / 1024
    if tracer is not None:
        table = tracer.summarise()
        tracer.dump(args.trace_file)
        result["per_layer"] = layer_metrics(table, tracer, result["wall_s"])
        result["layer_table"] = table
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
