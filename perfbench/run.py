"""End-to-end benchmark of dmtlink: one workload, one seed, one run.

Run from the root of a source checkout (the directory holding ``src/dmtlink``):

    python3 perfbench/run.py --workload wdm_run --seed 1 --seconds 20 --trace 0

A run is whole rounds of the workload, each in a fresh interpreter running
``worker.py``, as every ``dmtlink`` command runs in its own process.  Rounds
start until the next one would end after ``--seconds`` (at least one; two in a
traced run, where untraced and traced rounds alternate).  Set-up is timed in
every interpreter, and in extra set-up-only ones up to ``SETUP_SAMPLES``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The exit code is 0 when every output check passed, 1 when one failed, 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # a run must end within 180 s
_ENV = dict(os.environ, PYTHONPATH="src")


class _Worker:
    """A worker interpreter, killed if it outlives the run's deadline."""

    def __init__(self, args, out: Path, deadline: float, extra: list):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--out", str(out)] + extra
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_ENV)
        self._timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self._timer.start()
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if ready.strip() != "ready":
            self.finish()
            raise RuntimeError("worker did not finish set-up")

    def finish(self) -> str:
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self._timer.cancel()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return rest


def run_rounds(args, out: Path, deadline: float):
    """Start rounds until the budget is spent; returns (rounds, set-up times)."""
    rounds, setups, durations = [], [], []
    start = time.perf_counter()
    while True:
        k = len(rounds)
        extra = ["--dmtlink-seed", str(1000 * args.seed + k)]
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            extra += ["--trace-file", str(out / f"trace-{args.workload}-s{args.seed}-r{k}.jsonl")]
        round_start = time.perf_counter()
        worker = _Worker(args, out / f"r{k}", deadline, extra)
        setups.append(worker.setup_s)
        result = json.loads(worker.finish().strip().splitlines()[-1])
        result["traced"] = traced
        rounds.append(result)
        durations.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if len(rounds) >= 1 + args.trace and elapsed + statistics.median(durations) > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        worker = _Worker(args, out / "setup", deadline, ["--setup-only"])
        setups.append(worker.setup_s)
        worker.finish()
    return rounds, setups


def import_times() -> dict:
    """Cumulative import seconds from ``python -X importtime`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import dmtlink.cli"],
        capture_output=True, text=True, env=_ENV, check=True,
    )
    top_level, first_seen = 0, {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")  # "import time: self | cumulative | <indent>name"
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name, cumulative_us = parts[2].rstrip(), int(parts[1])
        if name.startswith(" dmtlink"):  # one space of indent: imported at top level
            top_level += cumulative_us
        first_seen.setdefault(name.strip(), cumulative_us)
    return {
        "import.dmtlink.s": top_level / 1e6,
        "import.numpy.s": first_seen.get("numpy", 0) / 1e6,
        "import.scipy.stats.s": first_seen.get("scipy.stats", 0) / 1e6,
    }


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not (Path("src/dmtlink/cli.py").is_file() and Path("BENCHMARK.json").is_file()):
        print("run.py: run it from the root of a dmtlink checkout", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        # build: byte-compile once so every set-up reads the same caches
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src/dmtlink"], check=True)
        rounds, setups = run_rounds(args, HERE / "out", deadline)
        imports = import_times() if args.trace else {}
    except (RuntimeError, OSError, ValueError, IndexError,
            subprocess.CalledProcessError) as exc:
        print(f"run.py: {args.workload} did not complete: {exc}", file=sys.stderr)
        return 2

    plain = [r for r in rounds if not r["traced"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        values = {name: statistics.mean(r["per_layer"][name] for r in traced)
                  for name in traced[0]["per_layer"]}
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
            r["wall_s"] for r in plain)
        values.update(imports)
        print(f"{'span (last traced round)':44s} {'calls':>7s} {'incl s':>9s} {'self s':>9s}")
        table = traced[-1]["layer_table"]
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:44s} {row['calls']:7d} {row['s']:9.4f} {row['self_s']:9.4f}")
    # names and units come from BENCHMARK.json; a metric the worker lacks is a KeyError
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    errors = [e for r in rounds for e in r["errors"]]
    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} round(s)")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"operations attempted {attempted}, failed {failed}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
