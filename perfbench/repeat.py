"""Run workloads on several seeds; print median and quartiles per metric.

    python3 perfbench/repeat.py --runs 1            # every workload once
    python3 perfbench/repeat.py --workload wdm_run --runs 10
    python3 perfbench/repeat.py --workload dsp_loopback --runs 3 --trace 1

Run it from the repository root.  Workloads default to all of those in
BENCHMARK.json.  Seeds run from ``--first-seed`` upwards, one ``run.py``
process at a time, with ``run_seconds`` from BENCHMARK.json unless
``--seconds`` is given.  For every metric it prints the median, the first and
third quartiles as ``statistics.quantiles(values, n=4)`` gives them, the
spread (q3 - q1) / median, and the metric's bound from BENCHMARK.json, which
was set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for workload in args.workload:
        ok = repeat(workload, args, bounds) and ok
    return 0 if ok else 1


def repeat(workload: str, args, bounds: dict) -> bool:
    values, shares, ok = {}, [], True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        shares.append(result["failed"] / result["attempted"])
        summary = " ".join(f"{k} {v['value']:.4g} {v['unit']}"
                           for k, v in result["metrics"].items() if args.trace == 0)
        print(f"{workload} seed {seed}: attempted {result['attempted']}, "
              f"failed {result['failed']}; {summary}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{workload}: {len(shares)} runs, failed share per run {sorted(set(shares))}")
    if len(shares) < 2:
        return ok
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")
    print()
    return ok

if __name__ == "__main__":
    sys.exit(main())
