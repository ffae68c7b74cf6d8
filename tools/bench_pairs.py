"""Alternating before/after pairs of ``perfbench/run.py``, written as ``BENCH_<workload>.json``.

Each pair runs the benchmark once in a parent tree and once in a change tree
(two source checkouts, e.g. from ``git archive``), on the same seed, and
alternates which side runs first: the parent on even pair indices.  Traced
pairs (``--trace 1``, per-layer metrics) follow the plain ones on the next
seeds.  Each run lasts ``run_seconds`` of the change tree's
``BENCHMARK.json``.  Standard library only.  From the root of a checkout::

    python3 tools/bench_pairs.py --parent ../parent --change . --workload wdm_run \\
        --pairs 10 --first-seed 2101 --traced 1 \\
        --parent-label "abc1234 (before)" --change-label "what changed"

``BENCH_<workload>.json`` is written in the current directory and rewritten
after every run, so an interrupted run keeps its finished pairs.  The summary
printed at the end gives, per end-to-end metric, each side's median and
quartiles and the number of pairs where the change reads lower.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ORDER = "pairs alternate which side runs first, parent first on even pair index"


def run_side(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def machine(tree: Path) -> str:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        cwd=tree, capture_output=True, text=True,
    ).stdout.strip()
    return (f"{os.cpu_count()} CPU {platform.system()} {platform.machine()}, "
            f"{platform.python_implementation()} {platform.python_version()}, "
            f"numpy {numpy or 'unknown'}")


def summary(runs: list) -> list:
    """Per end-to-end metric: medians, quartiles and the pairs the change reads lower."""
    lines = []
    for name in runs[0]["parent"]["metrics"]:
        sides = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in ("parent", "change")}
        lower = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        row = f"{name:14s}"
        for side, values in sides.items():
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else values * 3)
            row += f"  {side} {median:.4g} (q1 {q1:.4g}, q3 {q3:.4g})"
        lines.append(f"{row}  change lower in {lower} of {len(runs)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--traced", type=int, default=0, help="traced pairs after the plain ones")
    parser.add_argument("--parent-label", required=True)
    parser.add_argument("--change-label", required=True)
    args = parser.parse_args(argv)
    out = Path(f"BENCH_{args.workload}.json")
    seconds = json.loads((args.change / "BENCHMARK.json").read_text())["run_seconds"]

    record = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S "
                   f"--seconds {seconds:g} --trace T",
        "machine": machine(args.change),
        "sides": {"parent": args.parent_label, "change": args.change_label},
        "order": ORDER,
        "runs": [],
        "traced": [],
    }
    plan = [("runs", 0)] * args.pairs + [("traced", 1)] * args.traced
    for index, (key, trace) in enumerate(plan):
        seed = args.first_seed + index
        pair = {"seed": seed}
        sides = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in sides:
            pair[side] = run_side(getattr(args, side), args.workload, seed, seconds, trace)
            print(f"{key} seed {seed} {side}: "
                  + ", ".join(f"{k} {v['value']:.4g}"
                              for k, v in list(pair[side]["metrics"].items())[:4]),
                  flush=True)
        record[key].append({"seed": seed, "parent": pair["parent"], "change": pair["change"]})
        out.write_text(json.dumps(record, indent=1) + "\n")
    if record["runs"]:
        print("\n".join(summary(record["runs"])))
    failed = [(r["seed"], s) for r in record["runs"] + record["traced"]
              for s in ("parent", "change") if r[s]["failed"] or not r[s]["correct"]]
    if failed:
        print(f"failed or incorrect runs: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
