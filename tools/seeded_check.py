"""Digest of every seeded output, written as ``SEEDED.json``; with two trees, what moved.

For one source tree (a checkout, e.g. from ``git archive``) it runs the
seeded commands below with that tree's ``dmtlink``, each in its own
temporary directory, and records per command its exit code, printed lines,
output file names and the sha256 of every CSV and SVG body; a manifest is
hashed with ``wall_time_s`` removed, the one field that is not seeded.  It
adds the 14 required-OSNR values of the acceptance ladder (criteria 6-7:
seed 11, ``tol_db`` 0.125, two workers) and the worst BER of each of
criterion 9's eight table rows (seed 7), imported from the tree's
``tests/test_acceptance.py``; with two trees, both run the change's, so
only the program differs.  Standard library only.  From the root of a
checkout::

    python3 tools/seeded_check.py --tree .
    python3 tools/seeded_check.py --parent ../parent --change .

``SEEDED.json`` is written in the current directory: the tree's entries, or
with ``--parent`` and ``--change`` both trees' entries and the names that
moved, which are also printed, old -> new.  Exit code 1 when anything moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = {
    "wdm.json": {"active_channels": [0, 1, 2], "channel_under_test": 1, "min_bits": 250_000},
    "bits200k.json": {"min_bits": 200_000},
    "bits250k.json": {"min_bits": 250_000},
}
"""Config files the commands read, written into each command's directory."""

COMMANDS = {
    "run_3lit_240km": "run --config wdm.json --rate-gbps 56 --reach-km 240 --osnr-db 38 --seed 4",
    "sweep_osnr": "sweep --axis osnr --start 28 --stop 34 --step 2 --config bits200k.json "
                  "--rate-gbps 56 --reach-km 10 --seed 9 --svg",
    "sweep_detuning": "sweep --axis detuning --start 10 --stop 22 --step 4 --config "
                      "bits200k.json --rate-gbps 56 --reach-km 10 --osnr-db 30 --seed 5 --svg",
    "sweep_reach": "sweep --axis reach --start 0 --stop 50 --step 50 --series-detuning-ghz "
                   "14.25,19 --config bits250k.json --rate-gbps 89.6 --seed 3 --svg",
    "table_8x56": "table --scenario 8x56 --config bits250k.json --seed 1",
    "run_loopback_112": "run --loopback --rate-gbps 112 --seed 2",
    "fading_80km": "fading --reach-km 80 --svg",
}
"""The seeded commands of the standing rule, by name; each writes into ``out``."""

CRITERIA = r"""
import json
from concurrent.futures import ProcessPoolExecutor

from dmtlink import rate_reach_table
from test_acceptance import LADDER_POINTS, TABLE_BASE, TABLE_FAIL_SET, TABLE_PASS_SET, _ladder_point

if __name__ == "__main__":
    out = {}
    with ProcessPoolExecutor(max_workers=2) as pool:
        values = pool.map(_ladder_point, LADDER_POINTS)
        for (rate, reach, det), value in zip(LADDER_POINTS, values):
            out[f"ladder/{rate / 1e9:g}G@{reach:g}km,{det / 1e9:g}GHz"] = value
    for rows in (TABLE_PASS_SET, TABLE_FAIL_SET):
        for row in rate_reach_table(TABLE_BASE, seed=7, workers=2, scenarios=rows):
            out[f"criterion9/{row.n_channels}x{row.net_rate / 1e9:g}@{row.reach_km:g}"] = row.worst_ber
    print(json.dumps(out))
"""
"""Criteria 6-7's ladder and criterion 9's table, run on the set-up the
acceptance tests define (``tests/test_acceptance.py``)."""


def _env(tree: Path, tests: Path) -> dict:
    """The tree's ``dmtlink``, with the acceptance tests of ``tests`` importable."""
    path = os.pathsep.join([str(tree.resolve() / "src"), str(tests.resolve())])
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("DMTLINK_OUT_DIR", None)
    return env


def run_command(tree: Path, name: str, args: str) -> dict:
    """One seeded command in a fresh directory: its entries, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for file, config in CONFIGS.items():
            (work / file).write_text(json.dumps(config))
        proc = subprocess.run(
            [sys.executable, "-m", "dmtlink.cli", *args.split(), "--out-dir", "out"],
            cwd=work, env=_env(tree, tree / "tests"), capture_output=True, text=True,
        )
        entries = {
            f"{name}.exit": proc.returncode,
            f"{name}.stdout": proc.stdout.splitlines(),
            f"{name}.files": sorted(p.name for p in (work / "out").glob("*")),
        }
        for path in sorted((work / "out").glob("*")):
            body = path.read_bytes()
            if path.suffix == ".json":
                manifest = json.loads(body)
                manifest.pop("wall_time_s", None)
                body = json.dumps(manifest, sort_keys=True).encode()
            entries[f"{name}/{path.name}"] = hashlib.sha256(body).hexdigest()
    return entries


def run_criteria(tree: Path, tests: Path) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        script = Path(tmp) / "criteria.py"  # a file, so pool workers can import it
        script.write_text(CRITERIA)
        proc = subprocess.run([sys.executable, str(script)], cwd=tmp, env=_env(tree, tests),
                              capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: the ladder and criterion 9 failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(tree: Path, tests: Path) -> dict:
    """Every seeded entry of ``tree``, by name; the ladder and table as the
    acceptance tests in ``tests`` set them up."""
    entries = {}
    for name, args in COMMANDS.items():
        entries.update(run_command(tree, name, args))
        print(f"{tree}: {name} exit {entries[name + '.exit']}", flush=True)
    entries.update(run_criteria(tree, tests))
    print(f"{tree}: ladder and criterion 9 done", flush=True)
    return entries


def moved(parent: dict, change: dict) -> list:
    """``name: old -> new`` for each entry that differs or exists on one side only."""
    return [
        f"{name}: {parent.get(name, '(none)')} -> {change.get(name, '(none)')}"
        for name in sorted(parent.keys() | change.keys())
        if parent.get(name) != change.get(name)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, help="digest one checkout")
    parser.add_argument("--parent", type=Path, help="the parent's checkout")
    parser.add_argument("--change", type=Path, help="the change's checkout")
    args = parser.parse_args(argv)
    out = Path("SEEDED.json")
    if args.tree is not None:
        entries = digest(args.tree, args.tree / "tests")
        out.write_text(json.dumps({"tree": str(args.tree), "entries": entries}, indent=1) + "\n")
        return 0
    if args.parent is None or args.change is None:
        parser.error("give --tree, or both --parent and --change")
    tests = args.change / "tests"  # one set-up for both sides
    sides = {"parent": digest(args.parent, tests), "change": digest(args.change, tests)}
    lines = moved(sides["parent"], sides["change"])
    out.write_text(json.dumps({**sides, "moved": lines}, indent=1) + "\n")
    print("\n".join(lines) if lines else f"nothing moved ({len(sides['change'])} entries)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
