"""Measure run-to-run spread the way the driver does.

Runs the registered command ``--runs`` times per workload, each with
another ``--seed``, and prints for every end-to-end metric the distance
between the first and third quartile of the values as a share of their
median, beside the bound from ``BENCHMARK.json``::

    python3 benchmarks/e2e/spread.py [--runs 10] [--workload NAME ...] [--out FILE]

A spread above a third of its bound is marked ``!``; above the bound,
``!!`` (the driver would refuse the benchmark).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.e2e import stats  # noqa: E402


def main() -> int:
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", help="write every run's values here")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in catalog["workloads"]]
    bounds = {m["name"]: m["bound"] for m in catalog["end_to_end"]}
    record: Dict[str, Dict[str, List[float]]] = {}
    status = 0
    for name in names:
        values: Dict[str, List[float]] = {metric: [] for metric in bounds}
        began = time.monotonic()
        for run in range(args.runs):
            command = catalog["command"] + [
                "--workload", name, "--seed", str(args.first_seed + run),
                "--seconds", str(catalog["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=200
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        per_run = (time.monotonic() - began) / args.runs
        print(f"[{name}]  {args.runs} runs, {per_run:.1f} s each")
        for metric, bound in bounds.items():
            q1, median, q3 = stats.quartiles(values[metric])
            spread = (q3 - q1) / median
            mark = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            if spread > bound and metric != "setup_s":
                status = 1
            print(f"  {metric:<16} median {median:>12.4f}  "
                  f"iqr/median {spread:6.3f}  bound {bound:.2f} {mark}")
        record[name] = values
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
