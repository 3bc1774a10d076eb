"""Run the benchmark: one workload (the driver's form) or all of them.

The driver's form measures one workload for ``--seconds`` and prints one
JSON object as the last line of stdout::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics of that workload from an
untraced run; ``--trace 1`` runs the separate traced pass and reports
every per-layer metric.  Without ``--workload`` all four workloads and
then the traced pass run in turn, every metric is printed by name with
its unit, and ``--out FILE`` receives the full result (per-block values,
sample counts, quartiles) for ``compare.py``::

    python3 benchmarks/e2e/run.py --seed N --out FILE [--smoke]

Exit status is non-zero when a correctness check or the end-of-run leak
check fails, and when the program under test is not there to measure.
"""

from __future__ import annotations

import os
import sys

# Before NumPy is imported: two workers plus a server on two vCPUs must
# not each fan a matrix product out over a BLAS pool of their own
# (unpinned, train_bulk_tcp halves and its spread doubles).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    print(
        f"benchmark error: nothing to measure, {ROOT / 'src' / 'repro'} "
        "is missing",
        file=sys.stderr,
    )
    sys.exit(2)
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import lifecycle, stats  # noqa: E402

BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Hard limits (seconds of wall clock) for a whole process.
DRIVER_DEADLINE = 170.0
FULL_DEADLINE = 900.0

SMOKE_SECONDS = 2.0


def load_catalog() -> Dict[str, object]:
    """``BENCHMARK.json``: the one place names, units and bounds live."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, setups: int) -> Dict[str, object]:
    """Set up ``setups`` times, measure once, reduce to named metrics.

    A speed sampler runs beside everything; each value is reported at
    machine speed 1.0 (see ``calibration``) with the raw one beside it.
    """
    from benchmarks.e2e import calibration, workloads

    _, factory, tail_blocks = workloads.WORKLOADS[name]
    setup_raw: List[float] = []
    with calibration.SpeedSampler() as sampler:
        for _ in range(setups - 1):
            with factory(seed) as rehearsal:
                setup_raw.append(rehearsal.setup_s)
        with factory(seed) as workload:
            setup_raw.append(workload.setup_s)
            measured = workload.run(seconds)
    metrics = workloads.reduce_measured(measured, tail_blocks, sampler.speed)
    # A set-up is too short to hold speed samples of its own; the whole
    # process's speed stands in for all of them.
    overall = sampler.speed(float("-inf"), float("inf"))
    metrics["setup_s"] = {
        **stats.summary([seconds_ * overall for seconds_ in setup_raw]),
        "raw": setup_raw, "unit": "s",
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "notes": measured.notes,
        "broken": measured.broken,
        "machine_speed": overall,
        "metrics": metrics,
    }


def failed_ops(outcome: Dict[str, object]) -> int:
    """Failed ops of a run; a broken invariant (or a leak) voids them all."""
    return int(outcome["attempted"] if outcome["broken"] else outcome["failed"])


def result_line(outcome: Dict[str, object]) -> str:
    """The driver's one-line result object."""
    return json.dumps({
        "correct": failed_ops(outcome) == 0,
        "attempted": int(outcome["attempted"]),
        "failed": failed_ops(outcome),
        "metrics": {
            name: {"value": float(outcome["values"][name]), "unit": unit}
            for name, unit in outcome["units"].items()
        },
    })


def machine_description() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "note": "CPU only; loopback TCP and a UNIX socket stand in for the "
                "fabric, so machine.* is this box's roofline, not a link's",
    }


def driver_mode(args: argparse.Namespace, catalog: Dict[str, object]) -> Dict[str, object]:
    """One run in the driver's form; returns the parts of its result line."""
    if args.trace:
        from benchmarks.e2e import layers

        units = {m["name"]: m["unit"] for m in catalog["per_layer"]}
        outcome = layers.traced_pass(args.seed, args.seconds, smoke=args.smoke)
        values = outcome["values"]
        missing = sorted(set(units) - set(values))
        if missing:
            lifecycle.fail(f"traced pass did not produce {missing}")
    else:
        units = {m["name"]: m["unit"] for m in catalog["end_to_end"]}
        outcome = run_workload(args.workload, args.seed, args.seconds, args.setups)
        values = {k: v["median"] for k, v in outcome["metrics"].items()}
    return {
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "notes": outcome["notes"],
        "broken": list(outcome["broken"]),
        "values": values,
        "units": units,
    }


def full_mode(args: argparse.Namespace, catalog: Dict[str, object]) -> Dict[str, object]:
    """All workloads, then the traced pass; prints a table, writes --out."""
    from benchmarks.e2e import layers

    bounds = {m["name"]: m["bound"] for m in catalog["end_to_end"]}
    runs = []
    for entry in catalog["workloads"]:
        result = run_workload(entry["name"], args.seed, args.seconds, args.setups)
        runs.append(result)
        failed = failed_ops(result)
        print(f"[{entry['name']}]  fail_ratio "
              f"{failed / max(1, result['attempted']):.6f} "
              f"({failed}/{result['attempted']})")
        for name, cell in result["metrics"].items():
            gate = f"bound {bounds[name]:.2f}" if name in bounds else "not gated"
            print(f"  {name:<16} {cell['median']:>12.4f} {cell['unit']:<5} "
                  f"n={cell['n']:<3} iqr/median={cell['rel_iqr']:.3f}  {gate}")
        for problem in result["notes"] + result["broken"]:
            print(f"  problem: {problem}")
    traced = layers.traced_pass(args.seed, args.seconds, smoke=args.smoke)
    print("[per-layer, traced pass]")
    layer_units = {m["name"]: m["unit"] for m in catalog["per_layer"]}
    for name, unit in layer_units.items():
        print(f"  {name:<44} {traced['values'][name]:>14.4f} {unit}")
    for problem in traced["notes"] + traced["broken"]:
        print(f"  problem: {problem}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "schema": "benchmarks/e2e result v1",
                "seed": args.seed,
                "seconds": args.seconds,
                "machine": machine_description(),
                "runs": runs,
                "per_layer": traced,
            }, handle, indent=1, default=float)
    everything = runs + [traced]
    return {
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(failed_ops(r) for r in everything),
        "notes": [], "broken": [],
    }


def main(argv: Optional[List[str]] = None) -> int:
    catalog = load_catalog()
    names = [w["name"] for w in catalog["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(catalog["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help=f"shrink every phase to ~{SMOKE_SECONDS:.0f} s (tests)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    args.setups = 1 if args.smoke else SETUP_REPEATS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    driver = args.workload is not None
    shm_before = lifecycle.shm_blocks()
    with lifecycle.Deadline(DRIVER_DEADLINE if driver else FULL_DEADLINE):
        outcome = (driver_mode if driver else full_mode)(args, catalog)
        outcome["broken"] += lifecycle.leaks(shm_before)
    for problem in outcome["notes"] + outcome["broken"]:
        print(f"problem: {problem}", file=sys.stderr)
    if driver:
        print(result_line(outcome))
    return 1 if failed_ops(outcome) else 0


if __name__ == "__main__":
    sys.exit(main())
