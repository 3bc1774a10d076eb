"""Compare two result files of ``run.py --out``: base, then change.

One row per (end-to-end metric, workload) with both medians, the ratio
change/base, the bound from ``BENCHMARK.json`` (the only place bounds
live) and a verdict::

    python3 benchmarks/e2e/compare.py BASE.json CHANGE.json

* ``better`` / ``worse`` — moved by more than the bound;
* ``within`` — did not;
* ``unresolved`` — the per-block spread of either side is wider than the
  bound, so a move of that size cannot be told from noise (it is still
  called ``better``/``worse`` when every block of one side beats every
  block of the other).

``setup_s`` only counts as worse beyond an absolute floor of 0.05 s.
Exit status is non-zero on any ``worse`` and on any rise of a workload's
``fail_ratio`` (failed / attempted; its bound is zero).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import stats  # noqa: E402

#: ``setup_s`` differences below this many seconds are never a regression.
SETUP_FLOOR_S = 0.05

Row = Tuple[str, str, float, float, float, float, str]


def _beats_all(xs: Sequence[float], ys: Sequence[float], lower_is_better: bool) -> bool:
    """Every value of ``xs`` is better than every value of ``ys``."""
    return max(xs) < min(ys) if lower_is_better else min(xs) > max(ys)


def verdict(
    base: Sequence[float], change: Sequence[float], bound: float,
    lower_is_better: bool, absolute_floor: float = 0.0,
) -> str:
    """Classify ``change`` against ``base`` (per-block or per-repeat values)."""
    a, b = stats.summary(base), stats.summary(change)
    if abs(b["median"] - a["median"]) <= absolute_floor:
        return "within"
    if max(a["rel_iqr"], b["rel_iqr"]) > bound:
        if _beats_all(change, base, lower_is_better):
            return "better"
        if _beats_all(base, change, lower_is_better):
            return "worse"
        return "unresolved"
    worse_by = (b["median"] - a["median"]) / a["median"]
    if not lower_is_better:
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "within"


def compare(base: Dict[str, object], change: Dict[str, object], catalog: Dict[str, object]) -> Tuple[List[Row], List[str]]:
    """Rows for every cell both files have, and the reasons to fail."""
    rows: List[Row] = []
    failures: List[str] = []
    change_runs = {run["workload"]: run for run in change["runs"]}
    for base_run in base["runs"]:
        workload = base_run["workload"]
        change_run = change_runs.get(workload)
        if change_run is None:
            failures.append(f"{workload}: missing from the change's results")
            continue
        for metric in catalog["end_to_end"]:
            name = metric["name"]
            a, b = base_run["metrics"][name], change_run["metrics"][name]
            outcome = verdict(
                a["values"], b["values"], metric["bound"],
                metric["better"] == "lower",
                SETUP_FLOOR_S if name == "setup_s" else 0.0,
            )
            rows.append((
                name, workload, a["median"], b["median"],
                b["median"] / a["median"], metric["bound"], outcome,
            ))
            if outcome == "worse":
                failures.append(f"{name} on {workload} is worse")
        ratios = [
            run["failed"] / max(1, run["attempted"]) for run in (base_run, change_run)
        ]
        rose = ratios[1] > ratios[0]
        rows.append((
            "fail_ratio", workload, ratios[0], ratios[1],
            ratios[1] / ratios[0] if ratios[0] else float(ratios[1] > 0),
            0.0, "worse" if rose else "within",
        ))
        if rose:
            failures.append(f"fail_ratio on {workload} rose to {ratios[1]:.6f}")
    return rows, failures


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv or None)
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, failures = compare(
        json.loads(args.base.read_text()), json.loads(args.change.read_text()), catalog
    )
    print(f"{'metric':<16}{'workload':<20}{'base':>12}{'change':>12}"
          f"{'change/base':>13}{'bound':>7}  verdict")
    for name, workload, a, b, ratio, bound, outcome in rows:
        print(f"{name:<16}{workload:<20}{a:>12.4f}{b:>12.4f}"
              f"{ratio:>13.3f}{bound:>7.2f}  {outcome}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
