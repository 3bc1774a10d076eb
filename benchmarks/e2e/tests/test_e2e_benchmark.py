"""Tests of the benchmark itself (not part of the tier-1 ``testpaths``).

    python -m pytest benchmarks/e2e/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import compare, stats  # noqa: E402

CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _names(section: str) -> list:
    return [entry["name"] for entry in CATALOG[section]]


# -- the contract of BENCHMARK.json -----------------------------------------


def test_catalog_is_inside_the_contract_limits():
    assert set(CATALOG) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(CATALOG["workloads"]) <= 8
    assert 1 <= len(CATALOG["end_to_end"]) <= 16
    assert 1 <= len(CATALOG["per_layer"]) <= 128
    assert isinstance(CATALOG["run_seconds"], int) and 1 <= CATALOG["run_seconds"] <= 60
    every = _names("workloads") + _names("end_to_end") + _names("per_layer")
    assert len(every) == len(set(every)), "a name is used twice"
    for name in every:
        assert NAME.match(name), name
    for entry in CATALOG["end_to_end"] + CATALOG["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in CATALOG["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in CATALOG["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    setup = next(m for m in CATALOG["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CATALOG["end_to_end"])


def test_workload_registry_matches_the_catalog():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    from benchmarks.e2e import workloads

    assert list(workloads.WORKLOADS) == _names("workloads")
    for entry in CATALOG["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]][0]


# -- the percentile helper ---------------------------------------------------


@pytest.mark.parametrize("count, wanted, expected", [
    (1000, 99.0, 99.0),   # exactly ten beyond
    (999, 99.0, 100.0 * 989 / 999),
    (500, 99.0, 98.0),
    (10_000, 99.0, 99.0),
    (200, 95.0, 95.0),
    (15, 99.0, 50.0),     # nothing above the median is supported
])
def test_supported_percentile_leaves_ten_samples_beyond(count, wanted, expected):
    assert stats.supported_percentile(count, wanted) == pytest.approx(expected)


def test_percentile_returns_a_measured_sample_with_ten_beyond():
    samples = [float(i) for i in range(400)]
    value, used = stats.percentile(samples, 99.0)
    assert used == pytest.approx(97.5)
    assert value in samples
    assert sum(1 for s in samples if s > value) >= stats.MIN_BEYOND - 1
    value, used = stats.percentile([float(i) for i in range(2000)], 99.0)
    assert (value, used) == (1980.0, 99.0)


def test_equal_count_blocks_drop_the_remainder():
    blocks = stats.equal_count_blocks(103, 10)
    assert blocks[0] == (0, 10) and blocks[-1] == (90, 100)
    assert stats.equal_count_blocks(3, 10) == [(0, 1), (1, 2), (2, 3)]


# -- compare -------------------------------------------------------------------


def _result(ops: float, latency: float, failed: int = 0, jitter: float = 0.01) -> dict:
    def cell(value: float) -> dict:
        values = [value * (1 + jitter * (i - 2) / 2) for i in range(5)]
        return {"median": value, "values": values}

    metrics = {m["name"]: cell(1.0) for m in CATALOG["end_to_end"]}
    metrics["ops_per_s"] = cell(ops)
    metrics["lat_ms_p50"] = cell(latency)
    return {"runs": [{
        "workload": "serve_http", "attempted": 1000, "failed": failed,
        "metrics": metrics,
    }]}


def _verdicts(base: dict, change: dict) -> dict:
    rows, failures = compare.compare(base, change, CATALOG)
    return {row[0]: row[-1] for row in rows}, failures


def test_compare_within_better_worse():
    bound = next(m["bound"] for m in CATALOG["end_to_end"] if m["name"] == "ops_per_s")
    verdicts, failures = _verdicts(_result(1000, 2.0), _result(1000 * (1 + bound / 2), 2.0))
    assert verdicts["ops_per_s"] == "within" and not failures
    verdicts, failures = _verdicts(_result(1000, 2.0), _result(1000 * (1 + 2 * bound), 2.0))
    assert verdicts["ops_per_s"] == "better" and not failures
    verdicts, failures = _verdicts(_result(1000, 2.0), _result(1000 * (1 - 2 * bound), 2.0))
    assert verdicts["ops_per_s"] == "worse"
    assert failures == ["ops_per_s on serve_http is worse"]
    # lower-is-better metrics read the other way round
    verdicts, _ = _verdicts(_result(1000, 2.0), _result(1000, 2.0 * (1 + 2 * bound)))
    assert verdicts["lat_ms_p50"] == "worse"


def test_compare_reports_unresolved_when_spread_exceeds_the_bound():
    noisy = dict(jitter=0.6)
    verdicts, failures = _verdicts(_result(1000, 2.0, **noisy), _result(900, 2.0, **noisy))
    assert verdicts["ops_per_s"] == "unresolved" and not failures
    # ... unless every block of one side beats every block of the other
    verdicts, _ = _verdicts(_result(1000, 2.0, **noisy), _result(9000, 2.0, **noisy))
    assert verdicts["ops_per_s"] == "better"


def test_compare_fails_on_any_rise_of_fail_ratio():
    verdicts, failures = _verdicts(_result(1000, 2.0), _result(1000, 2.0, failed=1))
    assert verdicts["fail_ratio"] == "worse"
    assert failures == ["fail_ratio on serve_http rose to 0.001000"]


def test_setup_difference_under_the_absolute_floor_is_never_worse():
    assert compare.verdict([0.010] * 3, [0.040] * 3, 0.25, True, compare.SETUP_FLOOR_S) == "within"
    assert compare.verdict([1.0] * 3, [2.0] * 3, 0.25, True, compare.SETUP_FLOOR_S) == "worse"


# -- the command, in a child interpreter -------------------------------------


def _processes_in_session(session: int) -> list:
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == session:  # field 6 of stat: session id
            found.append(int(stat.parent.name))
    return found


def test_smoke_run_emits_every_catalogued_metric_and_leaves_nothing(tmp_path):
    out = tmp_path / "result.json"
    child = subprocess.Popen(
        RUN + ["--smoke", "--seed", "3", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = child.communicate(timeout=300)
    assert child.returncode == 0, stderr
    assert _processes_in_session(child.pid) == [], "a process outlived the run"
    assert not list((ROOT / ".bench_tmp").glob(f"{child.pid}-*"))

    result = json.loads(out.read_text())
    assert [run["workload"] for run in result["runs"]] == _names("workloads")
    for run in result["runs"]:
        # lat_ms_p99 is kept in the file (with its spread) though demoted
        assert set(run["metrics"]) == set(_names("end_to_end")) | {"lat_ms_p99"}
        assert run["failed"] == 0 and not run["broken"] and run["attempted"] >= 1
        for cell in run["metrics"].values():
            assert {"median", "n", "q1", "q3", "values", "unit"} <= set(cell)
    assert set(result["per_layer"]["values"]) == set(_names("per_layer"))
    for name in _names("end_to_end") + _names("per_layer"):
        assert name in stdout, f"{name} was not printed"


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_form_prints_one_result_object_last(trace, section):
    done = subprocess.run(
        RUN + ["--workload", "smb_mix_shm", "--seed", "5", "--seconds", "2",
               "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in CATALOG[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in CATALOG["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"),
        )
    done = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "e2e" / "run.py"),
         "--workload", "serve_http", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
