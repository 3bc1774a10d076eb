"""The CI ``lint`` job's grep steps, run locally.

Every step of the ``lint`` job in ``.github/workflows/ci.yml`` whose
``run`` greps the tree is one case here, named after the step, and runs
exactly as CI runs it: ``bash -e -c`` from the repository root.  A change
that lets a retired name grow back fails here before it fails in CI.
"""

import pathlib
import subprocess

import pytest
import yaml

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

GREP_STEPS = [
    step
    for step in yaml.safe_load(WORKFLOW.read_text())["jobs"]["lint"]["steps"]
    if "grep" in step.get("run", "")
]


@pytest.mark.parametrize(
    "step", GREP_STEPS, ids=[step["name"] for step in GREP_STEPS]
)
def test_lint_step(step):
    result = subprocess.run(
        ["bash", "-e", "-c", step["run"]],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, (
        f"lint step {step['name']!r} failed:\n{result.stdout}{result.stderr}"
    )
