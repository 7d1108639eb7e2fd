"""The CI workflow's shell steps parse: every ``run:`` block passes
``bash -n``, so a syntax slip fails here rather than on a runner."""

import subprocess
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "tier1.yml"


def _run_steps():
    # YAML reads the bare `on:` key as True; only `jobs` is read here
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    return [
        pytest.param(step["run"], id=f"{job}-{step.get('name', index)}")
        for job, spec in jobs.items()
        for index, step in enumerate(spec["steps"])
        if "run" in step
    ]


@pytest.mark.parametrize("script", _run_steps())
def test_run_step_parses(script):
    result = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
