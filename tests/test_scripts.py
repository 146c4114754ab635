"""The scripts run from a checkout without an install or PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/convergence_study.py", "--levels", "1"],
        ["scripts/run_benchmark.py", "--size", "17"],
    ],
)
def test_script_runs_from_checkout(argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
