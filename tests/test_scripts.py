"""Smoke runs of the example scripts, so a script that still imports a removed
name or builds a config the guards reject fails the suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/run_prince_pauper.py"],
        ["scripts/multiworld_growth.py", "--max-k", "2", "--half-width", "4", "--spacing", "0.5"],
        ["scripts/ccr_sweep.py"],  # exits 1 when the defect stops decreasing
        ["scripts/report_audit.py"],
        # this checkout against itself: both sides' output bytes must agree
        ["scripts/ab_jobs.py", ".", ".", "--workload", "desk-batch", "--rounds", "2"],
    ],
)
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
