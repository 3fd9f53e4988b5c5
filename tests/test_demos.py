"""Every demo runs to the end without a warning or an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_clean(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
