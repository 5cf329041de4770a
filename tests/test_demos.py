"""The demo scripts run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script", ["reweighting_basics.py", "design_toolkit.py", "network_completion_time.py",
               "portfolio_risk.py"]
)
def test_demo_exits_cleanly(script):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
