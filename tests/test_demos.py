"""The demo scripts run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]


# estimator_comparison.py is left out: its six arms of 50 mm1 macros take
# about 8 s, and queue_steady_state.py already runs the mm1 pipeline end
# to end
@pytest.mark.parametrize(
    "script", ["reweighting_basics.py", "design_toolkit.py", "network_completion_time.py",
               "portfolio_risk.py", "queue_steady_state.py"]
)
def test_demo_exits_cleanly(script):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
