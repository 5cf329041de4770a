import os
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env(**extra):
    """``os.environ`` plus ``extra``, with this checkout's ``src`` first on
    ``PYTHONPATH``, so that a child interpreter imports ``iuq`` from here."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
