"""README's API paragraph and the ``iuq`` exports name the same things."""

import inspect
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
REMOVED = ("InputTrace", "SimRun", "knn_query", "san_run", "mm1_cycle", "erm_run")


def api_names():
    """Bare backticked identifiers of the 'Lower-level pieces' paragraph.

    Call signatures such as `simulate(theta, n_runs, rng)` describe methods
    and are not collected.
    """
    text = README.read_text()
    start = text.index("Lower-level pieces")
    paragraph = text[start : text.index("\n\n", start)]
    return re.findall(r"`([A-Za-z_]\w*)`", paragraph)


def test_readme_api_names_import_and_removed_names_do_not():
    names = api_names()
    assert len(names) >= 20
    for name in names:
        exec(f"from iuq import {name}", {})
    for module in ("iuq", "iuq.simulators", "iuq.estimators", "iuq.input_models"):
        for name in REMOVED:
            with pytest.raises(ImportError):
                exec(f"from {module} import {name}", {})


def test_every_simulation_carries_trace_statistics():
    from iuq import ErmTestbed, ExponentialFamily, Mm1Testbed, SanTestbed

    for testbed in (SanTestbed, Mm1Testbed, ErmTestbed):
        assert list(inspect.signature(testbed.simulate).parameters) == [
            "self", "theta", "n_runs", "rng"
        ]
    assert not hasattr(ExponentialFamily, "in_support")
