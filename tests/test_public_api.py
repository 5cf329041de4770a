"""README's API paragraph and the ``iuq`` exports name the same things."""

import inspect
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
REMOVED = ("InputTrace", "SimRun", "knn_query", "san_run", "mm1_cycle", "erm_run",
           "BootstrapSet", "basic_ci", "ConfigurationError")


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
    for module in ("iuq", "iuq.design", "iuq.simulators", "iuq.estimators",
                   "iuq.input_models"):
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


def test_testbeds_inherit_the_one_simulate():
    from iuq.simulators import _TESTBED_CLASSES, Testbed

    for cls in _TESTBED_CLASSES.values():
        assert issubclass(cls, Testbed), cls
        # a patch undone by setattr may leave the base function itself behind
        assert cls.__dict__.get("simulate", Testbed.simulate) is Testbed.simulate, cls


@pytest.mark.parametrize(
    "theta, n_runs, message",
    [([1.0], 3, r"shape \(2,\)"), ([1.0, -1.0], 3, "outside the support"),
     ([1.0, 2.0], 2.5, "n_runs must be an integer >= 0")],
    ids=["theta-shape", "theta-support", "n_runs-float"],
)
def test_base_checks_arguments_before_any_draw(theta, n_runs, message):
    import numpy as np

    from iuq import IndependentExponentials
    from iuq.simulators import Testbed

    class OnlyRuns(Testbed):
        input_model = IndependentExponentials(2)

        def _runs(self, theta, n_runs, rng):
            x = rng.exponential(1.0 / theta, size=(n_runs, 2))
            return x[:, 0], x[:, 1], np.ones_like(x), x

    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        OnlyRuns().simulate(theta, n_runs, rng)
    assert rng.bit_generator.state == before
    batch = OnlyRuns().simulate([1.0, 2.0], 3, rng)
    assert batch.sums.shape == (3, 2) and batch.y.shape == (3,)


def test_pipelines_share_one_contract():
    import dataclasses

    from iuq import QueueConfig, percentile_ci, run_iuq_knn_klr, run_iuq_std

    for pipeline in (run_iuq_knn_klr, run_iuq_std):
        assert list(inspect.signature(pipeline).parameters) == [
            "testbed", "theta_hat", "cfg", "rngs"
        ]
    assert [f.name for f in dataclasses.fields(QueueConfig)] == ["capacity"]
    assert list(inspect.signature(percentile_ci).parameters) == ["estimates", "alpha"]


def test_cross_validation_takes_only_the_data():
    from iuq import cv_select_k, make_folds

    assert list(inspect.signature(cv_select_k).parameters) == ["sim_params", "run_means"]
    assert list(inspect.signature(make_folds).parameters) == ["n"]


def test_results_carry_only_what_callers_read():
    import dataclasses

    from iuq import CIResult, RatioEstimate, klr_fallback_k1, klr_ratio

    assert [f.name for f in dataclasses.fields(RatioEstimate)] == ["value", "clamped_weights"]
    assert [f.name for f in dataclasses.fields(CIResult)] == ["lower", "upper"]
    assert list(inspect.signature(klr_ratio).parameters) == ["table", "theta_tilde", "k_y",
                                                             "k_a"]
    assert list(inspect.signature(klr_fallback_k1).parameters) == ["table", "theta_tilde"]
