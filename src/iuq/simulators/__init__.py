"""Simulation testbeds mapping a parameter vector and a random stream to
runs' outputs (Y, A) plus the sufficient statistics of the raw inputs each
run consumed.

Every testbed exposes the same surface:

``input_model``   parametric family of the observable input data (MLE target)
``trace_model``   family of the raw draws consumed by a run (LR weights)
``true_theta``    the data-generating parameter of the experiment
``lr_param``      map from raw parameters (..., d) to trace-model parameters
``simulate``      runs at one parameter, returned as a ``SimBatch``

``simulate(theta, n_runs, rng)`` first checks ``theta`` with
``input_model.check_theta``: a parameter of the wrong shape or outside the
family's support raises ``ValueError``, naming the shape or the support,
before any draw, as does an ``n_runs`` that is not an integer >= 0 (bools
excluded).  It then takes from ``rng`` exactly the draws its runs
consume: when it returns, or raises, the generator stands where drawing
those inputs one at a time would have left it.  A testbed may read ahead in
blocks, but it gives back what it did not use before returning, so callers
can interleave their own draws with simulations on one generator and get
the same streams.
"""

import os
from dataclasses import dataclass

import numpy as np

from ..input_models import EstimationError, require_int
from .san import SanConfig, SanTestbed
from .mm1 import QueueConfig, Mm1Testbed, mm1_steady_state_mean
from .erm import ErmConfig, ErmTestbed, bs_price

__all__ = [
    "SimBatch",
    "SanConfig",
    "SanTestbed",
    "QueueConfig",
    "Mm1Testbed",
    "mm1_steady_state_mean",
    "ErmConfig",
    "ErmTestbed",
    "bs_price",
    "make_testbed",
    "OracleResult",
    "true_eta_oracle",
]

_TESTBED_CLASSES = {cls.name: cls for cls in (SanTestbed, Mm1Testbed, ErmTestbed)}
TESTBEDS = tuple(_TESTBED_CLASSES)

# runs simulated per batch by ``true_eta_oracle``; bounds its batch memory
ORACLE_CHUNK = 200_000


@dataclass(frozen=True)
class SimBatch:
    """Columnar view of many runs: outputs plus per-run trace statistics.

    ``counts``/``sums`` are the (runs, d) sufficient statistics of each
    run's input trace under the testbed's trace model.  Every batch carries
    them; ``counts`` may be a read-only broadcast view when every run
    consumes the same number of draws.
    """

    y: np.ndarray
    a: np.ndarray
    counts: np.ndarray
    sums: np.ndarray


def make_testbed(name, san_topology=None):
    """Build a testbed by short name: 'san', 'mm1', or 'erm'.

    A ``san_topology`` edge-list file that is missing, malformed or cyclic,
    or given for another model, raises a ``ValueError`` naming the path.
    """
    if san_topology is not None:
        if name != "san":
            raise ValueError(f"san_topology {san_topology!r} applies to model 'san' only")
        try:
            return SanTestbed(SanConfig.from_edge_list(os.fspath(san_topology)))
        except (OSError, TypeError, ValueError) as exc:
            raise ValueError(f"san_topology {san_topology!r}: {exc}") from exc
    if name not in _TESTBED_CLASSES:
        raise ValueError(f"unknown testbed {name!r}; expected one of {TESTBEDS}")
    return _TESTBED_CLASSES[name]()


@dataclass(frozen=True)
class OracleResult:
    eta: float
    se: float
    budget: int


def true_eta_oracle(testbed, theta, budget, rng):
    """Brute-force estimate of eta(theta) = E[Y]/E[A] from independent runs.

    Used only as a reference oracle; the standard error is the delta-method
    SE of the ratio of means.  Runs are simulated ``ORACLE_CHUNK`` at a time
    and only their sums and sums of products are kept, so memory stays at
    one chunk for any budget.
    """
    budget = require_int("budget", budget, 10_000)
    sum_y = sum_a = s_yy = s_ya = s_aa = 0.0
    done = 0
    while done < budget:
        b = min(ORACLE_CHUNK, budget - done)
        batch = testbed.simulate(theta, b, rng)
        y, a = batch.y, batch.a
        sum_y += y.sum()
        sum_a += a.sum()
        s_yy += y @ y
        s_ya += y @ a
        s_aa += a @ a
        done += b
    if sum_a == 0.0:
        raise EstimationError("oracle failure: denominator outputs are all zero")
    eta = sum_y / sum_a
    # sum of (y - eta a)^2, expanded; rounding can push a zero sum below 0
    g2 = max(s_yy - 2.0 * eta * s_ya + eta * eta * s_aa, 0.0)
    se = float(np.sqrt(g2 / budget) / (sum_a / budget) / np.sqrt(budget))
    return OracleResult(float(eta), se, budget)
