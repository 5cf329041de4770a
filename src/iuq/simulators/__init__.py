"""Simulation testbeds mapping a parameter vector and a random stream to
runs' outputs (Y, A) plus the sufficient statistics of the raw inputs each
run consumed.

Every testbed exposes the same surface:

``input_model``   parametric family of the observable input data (MLE target)
``trace_model``   family of the raw draws consumed by a run (LR weights)
``true_theta``    the data-generating parameter of the experiment
``lr_param``      map from raw parameters (..., d) to trace-model parameters
``simulate``      runs at one parameter, returned as a ``SimBatch``

``simulate(theta, n_runs, rng)`` takes from ``rng`` exactly the draws its
runs consume: when it returns, or raises, the generator stands where
drawing those inputs one at a time would have left it.  A testbed may read
ahead in blocks, but it gives back what it did not use before returning,
so callers can interleave their own draws with simulations on one
generator and get the same streams.
"""

from dataclasses import dataclass

import numpy as np

from ..input_models import EstimationError
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

TESTBEDS = ("san", "mm1", "erm")


@dataclass(frozen=True)
class SimBatch:
    """Columnar view of many runs: outputs plus per-run trace statistics.

    ``counts``/``sums`` are the (runs, d) sufficient statistics of each
    run's input trace under the testbed's trace model.
    """

    y: np.ndarray
    a: np.ndarray
    counts: np.ndarray
    sums: np.ndarray


def make_testbed(name, san_topology=None):
    """Build a testbed by short name: 'san', 'mm1', or 'erm'."""
    if name == "san":
        cfg = SanConfig.from_edge_list(san_topology) if san_topology else SanConfig.default()
        return SanTestbed(cfg)
    if name == "mm1":
        return Mm1Testbed(QueueConfig())
    if name == "erm":
        return ErmTestbed(ErmConfig.default())
    raise ValueError(f"unknown testbed {name!r}; expected one of {TESTBEDS}")


@dataclass(frozen=True)
class OracleResult:
    eta: float
    se: float
    budget: int


def true_eta_oracle(testbed, theta, budget, rng, chunk=200_000):
    """Brute-force estimate of eta(theta) = E[Y]/E[A] from independent runs.

    Used only as a reference oracle; the standard error is the delta-method
    SE of the ratio of means.
    """
    budget = int(budget)
    if budget < 10_000:
        raise ValueError("oracle budget must be at least 10^4 runs")
    sum_y = sum_a = 0.0
    ys = []
    as_ = []
    done = 0
    while done < budget:
        b = min(chunk, budget - done)
        batch = testbed.simulate(theta, b, rng, collect_stats=False)
        ys.append(batch.y)
        as_.append(batch.a)
        sum_y += batch.y.sum()
        sum_a += batch.a.sum()
        done += b
    if sum_a == 0.0:
        raise EstimationError("oracle failure: denominator outputs are all zero")
    eta = sum_y / sum_a
    g2 = 0.0
    for y, a in zip(ys, as_):
        g2 += np.sum((y - eta * a) ** 2)
    se = float(np.sqrt(g2 / budget) / (sum_a / budget) / np.sqrt(budget))
    return OracleResult(float(eta), se, budget)
