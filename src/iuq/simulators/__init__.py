"""Simulation testbeds mapping a parameter vector and a random stream to
runs' outputs (Y, A) plus the sufficient statistics of the raw inputs each
run consumed.  Every testbed is a ``Testbed``.
"""

import os
from dataclasses import dataclass

import numpy as np

from ..input_models import EstimationError, require_int


@dataclass(frozen=True)
class SimBatch:
    """Columnar view of many runs: outputs plus per-run trace statistics.

    ``y`` and ``a`` hold one entry per run, ``counts``/``sums`` the (runs,
    d) sufficient statistics of each run's input trace under the testbed's
    trace model.  A batch simulated at n parameters holds their runs in
    parameter-major order: with r runs per parameter, run i * r + s is run
    s of parameter i.  Every batch carries the statistics; ``counts`` may
    be a read-only broadcast view when every run consumes the same number
    of draws.
    """

    y: np.ndarray
    a: np.ndarray
    counts: np.ndarray
    sums: np.ndarray


class Testbed:
    """Base of the testbeds, which set ``name`` (for ``make_testbed``),
    ``input_model`` (family of the observable input data, the MLE target),
    ``trace_model`` (family of each run's input trace, for the LR weights;
    it takes the testbed's own parameter, so a run's LR goes from its
    simulation parameter to the target itself) and ``true_theta`` (the
    data-generating parameter), and implement ``_runs(theta, n_runs,
    rng)``, which returns the runs' ``(y, a, counts, sums)`` for an (n, d)
    ``theta``, ``n_runs`` runs per row in parameter-major order.

    ``simulate(theta, n_runs, rng)`` takes one (d,) parameter or n of them
    as an (n, d) array and returns one ``SimBatch`` of n * ``n_runs`` runs.
    It first checks the whole of ``theta`` with
    ``input_model.check_thetas``: a parameter array of the wrong shape, or
    a row outside the family's support, raises ``ValueError`` naming the
    shape or the first bad row, before any draw, as does an ``n_runs``
    that is not an integer >= 0 (bools excluded).  A (d,) parameter keeps
    the messages of ``check_theta`` and is simulated as the one row of a
    (1, d) array.  ``_runs`` then takes from ``rng`` exactly the draws its
    runs consume, row after row: when it returns, or raises, the generator
    stands where drawing those inputs one at a time would have left it, so
    one call at n rows gives the bits, and leaves the generator in the
    state, of n calls at one row each.  A testbed may read ahead in
    blocks, but it gives back what it did not use before returning, so
    callers can interleave their own draws with simulations on one
    generator and get the same streams.
    """

    def simulate(self, theta, n_runs, rng):
        theta = self.input_model.check_thetas(theta)
        n_runs = require_int("n_runs", n_runs, 0)
        return SimBatch(*self._runs(theta, n_runs, rng))


# the testbed modules subclass Testbed, so they are imported after it
from .san import SanConfig, SanTestbed
from .mm1 import QueueConfig, Mm1Testbed, mm1_steady_state_mean
from .erm import ErmConfig, ErmTestbed, bs_price

__all__ = [
    "SimBatch",
    "Testbed",
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
    SE of the ratio of means.  ``theta`` is one (d,) parameter: any other
    shape, an (n, d) array included, raises ``ValueError`` naming it, since
    runs at n parameters would pool into one ratio.  Runs are simulated
    ``ORACLE_CHUNK`` at a time and only their sums and sums of products are
    kept, so memory stays at one chunk for any budget: one 200000-run
    ``mm1`` call raises a fresh process's peak resident set by about 15 MB
    (x86-64 Linux, Python 3.11, numpy 2.4).
    """
    budget = require_int("budget", budget, 10_000)
    theta = testbed.input_model.check_theta(theta)
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
