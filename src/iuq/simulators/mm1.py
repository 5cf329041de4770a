"""Regenerative simulation of an M/M/1 queue with finite capacity.

One run is a regenerative cycle delimited by arrivals to an empty system.
The run outputs are A = cycle length and Y = the integral of the number in
system over the cycle, so E[Y]/E[A] is the steady-state mean number in
system by the renewal reward theorem.

Arrivals that find the system at capacity are blocked: they consume an
interarrival draw but never a service draw, which keeps the input trace
equal to exactly the draws the run generated (the LR weights depend on
this).  The final interarrival draw, which lands on the empty system and
ends the cycle, belongs to the current cycle's trace.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..input_models import EstimationError, IndependentExponentials

# draws allowed in one regenerative cycle; with the arrival rate far above
# the service rate a full queue takes about (lambda/mu)^capacity events to
# empty, which no run could finish
MAX_CYCLE_DRAWS = 10**6


@dataclass(frozen=True)
class QueueConfig:
    """Capacity and the (arrival, service) coordinate layout of theta."""

    capacity: int = 10
    arrival_index: int = 0
    service_index: int = 1

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if {self.arrival_index, self.service_index} != {0, 1}:
            raise ValueError("theta must consist of an arrival and a service rate")


def mm1_steady_state_mean(lam, mu, capacity=10):
    """Closed-form stationary mean number in system of the truncated queue.

    The stationary law is pi_n proportional to rho^n on {0, ..., capacity}.
    """
    if lam <= 0 or mu <= 0:
        raise ValueError("rates must be positive")
    rho = lam / mu
    n = np.arange(capacity + 1)
    w = rho ** n
    return float((n * w).sum() / w.sum())


def _one_cycle(lam, mu, capacity, rng):
    """Simulate one regenerative cycle; returns outputs and trace tallies."""
    ia_scale = 1.0 / lam
    sv_scale = 1.0 / mu
    ia_count = sv_count = 0
    ia_sum = sv_sum = 0.0

    def draw_ia():
        nonlocal ia_count, ia_sum
        x = rng.exponential(ia_scale)
        ia_count += 1
        ia_sum += x
        return x

    def draw_sv():
        nonlocal sv_count, sv_sum
        x = rng.exponential(sv_scale)
        sv_count += 1
        sv_sum += x
        return x

    # cycle opens with a customer arriving to the empty system at t = 0
    n_sys = 1
    pending = deque()
    dep_next = draw_sv()
    arr_next = draw_ia()
    t_prev = 0.0
    area = 0.0
    while True:
        if arr_next < dep_next:
            area += n_sys * (arr_next - t_prev)
            t_prev = arr_next
            if n_sys == 0:
                # arrival to the empty system closes the cycle; its service
                # belongs to the next cycle
                cycle_len = arr_next
                break
            arr_next = t_prev + draw_ia()
            if n_sys < capacity:
                pending.append(draw_sv())
                n_sys += 1
            # else: blocked, no service draw
            if ia_count + sv_count > MAX_CYCLE_DRAWS:
                raise EstimationError(
                    f"M/M/1 cycle at arrival rate {lam!r}, service rate {mu!r} "
                    f"exceeded {MAX_CYCLE_DRAWS} draws"
                )
        else:
            area += n_sys * (dep_next - t_prev)
            t_prev = dep_next
            n_sys -= 1
            dep_next = t_prev + pending.popleft() if n_sys >= 1 else math.inf
    return area, cycle_len, ia_count, ia_sum, sv_count, sv_sum


class Mm1Testbed:
    """Steady-state mean number in system via regenerative cycles."""

    name = "mm1"

    def __init__(self, config=None):
        self.config = config or QueueConfig()
        self.input_model = IndependentExponentials(2)
        self.trace_model = self.input_model
        self.true_theta = np.array([0.5, 1.5])

    def lr_param(self, theta):
        return np.asarray(theta, dtype=float)

    def _rates(self, theta):
        theta = np.asarray(theta, dtype=float)
        if not self.input_model.in_support(theta):
            raise ValueError("arrival and service rates must be strictly positive")
        return float(theta[self.config.arrival_index]), float(theta[self.config.service_index])

    def simulate(self, theta, n_runs, rng, collect_stats=True):
        from . import SimBatch

        lam, mu = self._rates(theta)
        n_runs = int(n_runs)
        y = np.empty(n_runs)
        a = np.empty(n_runs)
        counts = np.empty((n_runs, 2)) if collect_stats else None
        sums = np.empty((n_runs, 2)) if collect_stats else None
        for j in range(n_runs):
            area, cyc, iac, ias, svc, svs = _one_cycle(lam, mu, self.config.capacity, rng)
            y[j] = area
            a[j] = cyc
            if collect_stats:
                counts[j, self.config.arrival_index] = iac
                counts[j, self.config.service_index] = svc
                sums[j, self.config.arrival_index] = ias
                sums[j, self.config.service_index] = svs
        return SimBatch(y=y, a=a, counts=counts, sums=sums)
