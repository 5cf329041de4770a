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

Draws come from the generator in blocks of standard exponentials, each
scaled by the mean of its kind as it is consumed; this is bit for bit
``rng.exponential(mean)``.  No block outlives one ``simulate`` call: before
the call returns, or raises, it gives the unread tail of its last block
back, so the generator ends exactly where one ``rng.exponential`` call per
draw would have left it.  Callers may therefore interleave their own draws
with simulations on one generator.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..input_models import EstimationError, IndependentExponentials

# draws allowed in one regenerative cycle; with the arrival rate far above
# the service rate a full queue takes about (lambda/mu)^capacity events to
# empty, which no run could finish
MAX_CYCLE_DRAWS = 10**6

# standard exponentials drawn per numpy call; the unread tail of the last
# block is given back to the generator when a simulation returns
EXP_BLOCK = 256


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


def _cycles(lam, mu, capacity, n_runs, rng):
    """Simulate ``n_runs`` regenerative cycles; returns one flat list of
    (Y, A, interarrival count, service count, interarrival sum, service sum)
    per cycle.

    Each draw is a standard exponential times the mean of its kind, which
    is bit for bit ``rng.exponential(mean)``.  Standard exponentials are
    read in blocks of ``EXP_BLOCK``; on return, also by an error, the
    generator is put back to the state saved before the last block and the
    part of that block the cycles used is drawn again, so the generator is
    left just after the last draw used.
    """
    ia_scale = 1.0 / lam
    sv_scale = 1.0 / mu
    inf = math.inf
    state = None  # generator state before the last block
    blocks = 0

    def block():
        nonlocal state, blocks
        state = rng.bit_generator.state
        blocks += 1
        return rng.standard_exponential(EXP_BLOCK).tolist()

    draw = chain.from_iterable(iter(block, None)).__next__
    out = []
    used = ia_count = sv_count = 0  # draws of the finished cycles, of this one
    try:
        for _ in range(n_runs):
            used += ia_count + sv_count
            # cycle opens with a customer arriving to the empty system at t = 0
            n_sys = 1
            pending = deque()
            dep_next = sv_sum = sv_scale * draw()
            arr_next = ia_sum = ia_scale * draw()
            ia_count = sv_count = 1
            t_prev = 0.0
            area = 0.0
            while True:
                if arr_next < dep_next:
                    area += n_sys * (arr_next - t_prev)
                    t_prev = arr_next
                    if n_sys == 0:
                        # arrival to the empty system closes the cycle; its
                        # service belongs to the next cycle
                        break
                    x = ia_scale * draw()
                    ia_count += 1
                    ia_sum += x
                    arr_next = t_prev + x
                    if n_sys < capacity:
                        x = sv_scale * draw()
                        sv_count += 1
                        sv_sum += x
                        pending.append(x)
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
                    dep_next = t_prev + pending.popleft() if n_sys >= 1 else inf
            out += (area, t_prev, ia_count, sv_count, ia_sum, sv_sum)
    finally:
        if blocks:
            rng.bit_generator.state = state
            rng.standard_exponential(used + ia_count + sv_count - (blocks - 1) * EXP_BLOCK)
    return out


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
        out = _cycles(lam, mu, self.config.capacity, n_runs, rng)
        out = np.array(out, dtype=float).reshape(n_runs, 6)
        counts = sums = None
        if collect_stats:
            order = [self.config.arrival_index, self.config.service_index]
            counts = np.empty((n_runs, 2))
            sums = np.empty((n_runs, 2))
            counts[:, order] = out[:, 2:4]
            sums[:, order] = out[:, 4:6]
        return SimBatch(y=out[:, 0].copy(), a=out[:, 1].copy(), counts=counts, sums=sums)
