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
``rng.exponential(mean)``.  A ``simulate`` call leaves the generator where
one ``rng.exponential`` call per used draw would have left it, also when
it raises: it rewinds to the state it found and draws the used count again,
once per call whatever the number of parameters.  Callers may therefore
interleave their own draws with simulations on one generator.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..input_models import EstimationError, IndependentExponentials, require_int
from . import Testbed

# draws allowed in one regenerative cycle; with the arrival rate far above
# the service rate a full queue takes about (lambda/mu)^capacity events to
# empty, which no run could finish
MAX_CYCLE_DRAWS = 10**6

# standard exponentials drawn per numpy call
EXP_BLOCK = 256


@dataclass(frozen=True)
class QueueConfig:
    """Capacity of the queue, an integer >= 1 (not a bool); theta is
    (arrival rate, service rate)."""

    capacity: int = 10

    def __post_init__(self):
        object.__setattr__(self, "capacity", require_int("capacity", self.capacity, 1))


def mm1_steady_state_mean(lam, mu, capacity=10):
    """Closed-form stationary mean number in system of the truncated queue.

    The stationary law is pi_n proportional to rho^n on {0, ..., capacity};
    rates outside the support of the exponential inputs, or a capacity that
    ``QueueConfig`` rejects, raise ``ValueError``.
    """
    lam, mu = IndependentExponentials(2).check_theta([lam, mu]).tolist()
    capacity = QueueConfig(capacity).capacity
    rho = lam / mu
    n = np.arange(capacity + 1)
    w = rho ** n
    return float((n * w).sum() / w.sum())


def _cycles(rates, capacity, n_runs, rng):
    """Simulate ``n_runs`` regenerative cycles at each (arrival rate,
    service rate) pair of ``rates``, pair after pair; returns one flat list
    of (Y, A, interarrival count, service count, interarrival sum, service
    sum) per cycle, the cycles of the first pair first.

    Each draw is a standard exponential times the mean of its kind, which
    is bit for bit ``rng.exponential(mean)``.  Standard exponentials are
    read in blocks of ``EXP_BLOCK``, one stream for all pairs; on return,
    also by an error, the generator is put back to its state on entry and
    the draws the cycles used are drawn again, so it is left just after
    the last draw used.  That is where one call per pair would leave it,
    also when a cycle of pair j exceeds ``MAX_CYCLE_DRAWS``: the error
    names pair j's rates, and the draws of that cycle count as used.

    A cycle is one busy period and the arrival that closes it, so no sum is
    kept: each arrival time is the previous one plus its interarrival draw,
    which makes the closing arrival time (A) the interarrival sum, and each
    departure time is the previous departure plus its service draw, which
    makes the last departure the service sum, both added in draw order.  A
    customer's departure time is computed as it arrives and queued.  When
    the second arrival comes no earlier than the first departure, the cycle
    holds one customer and is (S, I, 1, 1, I, S) for its service draw S and
    interarrival draw I: the event loop would add ``1 * (S - 0.0)`` and then
    ``0 * (I - S)`` to an area of 0.0, which is S.
    """
    inf = math.inf
    state = rng.bit_generator.state  # rewound to on exit
    draw = chain.from_iterable(
        iter(lambda: rng.standard_exponential(EXP_BLOCK).tolist(), None)).__next__
    out = []
    used = ia_count = sv_count = 0  # draws of the finished cycles, of this one
    try:
        for lam, mu in rates:
            ia_scale = 1.0 / lam
            sv_scale = 1.0 / mu
            for _ in range(n_runs):
                used += ia_count + sv_count
                # cycle opens with a customer arriving to the empty system at t = 0
                last = sv_scale * draw()  # departure time of the last customer in system
                arr_next = ia_scale * draw()
                ia_count = sv_count = 1
                if not arr_next < last:
                    out += (last, arr_next, 1, 1, arr_next, last)
                    continue
                n_sys = 1
                dep_next = last
                pending = deque()  # departure times of the customers behind the one in service
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
                        arr_next = t_prev + ia_scale * draw()
                        ia_count += 1
                        if n_sys < capacity:
                            last += sv_scale * draw()
                            sv_count += 1
                            pending.append(last)
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
                        dep_next = pending.popleft() if n_sys else inf
                out += (area, t_prev, ia_count, sv_count, t_prev, last)
    finally:
        rng.bit_generator.state = state
        rng.standard_exponential(used + ia_count + sv_count)
    return out


class Mm1Testbed(Testbed):
    """Steady-state mean number in system via regenerative cycles."""

    name = "mm1"

    def __init__(self, config=None):
        self.config = config or QueueConfig()
        self.input_model = IndependentExponentials(2)
        self.trace_model = self.input_model
        self.true_theta = np.array([0.5, 1.5])

    def _runs(self, theta, n_runs, rng):
        out = _cycles(theta.tolist(), self.config.capacity, n_runs, rng)
        out = np.array(out, dtype=float).reshape(len(theta) * n_runs, 6)
        return out[:, 0].copy(), out[:, 1].copy(), out[:, 2:4], out[:, 4:6]
