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

At light load most cycles hold one customer: a service draw S, then an
interarrival draw I no shorter than it, which make the run (Y, A) = (S, I).
The event loop decides every cycle but stores only the others, the busy
cycles, as Python numbers.  A busy cycle takes its second arrival before
its loop, queues departure times in a list read in FIFO order, and ends at
the departure that empties the system.  The rewind's draws are the stream
the loop read, so ``Mm1Testbed._runs`` rebuilds the one-customer cycles
from them in one vector pass and writes the busy cycles over them.
"""

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
    ``QueueConfig`` rejects, raise ``ValueError``.  For rho > 1 the mean is
    capacity less that of the mirrored law, proportional to (1/rho)^n, whose
    powers cannot overflow.
    """
    lam, mu = IndependentExponentials(2).check_theta([lam, mu]).tolist()
    capacity = QueueConfig(capacity).capacity
    rho = lam / mu
    if rho > 1.0:
        return capacity - mm1_steady_state_mean(mu, lam, capacity)
    n = np.arange(capacity + 1)
    w = rho ** n
    return float((n * w).sum() / w.sum())


def _runaway(lam, mu):
    return EstimationError(f"M/M/1 cycle at arrival rate {lam!r}, service rate {mu!r} "
                           f"exceeded {MAX_CYCLE_DRAWS} draws")


def _cycles(rates, capacity, n_runs, rng):
    """Simulate ``n_runs`` regenerative cycles at each (arrival rate,
    service rate) pair of ``rates``, pair after pair, numbering the cycles
    0, 1, ... in that order.  Returns ``(busy, draws)``: ``busy`` is an
    array with one row (cycle number, Y, interarrival count, service count,
    interarrival sum, service sum) per cycle of two or more customers, and
    ``draws`` the array of the standard exponentials the cycles used, in
    stream order.  The busy rows are kept as Python numbers while the loop
    runs; the cycles of one customer keep nothing.

    Each draw is a standard exponential times the mean of its kind, which
    is bit for bit ``rng.exponential(mean)``.  Standard exponentials are
    read in blocks of ``EXP_BLOCK``, one stream for all pairs.  On return,
    also by an error, the generator is put back to its state on entry and
    the draws the cycles used are drawn again, into ``draws``: two per
    cycle started, plus the draws beyond two of each busy cycle and, when
    a cycle of pair j exceeds ``MAX_CYCLE_DRAWS``, of that partial cycle.
    This leaves the generator just after the last draw used, where one
    call per pair would leave it; the error names pair j's rates.

    A cycle is one busy period and the arrival that closes it, so no sum is
    kept: each arrival time is the previous one plus its interarrival draw,
    which makes the closing arrival time (A) the interarrival sum, and each
    departure time is the previous departure plus its service draw, which
    makes the last departure the service sum, both added in draw order.  A
    cycle opens with its service and interarrival draws; when the second
    arrival comes no earlier than the first departure, the cycle holds one
    customer.  Otherwise the second arrival is taken before the event loop,
    departure times go to a list read in FIFO order by an index, and the
    departure that empties the system closes the cycle.
    """
    state = rng.bit_generator.state  # rewound to on exit
    draw = chain.from_iterable(
        iter(lambda: rng.standard_exponential(EXP_BLOCK).tolist(), None)).__next__
    busy = []
    i = -1  # number of the last cycle started
    partial = 0  # draws beyond two of a cycle cut off by the draw cap
    first = 0  # number of the pair's first cycle
    try:
        for lam, mu in rates:
            ia_scale = 1.0 / lam
            sv_scale = 1.0 / mu
            for i in range(first, first + n_runs):
                # cycle opens with a customer arriving to the empty system at t = 0
                last = sv_scale * draw()  # departure time of the last customer in system
                arr_next = ia_scale * draw()
                if not arr_next < last:
                    continue
                dep_next = last
                t_prev = area = arr_next  # second arrival, in the first service: 1 * (t - 0.0)
                arr_next = t_prev + ia_scale * draw()
                ia_count = n_sys = sv_count = 2
                if capacity > 1:
                    last += sv_scale * draw()
                    pending = [last]  # departure times behind the one in service, FIFO
                else:  # blocked, no service draw
                    pending = []
                    n_sys = sv_count = 1
                if ia_count + sv_count > MAX_CYCLE_DRAWS:
                    partial = ia_count + sv_count - 2
                    raise _runaway(lam, mu)
                nd = 0  # index of the next departure time in pending
                while True:
                    if arr_next < dep_next:
                        area += n_sys * (arr_next - t_prev)
                        t_prev = arr_next
                        arr_next = t_prev + ia_scale * draw()
                        ia_count += 1
                        if n_sys < capacity:
                            last += sv_scale * draw()
                            sv_count += 1
                            pending.append(last)
                            n_sys += 1
                        # else: blocked, no service draw
                        if ia_count + sv_count > MAX_CYCLE_DRAWS:
                            partial = ia_count + sv_count - 2
                            raise _runaway(lam, mu)
                    else:
                        area += n_sys * (dep_next - t_prev)
                        t_prev = dep_next
                        n_sys -= 1
                        if not n_sys:  # the next arrival, to the empty system, closes it
                            t_prev = arr_next
                            break
                        dep_next = pending[nd]
                        nd += 1
                busy += (i, area, ia_count, sv_count, t_prev, last)
            first += n_runs
    finally:
        busy = np.array(busy).reshape(-1, 6)  # before the redraw, for a lower peak
        # two draws per one-customer cycle, the counts of each busy one
        used = 2 * (i + 1 - len(busy)) + int(busy[:, 2:4].sum()) + partial
        rng.bit_generator.state = state
        draws = rng.standard_exponential(used)
    return busy, draws


class Mm1Testbed(Testbed):
    """Steady-state mean number in system via regenerative cycles."""

    name = "mm1"

    def __init__(self, config=None):
        self.config = config or QueueConfig()
        self.input_model = IndependentExponentials(2)
        self.trace_model = self.input_model
        self.true_theta = np.array([0.5, 1.5])

    def _runs(self, theta, n_runs, rng):
        """Run ``_cycles`` and decode its output into the batch in one
        vector pass.

        Every cycle is first decoded as a cycle of one customer: (Y, A,
        counts, sums) = (S, I, (1, 1), (I, S)) for S = E[o] * (1 / mu) and
        I = E[o + 1] * (1 / lam), where E is ``draws`` and o the cycle's
        offset into it, the draws of the cycles before it (two per
        one-customer cycle, the two counts of a busy one).  Each busy
        cycle's row is then overwritten with its record.  S and I are the
        products the event loop forms, and its area would be ``1 * (S -
        0.0)`` plus ``0 * (I - S)`` on 0.0, which is S, so the batch is bit
        for bit the loop's.
        """
        busy, draws = _cycles(theta.tolist(), self.config.capacity, n_runs, rng)
        busy_at = busy[:, 0].astype(np.intp)
        n = len(theta) * n_runs
        # offset just past each cycle's draws; less 2, a one-customer cycle's o
        end = np.full(n, 2, dtype=np.intp)
        end[busy_at] = busy[:, 2] + busy[:, 3]
        np.add.accumulate(end, out=end)
        sums = np.empty((n, 2))
        end -= 1
        draws.take(end, out=sums[:, 0])
        end -= 1
        draws.take(end, out=sums[:, 1])
        del draws, end  # freed before the other outputs are made
        per_row = sums.reshape(len(theta), n_runs, 2)
        per_row *= 1.0 / theta[:, None, :]  # each row's means (1 / lam, 1 / mu)
        sums[busy_at] = busy[:, 4:6]
        counts = np.ones((n, 2))
        counts[busy_at] = busy[:, 2:4]
        y = sums[:, 1].copy()
        y[busy_at] = busy[:, 1]
        return y, sums[:, 0].copy(), counts, sums
