"""Reference clock: wall time converted to a fixed host speed.

The host this benchmark was tuned on gives the process a share of physical
cores that flips between a fast and a slow phase (about 1.6-2x apart,
phases of seconds to minutes), and wall times of identical work follow it.  A
``RefClock`` samples that speed while the measured code runs: a SIGALRM
timer interrupts the process every ``interval`` seconds and times small
fixed calibration kernels.  Each gap between two samples is then counted at
the speed the kernels showed at both its ends,

    reference seconds = gap seconds * REF_S / kernel seconds,

so a span reads about what it would take on the host at reference speed,
while work the program itself saves or adds shows in full.  Time spent in
the kernels is left out of every span.

The slow phase does not slow all code alike, so each workload names the
kernels that track it (``workloads.Workload.kernels``; the measurements are
in README.md).  The module imports nothing heavy, so a clock on the
pure-Python kernels can time the import of numpy itself.
"""

import signal
import time
from array import array
from bisect import bisect_right
from heapq import heappop, heappush
from math import log


def _uniforms(count, state=12345):
    """Fixed uniforms in (0, 1) from a linear congruential generator."""
    out = []
    for _ in range(count):
        state = (1103515245 * state + 12345) % (1 << 31)
        out.append((state + 0.5) / (1 << 31))
    return out


_UNIFORMS = _uniforms(2000)
_DATA = [((i * 7919) % 1009) / 1009.0 for i in range(512)]
_NP = {}


def event_kernel():
    """A heap-ordered event loop over exponential gaps, like the queueing
    simulators.  In the slow phase its slowdown tracked that of the
    Python-bound macros (mm1-std, san) closest of the kernels tried."""
    heap = []
    t = 0.0
    for i, u in enumerate(_UNIFORMS):
        heappush(heap, (t - log(u), i))
        if len(heap) > 200:
            t, _ = heappop(heap)
    return t


def python_kernel():
    """Sorting, a generator sum and dict updates on a fixed list."""
    acc = 0.0
    for _ in range(6):
        lst = sorted(_DATA, key=lambda v: (v * 13.0) % 1.0)
        acc += sum(x * y for x, y in zip(lst, _DATA))
        buckets = {}
        for i, v in enumerate(lst):
            buckets[i % 97] = buckets.get(i % 97, 0.0) + v
        acc += max(buckets.values())
    return acc


def numpy_kernel():
    """Small linear solves and a sort.  With ``python_kernel`` it tracks the
    numpy-bound mm1-klr macro, which the slow phase slows less than the
    Python-bound ones."""
    if not _NP:
        import numpy as np

        _NP["np"] = np
        _NP["a"] = np.random.default_rng(12345).standard_normal((64, 13))
        _NP["v"] = np.random.default_rng(54321).standard_normal(4000)
    np, a = _NP["np"], _NP["a"]
    acc = 0.0
    for i in range(40):
        g = a.T @ a
        g[np.diag_indices(13)] += 1.0
        acc += float(np.linalg.solve(g, a[i]).sum())
    return acc + float(np.sort(_NP["v"]).sum())


KERNELS = {"event": event_kernel, "python": python_kernel, "numpy": numpy_kernel}
# median seconds of each kernel in the host's fast phase (2-CPU Intel Xeon
# guest, Python 3.11, numpy 2.4); only the scale of reference seconds
REF_S = {event_kernel: 1.30e-3, python_kernel: 0.80e-3, numpy_kernel: 0.75e-3}


class RefClock:
    """Samples host speed every ``interval`` s between ``start`` and ``stop``."""

    def __init__(self, kernels=(event_kernel,), interval=0.05):
        self.kernels = tuple(kernels)
        self.ref_s = sum(REF_S[k] for k in self.kernels)
        self.interval = interval
        self.begin = array("d")  # sample k ran its kernels in [begin, end]
        self.end = array("d")
        self._cum_wall = self._cum_ref = None

    def sample(self, *_):
        t0 = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        t1 = time.perf_counter()
        self.begin.append(t0)
        self.end.append(t1)

    def start(self):
        for kernel in self.kernels:  # warm caches and lazy imports
            kernel()
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        self._integrate()

    def _integrate(self):
        # gap k runs from end[k-1] to begin[k]; _cum_*[k] are the wall and
        # reference seconds of gaps 1..k
        self._cum_wall, self._cum_ref = [0.0], [0.0]
        for k in range(1, len(self.begin)):
            gap = self.begin[k] - self.end[k - 1]
            self._cum_wall.append(self._cum_wall[-1] + gap)
            self._cum_ref.append(self._cum_ref[-1] + gap * self._rate(k))

    def _rate(self, k):
        """Reference seconds per wall second in gap k."""
        kernel_s = 0.5 * (self.end[k] - self.begin[k] + self.end[k - 1] - self.begin[k - 1])
        return self.ref_s / kernel_s

    def _at(self, t):
        """(wall, reference) seconds counted from start to time t."""
        k = bisect_right(self.end, t)  # gaps before k are complete
        if k == 0 or k >= len(self.begin):
            raise ValueError("time outside the clock's samples")
        gap = max(0.0, min(t, self.begin[k]) - self.end[k - 1])
        return (self._cum_wall[k - 1] + gap,
                self._cum_ref[k - 1] + gap * self._rate(k))

    def span(self, t0, t1):
        """(wall, reference) seconds of [t0, t1], kernel time left out."""
        (w0, r0), (w1, r1) = self._at(t0), self._at(t1)
        return w1 - w0, r1 - r0

    def speed(self):
        """Median kernel seconds over their reference seconds: 1 is the
        reference speed, larger is slower."""
        times = sorted(e - b for b, e in zip(self.begin, self.end))
        return times[len(times) // 2] / self.ref_s
