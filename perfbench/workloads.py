"""Benchmark workloads and the run environment they are measured in.

Every workload is one ``ExperimentConfig`` run on one worker with
``alpha=0.05`` and the pinned pilot value of ``r``.  A benchmark run repeats
single-macro experiments of that config for a fixed number of seconds; the
j-th experiment of benchmark seed ``s`` uses experiment seed
``s * SEED_STRIDE + j``, so the same seed always gives the same inputs.
"""

import os
import platform
from dataclasses import dataclass

# seed whose first experiments have pinned expected rows (expected_rows.json)
DEFAULT_SEED = 0
SEED_STRIDE = 100_000

# BLAS/OpenMP pools are pinned to one thread so that one core does the work
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is in BENCHMARK.json."""

    name: str
    model: str
    m: int
    estimator: str
    pinned: int  # experiments of DEFAULT_SEED with pinned rows
    kernels: tuple = ("event",)  # clock.KERNELS that gauge host speed for it

    def config_kwargs(self):
        return dict(
            model=self.model,
            m=self.m,
            alpha=0.05,
            estimator=self.estimator,
            sampling="ellipsoid",  # ignored by the std pipeline
            r="auto",
            workers=1,
        )


# erm-klr-m200 is not in BENCHMARK.json.  klr_ratio is ~80% of its macro on
# the normal trace family, but the macro time depends on the chosen k
# (1.5-7.4 s) and on memory contention, and 20 s runs spread over
# 3.3-5.1 s/macro.  It stays runnable for traced and manual comparisons.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mm1-klr-m800", "mm1", 800, "klr", pinned=1, kernels=("numpy", "python")),
        Workload("san-klr-m50", "san", 50, "klr", pinned=4),
        Workload("erm-klr-m200", "erm", 200, "klr", pinned=2),
        Workload("mm1-std-m800", "mm1", 800, "std-even", pinned=8),
    )
}


def experiment_seed(seed, j):
    return seed * SEED_STRIDE + j


def environment():
    """Versions, core count and thread pinning of the measuring process."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }
