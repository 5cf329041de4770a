"""Standard vs pooled vs reweighted ratio estimators at one run budget.

Repeats the full interval-construction pipeline over fresh datasets for
each estimator arm and compares empirical coverage and mean width against
the pinned true value.  The pooled arms run n r = 109 x 7 = 763 simulations
per macro; the standard arms split that budget into a bootstrap-set size
and a per-parameter run count, each rounded down, so they run a little
fewer (729 for std-even, 27 x 27, and 747 for std-opt, 83 x 9).  The
reweighted (likelihood-ratio) arm is the one that stays near nominal
coverage with the narrowest intervals.

Takes about 8 s on 2 CPUs at the default 50 macro runs.
"""

import time

import numpy as np

from iuq import ExperimentConfig, reference_eta, run_macro_experiment

MODEL, M, MACROS, SEED = "mm1", 50, 50, 3

print(f"model={MODEL}  data size m={M}  true value={reference_eta(MODEL):.4f}")
print(f"{'arm':>24} {'coverage':>9} {'width':>8} {'sims/run':>9} {'secs':>6}")

arms = [
    ("std-even", "bootstrap"),
    ("std-opt", "bootstrap"),
    ("knn", "bootstrap"),
    ("knn", "ellipsoid"),
    ("klr", "bootstrap"),
    ("klr", "ellipsoid"),
]
for estimator, sampling in arms:
    cfg = ExperimentConfig(model=MODEL, m=M, alpha=0.05, estimator=estimator,
                           sampling=sampling, macros=MACROS, seed=SEED)
    t0 = time.time()
    result = run_macro_experiment(cfg)
    s = result.summary
    label = f"{estimator}+{sampling}" if estimator in ("knn", "klr") else estimator
    print(f"{label:>24} {s['coverage']:>9.2f} {s['mean_width']:>8.3f} "
          f"{result.rows[0].sims_used:>9} {time.time() - t0:>6.1f}")

print("\nnominal coverage is 0.95; sims/run is each arm's simulation budget per macro")
