"""Steady-state mean of a finite M/M/1 queue by regenerative cycles.

A cycle runs from one arrival-to-empty-system to the next; with A the
cycle length and Y the integral of the head count, E[Y]/E[A] is the
steady-state mean number in system.  The script checks the simulator
against the truncated-geometric closed form, then builds a full
input-uncertainty confidence interval from m = 50 observations of the
interarrival and service times.
"""

import numpy as np

from iuq import (
    ExperimentConfig,
    Mm1Testbed,
    mm1_steady_state_mean,
    run_macro_experiment,
    true_eta_oracle,
)

testbed = Mm1Testbed()
rates = np.array([0.5, 1.5])

one = testbed.simulate(rates, 1, np.random.default_rng(0))
print("one cycle: area", round(one.y[0], 3), "length", round(one.a[0], 3))
print("  interarrivals: count", int(one.counts[0, 0]), "sum", round(one.sums[0, 0], 3))
print("  services:      count", int(one.counts[0, 1]), "sum", round(one.sums[0, 1], 3))

oracle = true_eta_oracle(testbed, rates, 200_000, np.random.default_rng(1))
closed = mm1_steady_state_mean(0.5, 1.5)
print(f"\nregenerative estimate over 2e5 cycles: {oracle.eta:.5f} (se {oracle.se:.5f})")
print(f"closed-form stationary mean:           {closed:.5f}")

# now pretend the rates are unknown: 20 macro replications of the full
# pipeline at m = 50, reweighted pooled estimator, ellipsoid sampling
cfg = ExperimentConfig(model="mm1", m=50, alpha=0.05, estimator="klr",
                       sampling="ellipsoid", r=7, macros=20, seed=11)
result = run_macro_experiment(cfg)
print("\n95% intervals from m=50 data, 20 macro runs:")
print(f"  coverage of the true value: {result.summary['coverage']:.2f}")
print(f"  mean width:                 {result.summary['mean_width']:.3f}")
print(f"  simulation budget per run:  {result.rows[0].sims_used} cycles")
