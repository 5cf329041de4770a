"""Likelihood-ratio reweighting from a run's draw counts and sums.

Runs simulated at one parameter can stand in for runs at another: multiply
each run's output by the density ratio of its consumed inputs.  For an
exponential family that ratio depends on the run only through how many
draws it took from each coordinate and what they summed to: packed as
T = (sums, counts), the log ratio is <T, beta(target) - beta(theta)> with
beta the family's coefficients (natural parameter, minus log-partition).
This script checks the two identities everything downstream relies on,
entirely by Monte Carlo:

    E[W] = 1           (weights average to one under the sampling measure)
    E[g(Z) W] = E'[g]  (reweighted outputs match the target measure)
"""

import numpy as np

from iuq import IndependentExponentials, pack_stats

rng = np.random.default_rng(7)
model = IndependentExponentials(1)

theta = np.array([1.0])   # rates used to generate the runs
target = np.array([1.4])  # rates we want answers for

# one "run" consumes three draws; its statistics are their count and sum
draws = model.sample(theta, rng, size=3)[:, 0]
count, total = np.array([float(draws.size)]), np.array([draws.sum()])
stat = pack_stats(count, total)
print("single run draws:", np.round(draws, 3), " count", count[0], " sum", round(total[0], 3))
print("coefficients at theta:", model.coefficients(theta), " at target:", model.coefficients(target))
print("log LR to target:", model.log_weights(stat, model.coefficients(theta), target))
print("antisymmetry check:", model.log_weights(stat, model.coefficients(target), theta))

# identity 1: weights average to one
n, s = 500_000, 3
draws = rng.exponential(1.0 / theta[0], size=(n, s))
stats = pack_stats(np.full((n, 1), float(s)), draws.sum(axis=1, keepdims=True))
w = np.exp(model.log_weights(stats, model.coefficients(theta), target))
print(f"\nmean weight over {n:,} runs: {w.mean():.4f}  (should be 1)")

# identity 2: reweighted output mean equals the target-measure mean
y = draws.sum(axis=1)
print(f"mean(Y W) = {np.mean(y * w):.4f}   analytic E[Y|target] = {s / target[0]:.4f}")
print(f"plain mean(Y) = {y.mean():.4f}     analytic E[Y|theta]  = {s / theta[0]:.4f}")
