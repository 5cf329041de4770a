"""Conditional value of an option portfolio when the stocks are at risk.

Twenty European options on two correlated lognormal stocks are revalued
four weeks out; the target is the portfolio's expected value given the
total stock value falls below the sum of the per-stock 5% quantiles.  The
stock drifts are treated as estimated from data, so the final answer is a
confidence interval, not a point.
"""

import numpy as np

from iuq import ErmConfig, ErmTestbed, bs_price, run_macro_experiment, ExperimentConfig, true_eta_oracle

print("Black-Scholes sanity: call(100, 100, 2%, 20%, 1y) =",
      round(float(bs_price("call", 100.0, 100.0, 0.02, 0.2, 1.0)), 3))

testbed = ErmTestbed()
cfg = testbed.config
print(f"\nportfolio: {2 * (len(cfg.call_strikes) + len(cfg.put_strikes))} options "
      f"on {cfg.n_stocks} stocks, horizon {cfg.horizon:.4f}y, expiry {cfg.expiry}y")
print(f"stress threshold K* = {cfg.k_star:.2f} (sum of 5% quantiles)")

rng = np.random.default_rng(0)
batch = testbed.simulate(testbed.true_theta, 300_000, rng)
print(f"P(stress event) = {batch.a.mean():.4f}")

oracle = true_eta_oracle(testbed, testbed.true_theta, 300_000, rng)
print(f"conditional portfolio value = {oracle.eta:.2f} (se {oracle.se:.2f})")

flat = testbed.portfolio_value(np.array(cfg.s0))
print(f"value at today's prices     = {float(flat[0]):.2f}")

# drift uncertainty from m = 100 observations, small macro study
exp_cfg = ExperimentConfig(model="erm", m=100, alpha=0.05, estimator="klr",
                           sampling="ellipsoid", macros=5, seed=2)
result = run_macro_experiment(exp_cfg)
print(f"\n95% intervals from m=100 drift observations (5 macro runs, "
      f"r={exp_cfg.resolved_r()}):")
for row in result.rows:
    print(f"  [{row.lower:8.2f}, {row.upper:8.2f}]  width {row.width:6.2f}  "
          f"covers truth: {bool(row.covered)}")
