"""Conditional completion time of a stochastic activity network.

Thirteen jobs with exponential durations hang on a 9-node precedence
graph; the target is the expected source-to-sink completion time given
that two milestone nodes finish before a deadline.  Shows the default
topology, the longest-path evaluation hook, and loading a custom network
from an edge list.
"""

import os
import tempfile

import numpy as np

from iuq import SanConfig, SanTestbed, true_eta_oracle

testbed = SanTestbed()
cfg = testbed.config
print("nodes:", " ".join(cfg.nodes))
print("arcs: ", ", ".join(f"{u}->{v}" for u, v in cfg.arcs))
print("condition: finish", " and ".join(cfg.t_nodes), "before", cfg.threshold)

# deterministic durations through the evaluation hook
v, t = testbed.path_times(np.ones((1, 13)))
print(f"\nall durations = 1: completion {v[0]:.0f}, milestone time {t[0]:.0f}")

rng = np.random.default_rng(0)
batch = testbed.simulate(testbed.true_theta, 500_000, rng)
print(f"P(milestones < {cfg.threshold}) = {batch.a.mean():.4f}  (calibrated near 0.091)")

oracle = true_eta_oracle(testbed, testbed.true_theta, 500_000, rng)
print(f"conditional completion time = {oracle.eta:.3f} (se {oracle.se:.3f})")
uncond = batch.y.sum() / batch.a.sum()
print(f"same thing from the batch   = {uncond:.3f}")

# custom topology from a plain-text edge list
edges = "a b\nb c\nb d\nc e\nd e\n"
with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
    fh.write(edges)
    path = fh.name
custom = SanConfig.from_edge_list(path, source="a", sink="e", t_nodes=("c",),
                                  threshold=2.0)
os.unlink(path)
small = SanTestbed(custom)
v, t = small.path_times(np.array([[1.0, 2.0, 1.5, 0.5, 3.0]]))
print(f"\ncustom 5-arc network: completion {v[0]:.1f}, milestone {t[0]:.1f}")
