"""The experiment-design helpers, piece by piece.

Walks the machinery the pipelines call under the hood: the sample-size
rule, bootstrap parameter generation, the minimum-volume enclosing
ellipsoid and uniform sampling inside it, the variance-ratio pilot for the
replication count, and cross-validated pooling sizes.
"""

import numpy as np

from iuq import (
    IndependentExponentials,
    bootstrap_params,
    cv_select_k,
    default_k_grid,
    min_enclosing_ellipsoid,
    run_pilot,
    sample_in_ellipsoid,
    sample_size_rule,
)

rng = np.random.default_rng(5)

print("sample-size rule (data size -> simulation/bootstrap set sizes):")
for m in (50, 100, 200, 500, 1000):
    n, n_tilde = sample_size_rule(m)
    print(f"  m={m:>5}  n={n:>5}  n_tilde={n_tilde:>5}")

model = IndependentExponentials(2)
theta_hat = np.array([0.5, 1.5])
boots = bootstrap_params(model, theta_hat, m=50, n_tilde=800, rng=rng)
print(f"\nbootstrap cloud around {theta_hat}: "
      f"mean {np.round(boots.mean(axis=0), 3)}, "
      f"sd {np.round(boots.std(axis=0), 3)}")

ell = min_enclosing_ellipsoid(boots)
print(f"enclosing ellipsoid center {np.round(ell.center, 3)}, "
      f"worst membership {ell.membership(boots).max():.6f}")
uniform = sample_in_ellipsoid(ell, 1000, rng)
print(f"uniform draws inside: max membership {ell.membership(uniform).max():.6f}")

pilot = run_pilot("mm1", m=50, seed=1)
print(f"\npilot-selected replication count r={pilot.r} "
      f"(s={pilot.final_s}, zeta_y={pilot.zeta_y:.3f}, zeta_a={pilot.zeta_a:.3f})")

# cross-validated pooling size reacts to the noise level
n = 300
params = np.linspace(0.0, 1.0, n)[:, None]
smooth = params[:, 0] + rng.normal(0.0, 0.02, size=n)
noisy = params[:, 0] + rng.normal(0.0, 1.0, size=n)
grid = default_k_grid(n)
print(f"\ncandidate pooling sizes for n={n}: {grid}")
print("  low-noise run means  -> k =", cv_select_k(params, smooth))
print("  high-noise run means -> k =", cv_select_k(params, noisy))
