"""Empirical quantiles and the percentile bootstrap confidence interval.

The alpha-quantile of a size-n sample is fixed to the ceil(n*alpha)-th
order statistic (no interpolation), so quantiles are always elements of the
input sample and the empirical cdf evaluated at the returned quantile is
ceil(n*alpha)/n.
"""

import math
from dataclasses import dataclass

import numpy as np

from .input_models import is_finite_real


@dataclass(frozen=True)
class CIResult:
    """A two-sided interval [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower endpoint exceeds upper endpoint")

    @property
    def width(self):
        return self.upper - self.lower

    def covers(self, value):
        return self.lower <= value <= self.upper


def empirical_quantile(values, alpha):
    """ceil(n*alpha)-th order statistic (1-indexed) of ``values``.

    Accepts 0 < alpha <= 1; alpha = 1 returns the maximum.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    if not (is_finite_real(alpha) and 0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    rank = math.ceil(values.size * alpha)
    return float(np.sort(values)[rank - 1])


def percentile_ci(estimates, alpha):
    """Percentile bootstrap CI: [alpha/2, 1 - alpha/2] empirical quantiles."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size < 2:
        raise ValueError("need at least two estimates")
    if not (is_finite_real(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    lo = empirical_quantile(estimates, alpha / 2.0)
    hi = empirical_quantile(estimates, 1.0 - alpha / 2.0)
    return CIResult(lo, hi)
