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
    return _order_statistic(np.sort(values), alpha)


def _order_statistic(ascending, alpha):
    """ceil(n*alpha)-th entry (1-indexed) of the sorted sample ``ascending``."""
    return float(ascending[math.ceil(ascending.size * alpha) - 1])


def percentile_ci(estimates, alpha):
    """Percentile bootstrap CI: [alpha/2, 1 - alpha/2] empirical quantiles,
    both read from one sort of the estimates.

    Raises ``ValueError`` on fewer than two estimates, or on any estimate
    that is not finite: np.sort puts NaN last, so it, like an infinity,
    could become an interval end.
    """
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size < 2:
        raise ValueError("need at least two estimates")
    bad = estimates.size - int(np.isfinite(estimates).sum())
    if bad:
        raise ValueError(f"{bad} of {estimates.size} estimates are not finite")
    if not (is_finite_real(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    ascending = np.sort(estimates)
    return CIResult(_order_statistic(ascending, alpha / 2.0),
                    _order_statistic(ascending, 1.0 - alpha / 2.0))
