"""Option-portfolio risk testbed.

A portfolio of European calls and puts on L correlated lognormal stocks is
revalued at a short horizon tau; the target is the portfolio's expected
value conditional on the total stock value falling below a threshold.  The
stock drifts are the uncertain input parameters; per-stock volatilities,
the correlation, and the risk-free rate are fixed.

One run draws the vector of log-price increments over [0, tau] (the run's
entire input trace), prices every option with the Black-Scholes formula at
the remaining maturity, and reports Y = portfolio value on the event and
A = the event indicator.

The normal CDF comes from ``scipy.special``, which ``bs_price`` imports on
its first call rather than at module import: the other testbeds and the
estimators need numpy only, and loading ``scipy.special`` would otherwise
take most of the time and much of the memory of ``import iuq``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ..input_models import MultivariateNormalKnownCov, require_int


def bs_price(kind, spot, strike, rate, vol, ttm):
    """Black-Scholes value of a European call or put.

    Vectorized over ``spot``; ``ttm`` = 0 returns the intrinsic value.
    """
    from scipy.special import ndtr

    if kind not in ("call", "put"):
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
    spot = np.asarray(spot, dtype=float)
    if np.any(spot <= 0) or strike <= 0 or vol <= 0 or ttm < 0:
        raise ValueError("require spot > 0, strike > 0, vol > 0, ttm >= 0")
    if ttm == 0:
        intrinsic = spot - strike if kind == "call" else strike - spot
        return np.maximum(intrinsic, 0.0)
    s_sqrt = vol * math.sqrt(ttm)
    d1 = (np.log(spot / strike) + (rate + 0.5 * vol * vol) * ttm) / s_sqrt
    d2 = d1 - s_sqrt
    disc = strike * math.exp(-rate * ttm)
    if kind == "call":
        return spot * ndtr(d1) - disc * ndtr(d2)
    return disc * ndtr(-d2) - spot * ndtr(-d1)


@dataclass(frozen=True)
class ErmConfig:
    """Portfolio and market constants; 10 options (5 calls, 5 puts) per stock."""

    s0: tuple
    vols: tuple
    corr: float
    rate: float
    expiry: float
    horizon: float
    call_strikes: tuple
    put_strikes: tuple
    k_star: float
    true_theta: tuple
    n_stocks: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_stocks", len(self.s0))
        if len(self.vols) != self.n_stocks or len(self.true_theta) != self.n_stocks:
            raise ValueError("s0, vols, and true_theta must have equal lengths")
        if not 0 < self.horizon < self.expiry:
            raise ValueError("require 0 < horizon < expiry")
        if any(v <= 0 for v in self.vols):
            raise ValueError("volatilities must be positive")
        if not -1.0 < self.corr < 1.0:
            raise ValueError("correlation must lie in (-1, 1)")

    @property
    def cov(self):
        """Per-unit-time covariance of the log-price increments."""
        vols = np.asarray(self.vols)
        c = np.full((self.n_stocks, self.n_stocks), self.corr)
        np.fill_diagonal(c, 1.0)
        return np.outer(vols, vols) * c

    @classmethod
    def default(cls, k_star=None):
        """Two-stock setup: drifts (0.05, 0.1), 4-week horizon, 2-year expiry.

        The conditioning threshold defaults to the sum of the stocks' 5%
        quantiles at the horizon under the true drifts.
        """
        s0 = (100.0, 100.0)
        vols = (0.15, 0.35)
        true_theta = (0.05, 0.10)
        tau = 4.0 / 52.0
        if k_star is None:
            z05 = -1.6448536269514722  # standard normal 5% quantile
            k_star = sum(
                s * math.exp((mu - 0.5 * v * v) * tau + v * math.sqrt(tau) * z05)
                for s, mu, v in zip(s0, true_theta, vols)
            )
        return cls(
            s0=s0,
            vols=vols,
            corr=0.5,
            rate=0.02,
            expiry=2.0,
            horizon=tau,
            call_strikes=(80.0, 90.0, 100.0, 110.0, 120.0),
            put_strikes=(80.0, 90.0, 100.0, 110.0, 120.0),
            k_star=float(k_star),
            true_theta=true_theta,
        )


class ErmTestbed:
    """Conditional expected option-portfolio value at the horizon."""

    name = "erm"

    def __init__(self, config=None):
        self.config = config or ErmConfig.default()
        cfg = self.config
        # observable data: historical drift observations with known covariance
        self.input_model = MultivariateNormalKnownCov(cfg.cov)
        # run trace: one log-increment vector over the horizon
        self.trace_model = MultivariateNormalKnownCov(cfg.horizon * cfg.cov)
        self.true_theta = np.asarray(cfg.true_theta)
        self._vols = np.asarray(cfg.vols)
        self._s0 = np.asarray(cfg.s0)

    def lr_param(self, theta):
        """Trace-model means implied by drift vectors theta, shape (..., d)."""
        theta = np.asarray(theta, dtype=float)
        return (theta - 0.5 * self._vols**2) * self.config.horizon

    def portfolio_value(self, spots):
        """Total Black-Scholes value of all options at the horizon."""
        cfg = self.config
        spots = np.atleast_2d(np.asarray(spots, dtype=float))
        ttm = cfg.expiry - cfg.horizon
        total = np.zeros(spots.shape[0])
        for ell in range(cfg.n_stocks):
            s = spots[:, ell]
            vol = cfg.vols[ell]
            for k in cfg.call_strikes:
                total += bs_price("call", s, k, cfg.rate, vol, ttm)
            for k in cfg.put_strikes:
                total += bs_price("put", s, k, cfg.rate, vol, ttm)
        return total

    def simulate(self, theta, n_runs, rng):
        from . import SimBatch

        theta = self.input_model.check_theta(theta)
        n_runs = require_int("n_runs", n_runs, 0)
        z = self.trace_model.sample(self.lr_param(theta), rng, size=n_runs)
        spots = self._s0 * np.exp(z)
        value = self.portfolio_value(spots)
        a = (spots.sum(axis=1) < self.config.k_star).astype(float)
        y = value * a
        # one vector draw per run: the counts are a read-only view of a single 1.0
        return SimBatch(y=y, a=a, counts=np.broadcast_to(1.0, z.shape), sums=z)
