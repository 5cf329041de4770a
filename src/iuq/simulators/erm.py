"""Option-portfolio risk testbed.

A portfolio of European calls and puts on L correlated lognormal stocks is
revalued at a short horizon tau; the target is the portfolio's expected
value conditional on the total stock value falling below a threshold.  The
stock drifts are the uncertain input parameters; per-stock volatilities,
the correlation, and the risk-free rate are fixed.

One run draws the log-price increments z over [0, tau] and reports Y = the
portfolio's Black-Scholes value at the remaining maturity on the event and
A = the event indicator.  Its input trace is the drift vector z / tau +
vol**2 / 2 that z implies, drawn from N(theta, cov / tau): a bijection of
z, so the trace model takes the drifts themselves and its likelihood
ratios are those of the increments.

Only the runs in the event are priced, through ``bs_price``, the one
pricing route; Y is +0.0 outside it, which is value * A, as long options
are worth more than zero.  Every spot is checked all the same, so a run
that overflows raises whether it is in the event or not.  The normal CDF
comes from ``scipy.special``, which ``bs_price`` imports when called
rather than at module import: the other testbeds and the estimators need
numpy only, and loading ``scipy.special`` would otherwise take most of the
time and much of the memory of ``import iuq``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ..input_models import MultivariateNormalKnownCov
from . import Testbed


def bs_price(kind, spot, strike, rate, vol, ttm):
    """Black-Scholes value of a European call or put.

    Vectorized over ``spot``; ``ttm`` = 0 returns the intrinsic value.  An
    unknown ``kind``, or an input that is not finite or is out of range
    (spot or strike or vol <= 0, ttm < 0), raises ``ValueError``.  It is
    the one pricing route: ``ErmTestbed.portfolio_value`` sums through it.
    """
    from scipy.special import ndtr

    if kind not in ("call", "put"):
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
    spot = np.asarray(spot, dtype=float)
    terms = (strike, rate, vol, ttm)
    if not (_finite_positive(spot) and all(map(math.isfinite, terms))
            and strike > 0 and vol > 0 and ttm >= 0):
        raise ValueError("require finite inputs with spot > 0, strike > 0, vol > 0, ttm >= 0")
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


def _finite_positive(x):
    """Whether every entry of array ``x`` lies in (0, inf); NaN does not."""
    return bool(((x > 0) & (x < math.inf)).all())


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
        # what every run would otherwise fail on: spots, event and drifts
        if not all(0 < s < math.inf for s in self.s0):
            raise ValueError("s0 must hold finite positive spots")
        if not self.k_star > 0:  # spots are positive, so no run would be in the event
            raise ValueError(f"k_star must be > 0 and not NaN, got {self.k_star!r}")
        if not all(map(math.isfinite, self.true_theta)):
            raise ValueError("true_theta must be finite")
        # the option terms, which only the first run in the event would price
        if not 0 < self.horizon < self.expiry < math.inf:
            raise ValueError("require 0 < horizon < expiry < inf")
        if not all(0 < v < math.inf for v in self.vols):
            raise ValueError("volatilities must be finite and positive")
        if not all(0 < k < math.inf for k in (*self.call_strikes, *self.put_strikes)):
            raise ValueError("strikes must be finite and positive")
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")
        # the equal-correlation matrix has eigenvalues 1 - corr and
        # 1 + (L - 1) corr, so it is positive definite only above -1/(L - 1)
        low = -1.0 / max(self.n_stocks - 1, 1)
        if not low < self.corr < 1.0:
            raise ValueError(f"corr must lie in ({low:.6g}, 1) for n_stocks={self.n_stocks}, "
                             f"got {self.corr!r}")

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


class ErmTestbed(Testbed):
    """Conditional expected option-portfolio value at the horizon."""

    name = "erm"

    def __init__(self, config=None):
        self.config = config or ErmConfig.default()
        cfg = self.config
        # observable data: historical drift observations with known covariance
        self.input_model = MultivariateNormalKnownCov(cfg.cov)
        # run trace: the drift vector that the run's log-increments imply
        self.trace_model = MultivariateNormalKnownCov(cfg.cov / cfg.horizon)
        self.true_theta = np.asarray(cfg.true_theta)
        self._half_var = 0.5 * np.asarray(cfg.vols) ** 2
        self._s0 = np.asarray(cfg.s0)
        self._chol = np.linalg.cholesky(cfg.horizon * cfg.cov)  # of the log-increments

    def portfolio_value(self, spots):
        """Total Black-Scholes value of all options at the horizon; spots
        that are not finite and positive raise ``ValueError``."""
        cfg = self.config
        spots = np.atleast_2d(np.asarray(spots, dtype=float))
        if not _finite_positive(spots):
            raise ValueError("require finite spots > 0")
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

    def _runs(self, theta, n_runs, rng):
        # each row's log-increments in one draw: the normals fill (n, n_runs,
        # d) in C order, and the stacked product multiplies each row's
        # (n_runs, d) block as a call at that row alone would (numpy picks
        # its BLAS routine by the block's shape)
        n, d = theta.shape
        h = self.config.horizon
        z = rng.standard_normal((n, n_runs, d))
        z = ((theta - self._half_var) * h)[:, None, :] + z @ self._chol.T
        z = z.reshape(n * n_runs, d)
        spots = self._s0 * np.exp(z)
        if not _finite_positive(spots):  # outside the event too
            raise ValueError("require finite spots > 0")
        hit = spots.sum(axis=1) < self.config.k_star
        y = np.zeros(len(spots))
        y[hit] = self.portfolio_value(spots[hit])
        a = hit.astype(float)
        # one vector draw per run: the counts are a read-only view of a single 1.0
        return y, a, np.broadcast_to(1.0, z.shape), z / h + self._half_var
