"""Parametric input-generating distributions.

Each model family supports sampling, maximum likelihood estimation, exact
resampling of its MLE, and likelihood-ratio weights over the raw inputs
consumed by a simulation run.  Both families are exponential families: a run
that consumed c_j draws with sum s_j from coordinate j has the log
likelihood ratio

    <T, beta(theta_to) - beta(theta_from)>

between two parameters, with T = (s, c) the run's packed sufficient
statistic and beta(theta) = (eta(theta), -psi(theta)) its coefficients:
eta the natural parameter and psi the per-coordinate log-partition
function.  Taking the difference of coefficients keeps the ratio exactly
zero at theta_to = theta_from.  Ratios stay in log space: products of
hundreds of per-draw densities overflow or underflow in linear space.

Model objects are immutable after construction; all randomness flows
through caller-supplied ``numpy.random.Generator`` streams.
"""

import math
import numbers

import numpy as np


class EstimationError(RuntimeError):
    """Raised when an estimator cannot be computed (degenerate data/pool)."""


def is_int(value, low):
    """True for an integer >= low; bools are excluded, numpy integers count.

    A plain int is told by its type first: an isinstance check against
    ``numbers.Integral`` costs about 1 us, and every ``simulate`` call pays it.
    """
    return ((type(value) is int or not isinstance(value, bool)
             and isinstance(value, numbers.Integral)) and value >= low)


def require_int(name, value, low):
    """``value`` as an int; raises ``ValueError`` unless ``is_int(value, low)``."""
    if not is_int(value, low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def is_finite_real(value):
    """True for a finite real number other than a bool."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def _as_thetas(thetas, dim):
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 0 or thetas.shape[-1] != dim:
        raise ValueError(f"parameters must have shape (..., {dim}), got {thetas.shape}")
    return thetas


def pack_stats(counts, sums):
    """Packed sufficient statistic T = (sums, counts) of shape (..., 2d)
    from per-coordinate draw counts and sums of shape (..., d)."""
    return np.concatenate(
        [np.asarray(sums, dtype=float), np.asarray(counts, dtype=float)], axis=-1
    )


class ExponentialFamily:
    """Input family whose run likelihood ratio depends on (counts, sums) only.

    Subclasses declare ``support``, the open interval (lo, hi) that holds
    every coordinate of a valid parameter, and supply ``natural(theta)``,
    the per-coordinate ``log_partition(theta)`` (both map (..., d) to
    (..., d)) and ``resample_mle``.  ``support_mask`` and ``check_theta``
    both derive from ``support``; a testbed's ``simulate`` calls
    ``check_theta`` on its input model, so a parameter of the wrong shape or
    outside the support raises a ``ValueError`` naming which, before any
    draw.
    """

    def support_mask(self, thetas):
        """Mask over the (...,) parameters of a (..., d) array: every
        coordinate inside ``support`` (False for NaN)."""
        lo, hi = self.support
        thetas = _as_thetas(thetas, self.dim)
        return np.all((thetas > lo) & (thetas < hi), axis=-1)

    def check_theta(self, theta):
        """One parameter as a (d,) float array; raises ``ValueError`` if it
        has another shape or a coordinate outside ``support``."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.dim,):
            raise ValueError(f"parameter must have shape ({self.dim},), got {theta.shape}")
        lo, hi = self.support
        if not all(lo < x < hi for x in theta.tolist()):  # False for NaN
            raise ValueError(f"parameter {theta} outside the support of {self!r}")
        return theta

    def _check_data(self, data):
        """Data as an (m, dim) float array, 1-D read as one column; m >= 1."""
        data = np.asarray(data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if data.shape[0] == 0 or data.shape[1] != self.dim:
            raise EstimationError(f"need non-empty (m, {self.dim}) data")
        return data

    def coefficients(self, theta):
        """LR coefficients beta(theta) = (eta(theta), -psi(theta)), (..., d) to (..., 2d)."""
        theta = np.asarray(theta, dtype=float)
        return np.concatenate([self.natural(theta), -self.log_partition(theta)], axis=-1)

    def log_weights(self, stats, coefs_from, theta_to):
        """Batched log-LR <T, beta(theta_to) - beta_from> of runs to ``theta_to``.

        ``stats`` holds packed statistics (see ``pack_stats``) of shape
        (..., r, 2d): r runs per batch; ``coefs_from`` holds each batch's own
        ``coefficients``, shape (..., 2d).  Returns shape (..., r); a single
        statistic of shape (2d,) gives a scalar.
        """
        delta = self.coefficients(self.check_theta(theta_to)) - coefs_from
        return np.matmul(stats, delta[..., None])[..., 0]


class IndependentExponentials(ExponentialFamily):
    """d independent exponential coordinates parameterized by rates.

    A parameter vector is the vector of rates (all strictly positive); one
    realization is a d-vector with one draw per coordinate.  Runs may
    consume unequal numbers of draws per coordinate, as happens in
    regenerative simulations.  Natural parameter -theta, log-partition
    -log(theta).
    """

    support = (0.0, math.inf)

    def __init__(self, dim):
        self.dim = require_int("dim", dim, 1)

    def __repr__(self):
        return f"IndependentExponentials(dim={self.dim})"

    def sample(self, theta, rng, size=None):
        """Draw i.i.d. realizations from the model; shape (size, d) or (d,)."""
        theta = self.check_theta(theta)
        if size is None:
            return rng.exponential(1.0 / theta)
        return rng.exponential(1.0 / theta, size=(require_int("size", size, 0), self.dim))

    def mle(self, data):
        """Per-coordinate rate = 1 / sample mean."""
        data = self._check_data(data)
        if np.any(data <= 0):
            raise EstimationError("exponential observations must be positive")
        means = data.mean(axis=0)
        if np.any(means == 0):
            raise EstimationError("sample mean is zero")
        return 1.0 / means

    def natural(self, theta):
        return -np.asarray(theta, dtype=float)

    def log_partition(self, theta):
        return -np.log(theta)

    def resample_mle(self, theta_hat, m, count, rng):
        """MLEs of ``count`` independent size-m parametric resamples at theta_hat.

        The size-m sample sum is Gamma(m, 1/rate), so each resampled rate is
        m / Gamma draw: distributionally identical to materializing the
        resample and calling ``mle`` on it.
        """
        theta_hat = self.check_theta(theta_hat)
        m, count = require_int("m", m, 1), require_int("count", count, 0)
        sums = rng.gamma(shape=m, scale=1.0 / theta_hat, size=(count, self.dim))
        if not (sums > 0).all():  # a Gamma draw underflowed to 0
            raise EstimationError("degenerate bootstrap resample")
        return m / sums


class MultivariateNormalKnownCov(ExponentialFamily):
    """Multivariate normal with unknown mean and fixed covariance.

    Only the mean vector is an unknown parameter; the covariance is known
    and never estimated.  The MLE of the mean is the sample mean.  With P
    the precision matrix the natural parameter is P theta and the
    per-coordinate log-partition theta_j (P theta)_j / 2; every coordinate
    of a run's vector draws has the same count.
    """

    support = (-math.inf, math.inf)

    def __init__(self, cov):
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if cov.shape[0] != cov.shape[1] or not np.allclose(cov, cov.T):
            raise ValueError("covariance must be square symmetric")
        # fails for non positive definite covariances
        self._chol = np.linalg.cholesky(cov)
        self.cov = cov
        self.prec = np.linalg.inv(cov)
        self.dim = cov.shape[0]

    def __repr__(self):
        return f"MultivariateNormalKnownCov(dim={self.dim})"

    def sample(self, theta, rng, size=None):
        theta = self.check_theta(theta)
        n = 1 if size is None else require_int("size", size, 0)
        z = rng.standard_normal((n, self.dim))
        out = theta + z @ self._chol.T
        return out[0] if size is None else out

    def mle(self, data):
        return self._check_data(data).mean(axis=0)

    def natural(self, theta):
        # a summed elementwise product, not BLAS: one parameter and a batch
        # containing it get the same bits, so a run's LR weight at its own
        # parameter is exactly one
        return np.einsum("...j,ij->...i", np.asarray(theta, dtype=float), self.prec)

    def log_partition(self, theta):
        theta = np.asarray(theta, dtype=float)
        return 0.5 * theta * self.natural(theta)

    def resample_mle(self, theta_hat, m, count, rng):
        """MLEs of ``count`` independent size-m parametric resamples at theta_hat.

        The size-m sample mean is exactly N(theta_hat, cov/m).
        """
        theta_hat = self.check_theta(theta_hat)
        m, count = require_int("m", m, 1), require_int("count", count, 0)
        noise = self.sample(np.zeros(self.dim), rng, size=count)
        return theta_hat + noise / math.sqrt(m)
