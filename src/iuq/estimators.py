"""Ratio estimators over a table of simulation runs.

Three estimators of eta(theta) = E[Y|theta]/E[A|theta] at a target
parameter: the standard ratio of that parameter's own run means, the
k-nearest-neighbor ratio that pools run means across nearby simulation
parameters, and the likelihood-ratio variant that reweights each pooled
run to be unbiased for the target parameter before pooling.

Pooling only ever draws from *eligible* simulation parameters, those whose
average denominator output is nonzero; the filter applies to numerator and
denominator pools alike.
"""

from dataclasses import dataclass, field

import numpy as np

from .input_models import EstimationError, pack_stats

# log-weights are clamped here before exponentiation; exp(700) is still
# representable, anything larger would overflow to inf
LOG_WEIGHT_CLAMP = 700.0


@dataclass(frozen=True)
class RatioEstimate:
    """One ratio estimate plus how it was produced."""

    value: float
    method: str  # "std", "knn", or "klr"
    k_y: int = 0
    k_a: int = 0
    fallback: bool = False
    pooled_denominator: float = 0.0
    clamped_weights: int = 0

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise EstimationError(f"non-finite ratio estimate ({self.method})")


def nearest(dist, k):
    """Indices of the k smallest entries along the last axis, smallest first.

    Equals ``np.argsort(dist, axis=-1, kind="stable")[..., :k]``: ties go to
    the smaller index.  Each row keeps the entries not above its k-th
    smallest value and stable-sorts only those; a row that keeps more than
    k (a tie at the k-th value, or a NaN) is sorted in full.
    """
    dist = np.asarray(dist)
    n = dist.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    rows = dist.reshape(-1, n)
    kth = np.partition(rows, k - 1, axis=1)[:, k - 1 : k]
    keep = ~(rows > kth)  # at least k per row; a NaN is kept, so its row is fully sorted
    flat = np.flatnonzero(keep)  # row-major: ascending index within a row
    if flat.size > rows.shape[0] * k:
        tied = keep.sum(axis=1) > k
        out = np.empty((rows.shape[0], k), dtype=np.intp)
        out[tied] = np.argsort(rows[tied], axis=1, kind="stable")[:, :k]
        out[~tied] = nearest(rows[~tied], k)
    else:
        order = rows.ravel()[flat.reshape(-1, k)].argsort(axis=1, kind="stable")
        order += np.arange(0, flat.size, k)[:, None]  # row offsets into flat
        out = flat[order] % n
    return out.reshape(dist.shape[:-1] + (k,))


class NeighborIndex:
    """Euclidean k-nearest-neighbor queries over a fixed set of parameters.

    Queries are a brute-force distance scan with ties broken by insertion
    index, which makes them deterministic.
    """

    def __init__(self, params):
        self.params = np.atleast_2d(np.asarray(params, dtype=float))

    def __len__(self):
        return self.params.shape[0]

    def query(self, theta, k):
        """Positions of the k nearest parameters, closest first; ties in
        distance resolve to the smaller position."""
        n = len(self)
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {k}")
        diff = self.params - np.asarray(theta, dtype=float)
        dist = np.einsum("ij,ij->i", diff, diff)
        return nearest(dist, k)


@dataclass(frozen=True)
class RunTable:
    """r simulation runs at each of n parameters, with cached means, the
    eligible rows, and the per-run trace statistics needed for
    likelihood-ratio reweighting.

    ``stats`` packs each run's draw sums and counts under ``trace_model``
    (see ``input_models.pack_stats``); a table without a trace model
    carries none and serves the k-nearest-neighbor estimator only.
    ``lr_params`` are the trace-model parameters of each simulation
    parameter (identical to ``params`` unless the testbed maps them) and
    must lie in the trace model's support; ``lr_coefs`` are their
    likelihood-ratio coefficients.  ``pool`` lists the eligible rows, those
    whose average denominator output is nonzero, and ``index`` searches
    exactly those rows, so no estimator can pool an ineligible one.
    """

    params: np.ndarray  # (n, d)
    y: np.ndarray  # (n, r)
    a: np.ndarray  # (n, r)
    trace_model: object = None
    stats: np.ndarray = None  # (n, r, 2 d_trace)
    lr_params: np.ndarray = None  # (n, d_trace)
    y_mean: np.ndarray = field(init=False)
    a_mean: np.ndarray = field(init=False)
    pool: np.ndarray = field(init=False)  # eligible row indices, ascending
    index: NeighborIndex = field(init=False)  # over params[pool]
    lr_coefs: np.ndarray = field(init=False)  # (n, 2 d_trace), None without stats

    def __post_init__(self):
        if self.y.shape != self.a.shape or self.y.ndim != 2:
            raise ValueError("y and a must both have shape (n, r)")
        if self.params.shape[0] != self.y.shape[0]:
            raise ValueError("one parameter row per run row required")
        if (self.trace_model is None) != (self.stats is None):
            raise ValueError("trace statistics and a trace model come together or not at all")
        lr_params = self.params if self.lr_params is None else self.lr_params
        lr_coefs = None
        if self.trace_model is not None:
            n, r = self.y.shape
            d = self.trace_model.dim
            if self.stats.shape != (n, r, 2 * d):
                raise ValueError(
                    f"trace statistics must pack (n, r, {d}) counts and sums into shape "
                    f"{(n, r, 2 * d)}, got {self.stats.shape}"
                )
            if lr_params.shape != (n, d):
                raise ValueError(f"lr_params must have shape {(n, d)}, got {lr_params.shape}")
            outside = np.flatnonzero(~self.trace_model.support_mask(lr_params))
            if outside.size:
                raise ValueError(
                    f"lr_params rows {outside[:5].tolist()} lie outside the support of "
                    f"{self.trace_model!r}"
                )
            lr_coefs = self.trace_model.coefficients(lr_params)
        a_mean = self.a.mean(axis=1)
        pool = np.flatnonzero(a_mean != 0)
        object.__setattr__(self, "y_mean", self.y.mean(axis=1))
        object.__setattr__(self, "a_mean", a_mean)
        object.__setattr__(self, "lr_params", lr_params)
        object.__setattr__(self, "lr_coefs", lr_coefs)
        object.__setattr__(self, "pool", pool)
        object.__setattr__(self, "index", NeighborIndex(self.params[pool]))

    def neighbors(self, theta, k_y, k_a):
        """Rows of the max(k_y, k_a) nearest eligible parameters, closest first."""
        if self.pool.size == 0:
            raise EstimationError("no eligible simulation parameters to pool from")
        if not (1 <= k_y <= self.pool.size and 1 <= k_a <= self.pool.size):
            raise ValueError(f"pool sizes must lie in [1, {self.pool.size}]")
        return self.pool[self.index.query(theta, max(k_y, k_a))]


def build_run_table(testbed, params, r, rng, collect_stats=True):
    """Simulate r runs at each parameter and assemble the run table."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    n = params.shape[0]
    if r < 1:
        raise ValueError("need at least one run per parameter")
    y = np.empty((n, r))
    a = np.empty((n, r))
    stats = np.empty((n, r, 2 * testbed.trace_model.dim)) if collect_stats else None
    for j in range(n):
        batch = testbed.simulate(params[j], r, rng, collect_stats=collect_stats)
        y[j] = batch.y
        a[j] = batch.a
        if collect_stats:
            stats[j] = pack_stats(batch.counts, batch.sums)
    return RunTable(
        params=params,
        y=y,
        a=a,
        trace_model=testbed.trace_model if collect_stats else None,
        stats=stats,
        lr_params=testbed.lr_param(params) if collect_stats else None,
    )


def std_ratio(y, a):
    """Standard ratio of run means; flags a zero denominator for fallback."""
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    if y.size < 1 or y.shape != a.shape:
        raise ValueError("need matching non-empty run outputs")
    a_bar = float(a.mean())
    if a_bar == 0.0:
        return RatioEstimate(value=0.0, method="std", fallback=True, pooled_denominator=0.0)
    return RatioEstimate(
        value=float(y.mean()) / a_bar, method="std", pooled_denominator=a_bar
    )


def knn_ratio(table, theta_tilde, k_y, k_a):
    """Pooled-mean ratio over the k nearest eligible simulation parameters.

    Numerator and denominator pool k_y and k_a neighbors respectively, both
    taken from the same distance-ordered eligible list.
    """
    nbrs = table.neighbors(theta_tilde, k_y, k_a)
    num = float(table.y_mean[nbrs[:k_y]].mean())
    den = float(table.a_mean[nbrs[:k_a]].mean())
    if den == 0.0:
        raise EstimationError("pooled denominator vanished")
    return RatioEstimate(
        value=num / den, method="knn", k_y=int(k_y), k_a=int(k_a), pooled_denominator=den
    )


def _lr_run_means(table, nbrs, lr_target, k_y, k_a):
    """Likelihood-ratio reweighted run means of the neighbor rows.

    Returns the averages of Y*W over the first ``k_y`` neighbor rows and of
    A*W over the first ``k_a``, with W the trace LR from each run's own
    parameter to the target, plus the clamp counter over all of ``nbrs``.
    """
    if table.trace_model is None:
        raise EstimationError("run table carries no trace statistics")
    log_w = table.trace_model.log_weights(table.stats[nbrs], table.lr_coefs[nbrs], lr_target)
    clamped = int(np.count_nonzero(log_w > LOG_WEIGHT_CLAMP))
    w = np.exp(np.minimum(log_w, LOG_WEIGHT_CLAMP))
    finite = np.isfinite(w)
    if not finite.all():
        w = np.where(finite, w, 0.0)
        denom = np.maximum(finite.sum(axis=1), 1)
        y_lr = (table.y[nbrs[:k_y]] * w[:k_y]).sum(axis=1) / denom[:k_y]
        a_lr = (table.a[nbrs[:k_a]] * w[:k_a]).sum(axis=1) / denom[:k_a]
    else:
        y_lr = (table.y[nbrs[:k_y]] * w[:k_y]).mean(axis=1)
        a_lr = (table.a[nbrs[:k_a]] * w[:k_a]).mean(axis=1)
    return y_lr, a_lr, clamped


def klr_ratio(table, theta_tilde, k_y, k_a, lr_target=None):
    """Ratio of likelihood-ratio reweighted pooled means.

    Each pooled run is reweighted by the trace likelihood ratio from its own
    simulation parameter to the target, which removes the pooling bias of
    the plain k-nearest-neighbor estimator.  ``lr_target`` overrides the
    target's trace-model parameter when the testbed maps parameters.
    """
    nbrs = table.neighbors(theta_tilde, k_y, k_a)
    y_lr, a_lr, clamped = _lr_run_means(
        table, nbrs, theta_tilde if lr_target is None else lr_target, k_y, k_a
    )
    num = float(y_lr.mean())
    den = float(a_lr.mean())
    if den == 0.0:
        raise EstimationError("pooled denominator vanished")
    return RatioEstimate(
        value=num / den,
        method="klr",
        k_y=int(k_y),
        k_a=int(k_a),
        pooled_denominator=den,
        clamped_weights=clamped,
    )


def klr_fallback_k1(table, theta_tilde, lr_target=None):
    """Reweighted ratio pooling only the nearest eligible parameter.

    Used in place of the standard estimator when that estimator's own
    denominator is zero.
    """
    est = klr_ratio(table, theta_tilde, k_y=1, k_a=1, lr_target=lr_target)
    return RatioEstimate(
        value=est.value,
        method="klr",
        k_y=1,
        k_a=1,
        fallback=True,
        pooled_denominator=est.pooled_denominator,
        clamped_weights=est.clamped_weights,
    )
