"""Ratio estimators over a table of simulation runs.

Three estimators of eta(theta) = E[Y|theta]/E[A|theta] at a target
parameter: the standard ratio of that parameter's own run means, the
k-nearest-neighbor ratio that pools run means across nearby simulation
parameters, and the likelihood-ratio variant that reweights each pooled
run to be unbiased for the target parameter before pooling.  The standard
ratio is taken at every eligible row in one vector step, from the table's
row means; the k-nearest-neighbor ratio, like cross validation, takes its
targets in blocks (``knn_means``); the likelihood-ratio variant runs once
per target.

Pooling only ever draws from *eligible* simulation parameters, those whose
average denominator output is nonzero; the filter applies to numerator and
denominator pools alike.  Each pooled mean is ``np.add.reduce`` and a
division by the count, as ``ndarray.mean`` computes it, so the bits are
those of ``.mean()``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .input_models import EstimationError, pack_stats, require_int

# log-weights are clamped here before exponentiation; exp(700) is still
# representable, anything larger would overflow to inf
LOG_WEIGHT_CLAMP = 700.0

# cap on the bytes a knn_means block of queries holds at once.  Per query of
# n points the live arrays are, in turn: distances and one squared difference,
# distances and nearest's partition copy, distances with the keep mask and the
# kept entries, then four k-wide rows and a k-wide mask.  4 MiB blocks score
# as fast as 16 MiB ones and keep the peak resident set lower
KNN_BLOCK_BYTES = 4 * 2**20

# cap on the runs one ``simulate`` call of ``build_run_table`` makes.  A call
# amortises its fixed cost (the parameter check, the M/M/1 generator rewind,
# the batch) over its rows; the cap keeps its scratch, the M/M/1 busy cycles'
# Python numbers and drawn stream above all, to one chunk however large the
# table.  At 2048 runs the mm1 m=800 peak resident set sat about 0.25 MB
# above that of one call per row, and 8192 put it 0.7 MB above
RUN_CHUNK = 2048


@dataclass(frozen=True)
class RatioEstimate:
    """One ratio estimate and its count of clamped likelihood-ratio weights."""

    value: float
    clamped_weights: int = 0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise EstimationError("non-finite ratio estimate")


def nearest(dist, k):
    """Indices of the k smallest entries along the last axis, smallest first.

    Equals ``np.argsort(dist, axis=-1, kind="stable")[..., :k]``: ties go to
    the smaller index.  Each row keeps the entries not above its k-th
    smallest value.  When some row of a block keeps more than k (a tie at
    the k-th value, or a NaN), the whole block is stable-sorted in full.
    Otherwise each row sorts its k kept entries with the default, unstable
    sort, which is exact wherever the ranked values strictly increase; rows
    where they do not (a tie inside the kept prefix, or a NaN when k is the
    row length) are sorted again with the stable sort.

    The 2-D path drops each scratch array after its last use, and drops
    ``dist`` once its kept values are gathered, which frees the block when
    the caller passed its only reference.

    A 1-D ``dist`` (one query) returns from its own fast path, without the
    flat offsets of the block path, when it keeps exactly k entries and they
    strictly increase once sorted.  Any other 1-D row, tied or holding a
    NaN, goes on through the block path as a block of one row, so ties have
    one route.  Both paths gather with ``ndarray.take``, which reads the
    same entries as fancy indexing.
    """
    dist = np.asarray(dist)
    n = dist.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if dist.ndim == 1:
        keep = np.flatnonzero(~(dist > np.partition(dist, k - 1)[k - 1]))
        if keep.size == k:
            vals = dist.take(keep)
            order = vals.argsort()
            ranked = vals.take(order)
            if (ranked[1:] > ranked[:-1]).all():  # no tie and no NaN
                return keep.take(order)
    rows = dist.reshape(-1, n)
    shape = dist.shape[:-1] + (k,)
    dist = None  # rows is the block's last reference here, dropped once gathered
    kth = np.partition(rows, k - 1, axis=1)[:, k - 1 : k].copy()  # frees the partition copy
    keep = rows > kth
    np.invert(keep, out=keep)  # at least k per row; a NaN is kept, so its row is fully sorted
    flat = np.flatnonzero(keep)  # row-major: ascending index within a row
    if flat.size > rows.shape[0] * k:  # a row ties at its k-th value or holds a NaN
        out = np.argsort(rows, axis=1, kind="stable")[:, :k]
    else:
        keep = None
        offsets = np.arange(0, rows.size, n)[:, None]  # flat index of each row's first column
        vals = rows.take(flat)
        rows = None
        start = np.arange(0, flat.size, k)[:, None]  # row offsets into flat
        order = vals.reshape(-1, k).argsort(axis=1)
        order += start
        ranked = vals.take(order)
        rising = ranked[:, 1:] > ranked[:, :-1]  # False at a tie or a NaN
        ranked = None
        if np.count_nonzero(rising) < rising.size:
            redo = ~rising.all(axis=1)
            order[redo] = vals.reshape(-1, k)[redo].argsort(axis=1, kind="stable") + start[redo]
        out = flat.take(order)
        out -= offsets  # flat index to column
    return out.reshape(shape)


def _sq_dists(coords, block):
    """Squared distances from each query of ``block`` to each point of ``coords``."""
    dist = block[:, 0, None] - coords[0]
    dist *= dist
    for c in range(1, coords.shape[0]):
        sq = block[:, c, None] - coords[c]
        sq *= sq
        dist += sq
    return dist


def knn_means(coords, queries, columns):
    """Mean of each ``(values, k)`` column over each query's k nearest points,
    as a (len(columns), q) array, for (d, n) ``coords`` and (q, d) ``queries``.

    Each block of queries selects its nearest points once, for the largest k,
    within ``KNN_BLOCK_BYTES``.  The block's distances go straight into
    ``nearest``, which frees each scratch array after its last use, so a
    query holds, in turn: its distance row and one squared difference; its
    distance row and ``nearest``'s partition copy; its distance row, keep
    mask and kept indices; its distance row, kept indices and kept values;
    then, with the distance row gone, four k-wide rows and a k-wide mask.
    The block size counts 25 bytes a point and 48 a k slot per query, which
    bounds each of these sets with room to spare.
    """
    k_max = max(k for _, k in columns)
    out = np.empty((len(columns), queries.shape[0]))
    step = max(1, KNN_BLOCK_BYTES // (coords.shape[1] * (8 + 8 + 8 + 1) + 6 * 8 * k_max))
    for lo in range(0, queries.shape[0], step):
        order = nearest(_sq_dists(coords, queries[lo : lo + step]), k_max)
        for j, (values, k) in enumerate(columns):
            out[j, lo : lo + step] = np.add.reduce(values.take(order[:, :k]), axis=1) / k
    return out


class NeighborIndex:
    """Euclidean k-nearest-neighbor queries over a fixed set of parameters.

    Queries are a brute-force distance scan with ties broken by insertion
    index, which makes them deterministic.  The parameters are stored
    coordinate-major, as a contiguous (d, n) array, so that each squared
    distance sums over the short leading axis in one pass over n.
    """

    def __init__(self, params):
        self.coords = np.ascontiguousarray(np.atleast_2d(np.asarray(params, dtype=float)).T)

    def query(self, theta, k):
        """Positions of the k nearest parameters, closest first; ties in
        distance resolve to the smaller position."""
        diff = self.coords - np.asarray(theta, dtype=float).reshape(-1, 1)
        return nearest(np.einsum("ji,ji->i", diff, diff), k)


@dataclass(frozen=True)
class RunTable:
    """r simulation runs at each of n parameters, with cached means, the
    eligible rows, and the per-run trace statistics needed for
    likelihood-ratio reweighting.

    ``stats`` packs each run's draw sums and counts under ``trace_model``
    (see ``input_models.pack_stats``) and must be finite; every table
    carries them, although the k-nearest-neighbor estimator reads none.
    The trace model takes the simulation parameters themselves, so
    ``params`` must lie in its support; ``lr_coefs`` are their
    likelihood-ratio coefficients.
    ``pool`` lists the eligible rows, those whose average denominator
    output is nonzero, and ``index`` searches exactly those rows, so no
    estimator can pool an ineligible one.
    """

    params: np.ndarray  # (n, d)
    y: np.ndarray  # (n, r)
    a: np.ndarray  # (n, r)
    trace_model: object
    stats: np.ndarray  # (n, r, 2 d)
    y_mean: np.ndarray = field(init=False)
    a_mean: np.ndarray = field(init=False)
    pool: np.ndarray = field(init=False)  # eligible row indices, ascending
    index: NeighborIndex = field(init=False)  # over params[pool]
    lr_coefs: np.ndarray = field(init=False)  # (n, 2 d)

    def __post_init__(self):
        if self.y.shape != self.a.shape or self.y.ndim != 2:
            raise ValueError("y and a must both have shape (n, r)")
        n, r = self.y.shape
        d = self.trace_model.dim
        if self.params.shape != (n, d):
            raise ValueError(f"params must have shape {(n, d)}, got {self.params.shape}")
        if self.stats.shape != (n, r, 2 * d):
            raise ValueError(
                f"trace statistics must pack (n, r, {d}) counts and sums into shape "
                f"{(n, r, 2 * d)}, got {self.stats.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(self.stats).all(axis=(1, 2)))
        if bad.size:
            raise ValueError(f"trace statistics rows {bad[:5].tolist()} are not finite")
        outside = np.flatnonzero(~self.trace_model.support_mask(self.params))
        if outside.size:
            raise ValueError(f"params rows {outside[:5].tolist()} lie outside the support "
                             f"of {self.trace_model!r}")
        a_mean = self.a.mean(axis=1)
        pool = np.flatnonzero(a_mean != 0)
        object.__setattr__(self, "y_mean", self.y.mean(axis=1))
        object.__setattr__(self, "a_mean", a_mean)
        object.__setattr__(self, "lr_coefs", self.trace_model.coefficients(self.params))
        object.__setattr__(self, "pool", pool)
        object.__setattr__(self, "index", NeighborIndex(self.params[pool]))

    def check_pool_sizes(self, k_y, k_a):
        """(k_y, k_a) as ints; raises unless the table has an eligible row
        and both are integers in [1, number of eligible rows]."""
        if self.pool.size == 0:
            raise EstimationError("every simulation parameter has zero average denominator")
        k_y, k_a = require_int("k_y", k_y, 1), require_int("k_a", k_a, 1)
        if not (k_y <= self.pool.size and k_a <= self.pool.size):
            raise ValueError(f"pool sizes must lie in [1, {self.pool.size}]")
        return k_y, k_a

    def neighbors(self, theta, k_y, k_a):
        """Rows of the max(k_y, k_a) nearest eligible parameters, closest first."""
        k_y, k_a = self.check_pool_sizes(k_y, k_a)
        return self.pool.take(self.index.query(theta, max(k_y, k_a)))


def build_run_table(testbed, params, r, rng):
    """Simulate r runs at each parameter and assemble the run table.

    The parameters are simulated in chunks of consecutive rows, one
    ``simulate`` call per chunk, each chunk holding at most ``RUN_CHUNK``
    runs (one row when r exceeds it).  Each call's parameter-major batch
    is written into the table's y, a and packed statistics by rows, so the
    table, the generator's stream and its end state are those of one call
    per row.
    """
    params = np.atleast_2d(np.asarray(params, dtype=float))
    n, r = params.shape[0], require_int("r", r, 1)
    d = testbed.trace_model.dim
    y = np.empty((n, r))
    a = np.empty((n, r))
    stats = np.empty((n, r, 2 * d))
    rows = max(1, RUN_CHUNK // r)
    for lo in range(0, n, rows):
        chunk = slice(lo, lo + rows)
        batch = testbed.simulate(params[chunk], r, rng)
        y[chunk] = batch.y.reshape(-1, r)
        a[chunk] = batch.a.reshape(-1, r)
        stats[chunk] = pack_stats(batch.counts, batch.sums).reshape(-1, r, 2 * d)
        del batch  # so that the next call's scratch can reuse its memory
    return RunTable(params=params, y=y, a=a, trace_model=testbed.trace_model, stats=stats)


def std_ratio(table):
    """Standard ratio of each eligible row's own run means, in ``pool``
    order; raises ``EstimationError`` if any ratio is not finite."""
    ratios = np.take(table.y_mean, table.pool) / np.take(table.a_mean, table.pool)
    if not np.isfinite(ratios).all():
        raise EstimationError("non-finite ratio estimate")
    return ratios


def knn_ratio(table, thetas, k_y, k_a):
    """Pooled-mean ratio at each row of ``thetas`` (1-D: one row) over its k_y
    and k_a nearest eligible simulation parameters; the first target whose
    pooled denominator is zero or whose ratio is not finite raises."""
    k_y, k_a = table.check_pool_sizes(k_y, k_a)
    thetas, d = np.atleast_2d(np.asarray(thetas, dtype=float)), table.params.shape[1]
    if thetas.shape[1] != d:
        raise ValueError(f"targets must have shape (t, {d}), got {thetas.shape}")
    num, den = knn_means(table.index.coords, thetas, [(table.y_mean[table.pool], k_y),
                                                       (table.a_mean[table.pool], k_a)])
    with np.errstate(all="ignore"):  # a zero or overflowing division is raised below
        ratios = num / den
    for i in np.flatnonzero(~np.isfinite(ratios))[:1]:
        raise EstimationError("pooled denominator vanished" if den[i] == 0
                              else "non-finite ratio estimate")
    return ratios


def _lr_run_means(table, nbrs, theta_tilde, k_y, k_a):
    """Likelihood-ratio reweighted run means of the neighbor rows.

    Returns the averages of Y*W over the first ``k_y`` neighbor rows and of
    A*W over the first ``k_a``, with W the trace LR from each run's own
    parameter to the target, plus the clamp counter over all of ``nbrs``.
    The table's statistics and coefficients are finite, so every weight is
    too, short of a log-weight product past the float range, whose NaN then
    reaches the ratio and is rejected there.  The log-weights and the
    gathered rows are fresh arrays, so the clamp, the exponential and the
    products with W are written into them; the table itself is only read.
    """
    log_w = table.trace_model.log_weights(
        table.stats.take(nbrs, axis=0), table.lr_coefs.take(nbrs, axis=0), theta_tilde
    )
    clamped = int(np.count_nonzero(log_w > LOG_WEIGHT_CLAMP))
    w = np.exp(np.minimum(log_w, LOG_WEIGHT_CLAMP, out=log_w), out=log_w)
    r = w.shape[1]
    y_w = table.y.take(nbrs[:k_y], axis=0)
    y_w *= w[:k_y]
    y_lr = np.add.reduce(y_w, axis=1)
    y_lr /= r
    a_w = table.a.take(nbrs[:k_a], axis=0)
    a_w *= w[:k_a]
    a_lr = np.add.reduce(a_w, axis=1)
    a_lr /= r
    return y_lr, a_lr, clamped


def klr_ratio(table, theta_tilde, k_y, k_a):
    """Ratio of likelihood-ratio reweighted pooled means.

    Each pooled run is reweighted by the trace likelihood ratio from its own
    simulation parameter to the target ``theta_tilde``, which removes the
    pooling bias of the plain k-nearest-neighbor estimator.
    """
    nbrs = table.neighbors(theta_tilde, k_y, k_a)
    y_lr, a_lr, clamped = _lr_run_means(table, nbrs, theta_tilde, k_y, k_a)
    # divide by the row counts, ints even for numpy-integer k_y and k_a
    num = float(np.add.reduce(y_lr)) / len(y_lr)
    den = float(np.add.reduce(a_lr)) / len(a_lr)
    if den == 0.0:
        raise EstimationError("pooled denominator vanished")
    return RatioEstimate(value=num / den, clamped_weights=clamped)


def klr_fallback_k1(table, theta_tilde):
    """Reweighted ratio pooling only the nearest eligible parameter.

    Used in place of the standard estimator when that estimator's own
    denominator is zero.
    """
    return klr_ratio(table, theta_tilde, 1, 1)
