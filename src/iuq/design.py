"""Experiment-design machinery.

Covers the generation of the two parameter sets of the nested design (the
bootstrap set at which ratios are estimated and the simulation set at which
runs are made), the sample-size rule tying both to the input data size, the
variance-ratio pilot that picks the per-parameter replication count r, and
the cross-validated choice of the pooling size k.
"""

import math
from dataclasses import dataclass

import numpy as np

from .estimators import knn_means
from .input_models import EstimationError, is_finite_real, require_int

# stopping rule of min_enclosing_ellipsoid: the duality gap, which keeps
# large instances fast at a volume error far below the tolerance of any
# consumer here, and an iteration cap
MVEE_GAP_TOL = 5e-4
MVEE_MAX_ITER = 100_000

# cap on the replication count r that anova_select_r returns
PILOT_MAX_R = 10_000


def sample_size_rule(m):
    """Simulation and bootstrap set sizes for input data size m.

    n = floor(m^(6/5)) simulation parameters, n_tilde = max(n, 1000)
    bootstrap parameters.  The small epsilon guards exact powers against
    floating-point round-down.
    """
    m = require_int("m", m, 2)
    n = int(math.floor(m**1.2 + 1e-9))
    return n, max(n, 1000)


@dataclass(frozen=True)
class SimParamSet:
    """Simulation parameter set plus the sampler that produced it."""

    params: np.ndarray  # (n, d)
    mode: str  # "bootstrap" or "ellipsoid"


def bootstrap_params(model, theta_hat, m, n_tilde, rng):
    """The bootstrap parameter set at theta_hat: an (n_tilde, d) array of
    the MLEs of n_tilde fresh size-m resamples from ``model`` at theta_hat."""
    return model.resample_mle(theta_hat, require_int("m", m, 2),
                              require_int("n_tilde", n_tilde, 1), rng)


# -- minimum-volume enclosing ellipsoid ----------------------------------


@dataclass(frozen=True)
class Ellipsoid:
    """Ellipsoid {x : (x - center)' shape (x - center) <= 1}."""

    center: np.ndarray
    shape: np.ndarray

    def membership(self, x):
        """Quadratic form value(s); <= 1 means inside."""
        x = np.asarray(x, dtype=float)
        diff = np.atleast_2d(x) - self.center
        vals = np.einsum("ij,jk,ik->i", diff, self.shape, diff)
        return float(vals[0]) if x.ndim == 1 else vals

    def sampling_transform(self):
        """Matrix L with x = center + L u mapping the unit ball onto the ellipsoid."""
        return np.linalg.cholesky(np.linalg.inv(self.shape))

    def log_volume(self):
        """Natural log of the volume; raises ``ValueError`` when the shape's
        determinant is not positive, since such a shape bounds no ellipsoid."""
        d = self.center.size
        unit = 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)
        sign, logdet = np.linalg.slogdet(self.shape)
        if sign != 1.0:
            raise ValueError(f"shape determinant has sign {sign:g}, not +1: no ellipsoid volume")
        return unit - 0.5 * logdet


def _enclosing(center, shape, points):
    """The ellipsoid (center, shape), its shape scaled down by the worst
    membership among ``points`` so that it contains every one of them."""
    ell = Ellipsoid(center=center, shape=shape)
    worst = float(np.max(ell.membership(points)))
    if worst > 1.0:
        ell = Ellipsoid(center=center, shape=shape / worst)
    return ell


def _ridge_ellipsoid(points, mean, scatter):
    """Fallback for clouds that do not affinely span R^d: the ridge-regularized
    ``scatter`` (covariance) around ``mean``, inflated to contain every point."""
    d = points.shape[1]
    eps = 1e-9 * max(float(np.trace(scatter)), 1.0)
    return _enclosing(mean, np.linalg.inv(scatter + eps * np.eye(d)) / d, points)


def min_enclosing_ellipsoid(points):
    """Minimum-volume enclosing ellipsoid via Khachiyan's algorithm.

    Iterates until the duality gap falls below ``MVEE_GAP_TOL``: the largest
    lifted leverage is at most (d+1)(1 + ``MVEE_GAP_TOL``), the
    epsilon-optimality test of Todd & Yildirim (2007).  At most
    ``MVEE_MAX_ITER`` steps are taken.  The cloud spans R^d affinely when
    n > d and the Cholesky factor L of its scatter S about the mean has every
    L_ii^2 > 1e-12 S_ii, the share of coordinate i's variance left
    unexplained by the earlier coordinates, a rule free of the coordinates'
    units.  A cloud that does not span, or any singular matrix met on the
    way, takes the one ridge entry: the ridge ellipsoid of S.  Either
    result's shape is rescaled so that every input point satisfies
    membership <= 1 exactly.

    Each rank-1 step allocates no array: it writes into buffers made once per
    call and does the floating-point operations of the update
    x_inv <- (x_inv - beta w w') / (1 - step) and its leverage counterpart
    in their written order, so its results are bit for bit those of that
    formula evaluated with fresh arrays.  The lifted inverse x_inv and the
    leverages are two views of one buffer, and the downdate terms beta w w'
    and beta v v the matching views of a second buffer with the same
    layout, so one subtract and one divide over the whole buffer update
    both.  x_inv comes first, so that the matrix products read it from the
    start of an allocation, as they read a fresh array.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    if n == 0 or not np.isfinite(points).all():
        raise ValueError("need at least one point, and only finite coordinates")
    mean = points.mean(axis=0)
    diff = points - mean
    scatter = diff.T @ diff / n
    q = np.vstack([points.T, np.ones(n)])  # lifted (d+1, n)
    qt = q.T  # a view: qt[j] is the lifted point j
    u = np.full(n, 1.0 / n)
    lifted = d + 1.0
    square = (d + 1) ** 2
    state = np.empty(square + n)
    x_inv = state[:square].reshape(d + 1, d + 1)
    leverage = state[square:]
    upd = np.empty(square + n)
    ww = upd[:square].reshape(d + 1, d + 1)
    vv = upd[square:]

    def refresh():
        x_inv[...] = np.linalg.inv((q * u) @ qt)
        leverage[...] = np.einsum("ij,ji->i", qt, x_inv @ q)

    bound = lifted * (1.0 + MVEE_GAP_TOL)
    # step buffers, reused by every rank-1 downdate; the step's two scalars
    # are held in 0-d arrays too, which in-place ufuncs take faster than floats
    w = np.empty(d + 1)
    w_col = w[:, None]
    v = np.empty(n)
    keep_arr = np.empty(())
    beta_arr = np.empty(())
    argmax, item = leverage.argmax, leverage.item
    try:
        if n <= d or (np.diag(np.linalg.cholesky(scatter)) ** 2 <= 1e-12 * np.diag(scatter)).any():
            raise np.linalg.LinAlgError("the cloud does not affinely span R^d")
        refresh()
        for it in range(MVEE_MAX_ITER):
            j = argmax()
            maximum = item(j)
            if maximum <= bound:
                break
            step = (maximum - d - 1.0) / (lifted * (maximum - 1.0))
            keep = 1.0 - step
            keep_arr[()] = keep
            u *= keep_arr
            u[j] += step
            if (it + 1) % 512 == 0:
                # refresh from scratch to keep rank-1 rounding drift in check
                refresh()
                continue
            # rank-1 downdate of the lifted inverse and the membership diagonal:
            # leverage = (leverage - beta v v) / keep and
            # x_inv = (x_inv - beta w w') / keep, written into the buffers
            np.dot(x_inv, qt[j], out=w)
            c = step / keep
            beta_arr[()] = c / (1.0 + c * maximum)
            np.dot(qt, w, out=v)
            np.multiply(beta_arr, v, out=vv)
            vv *= v
            np.multiply(w_col, w, out=ww)
            ww *= beta_arr
            state -= upd
            state /= keep_arr
        center = points.T @ u
        shape = np.linalg.inv((points.T * u) @ points - np.outer(center, center)) / d
    except np.linalg.LinAlgError:
        return _ridge_ellipsoid(points, mean, scatter)
    return _enclosing(center, shape, points)


def sample_in_ellipsoid(ellipsoid, count, rng):
    """``count`` i.i.d. points uniform inside the ellipsoid.

    Uniform in the unit ball (normalized Gaussian direction times a
    U^(1/d) radius) mapped through the ellipsoid's Cholesky factor.
    """
    d, count = ellipsoid.center.size, require_int("count", count, 0)
    g = rng.standard_normal((count, d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = rng.random(count) ** (1.0 / d)
    ball = g / norms * radii[:, None]
    return ellipsoid.center + ball @ ellipsoid.sampling_transform().T


def sample_sim_params(mode, boots, model, theta_hat, m, n, rng):
    """Draw the simulation parameter set.

    ``bootstrap`` mode draws n fresh parametric-bootstrap MLEs, independent
    of the bootstrap set ``boots`` itself; ``ellipsoid`` mode draws uniformly
    inside the minimum-volume ellipsoid enclosing ``boots`` (the array from
    ``bootstrap_params``), redrawing any points that leave the model's
    support; an ``EstimationError`` ends a draw that rejects more than 99%.
    """
    n = require_int("n", n, 1)
    if mode == "bootstrap":
        return SimParamSet(params=bootstrap_params(model, theta_hat, m, n, rng), mode=mode)
    if mode != "ellipsoid":
        raise ValueError(f"unknown sampling mode {mode!r}")
    if boots is None or boots.shape[0] == 0:
        raise ValueError("ellipsoid sampling needs a non-empty bootstrap set")
    ell = min_enclosing_ellipsoid(boots)
    out = np.empty((n, boots.shape[1]))
    filled = 0
    drawn = accepted = 0
    while filled < n:
        want = max(n - filled, 64)
        cand = sample_in_ellipsoid(ell, want, rng)
        ok = model.support_mask(cand)
        drawn += want
        accepted += int(ok.sum())
        take = cand[ok][: n - filled]
        out[filled : filled + take.shape[0]] = take
        filled += take.shape[0]
        if drawn >= 6400 and accepted < 0.01 * drawn:
            raise EstimationError(
                "ellipsoid rejection rate above 99%: the enclosing ellipsoid "
                "lies almost entirely outside the parameter support"
            )
    return SimParamSet(params=out, mode=mode)


# -- pilot selection of the replication count r ---------------------------


@dataclass(frozen=True)
class PilotResult:
    """Replication count chosen by the variance-ratio pilot."""

    r: int
    final_s: int
    zeta_y: float
    zeta_a: float


def zeta_estimate(r, s, b, mst, mse):
    """Estimated ratio of parameter-induced variance to simulation error
    variance at replication count r, from a b-parameter, s-run pilot.

    The (b(s-1) - 2)/(b(s-1)) factor corrects the expectation of the
    mean-square ratio so the estimator is unbiased for r * nu^2 / sigma^2
    under the homoscedastic two-level normal model.
    """
    dof = b * (s - 1)
    if dof <= 2:
        raise ValueError("pilot needs b(s-1) > 2")
    if mse <= 0:
        raise ValueError("within-parameter mean square must be positive")
    return (r / s) * ((dof - 2.0) / dof * (mst / mse) - 1.0)


def _mean_squares(outputs):
    """(MST, MSE) of a (b, s) pilot output table."""
    b, s = outputs.shape
    group_means = outputs.mean(axis=1)
    grand = group_means.mean()
    mse = float(np.sum((outputs - group_means[:, None]) ** 2) / (b * (s - 1)))
    mst = float(s * np.sum((group_means - grand) ** 2) / (b - 1))
    return mst, mse


def anova_select_r(sample_param, simulate, b=50, s0=10, ds=10, c_zeta=0.1,
                   max_s=500, rng=None):
    """Pick the replication count r from a pilot experiment.

    ``sample_param(count, rng)`` draws pilot parameters from the bootstrap
    sampling distribution; ``simulate(theta, runs, rng)`` returns the (Y, A)
    arrays of that many runs.  Runs are added in increments of ``ds`` until
    both variance-ratio estimates are positive; the returned r is the
    smallest integer at which both reach ``c_zeta``, capped at ``PILOT_MAX_R``.
    """
    b, s0, ds = require_int("b", b, 2), require_int("s0", s0, 2), require_int("ds", ds, 1)
    max_s = require_int("max_s", max_s, s0)
    if not (is_finite_real(c_zeta) and c_zeta > 0):
        raise ValueError(f"c_zeta must be finite and positive, got {c_zeta!r}")
    params = sample_param(b, rng)
    ys = np.empty((b, 0))
    as_ = np.empty((b, 0))
    s = 0
    add = s0
    while True:
        new_y = np.empty((b, add))
        new_a = np.empty((b, add))
        for i in range(b):
            yi, ai = simulate(params[i], add, rng)
            new_y[i] = yi
            new_a[i] = ai
        ys = np.hstack([ys, new_y])
        as_ = np.hstack([as_, new_a])
        s += add
        mst_y, mse_y = _mean_squares(ys)
        mst_a, mse_a = _mean_squares(as_)
        zeta1_y = zeta_estimate(1, s, b, mst_y, mse_y)
        zeta1_a = zeta_estimate(1, s, b, mst_a, mse_a)
        if zeta1_y > 0 and zeta1_a > 0:
            break
        if s + ds > max_s:
            raise EstimationError(
                f"pilot did not find positive variance ratios by s={s} "
                f"(zeta_y(s)={s * zeta1_y:.4g}, zeta_a(s)={s * zeta1_a:.4g})"
            )
        add = ds
    binding = min(zeta1_y, zeta1_a)
    r = max(1, math.ceil(c_zeta / binding))
    r = min(r, PILOT_MAX_R)
    return PilotResult(r=r, final_s=s, zeta_y=r * zeta1_y, zeta_a=r * zeta1_a)


# -- cross-validated selection of the pooling size k ----------------------

CV_FOLDS = 5


def make_folds(n):
    """Partition range(n) into ``CV_FOLDS`` contiguous index arrays.

    When the fold count does not divide n, the first n mod ``CV_FOLDS``
    folds receive one extra index.  The partition is deterministic, so the
    numerator and denominator cross-validations of one experiment share it
    (their losses then correlate and the selected pool sizes agree whenever
    the two outputs are strongly dependent).
    """
    return np.array_split(np.arange(require_int("n", n, CV_FOLDS)), CV_FOLDS)


def cv_losses(params, means, ks, folds):
    """Mean per-fold squared prediction errors of k-nearest-neighbor pooling
    (``knn_means``), one list of fold losses per k in ``ks``: each held-out
    parameter's run mean is predicted by the average of the run means of
    its k nearest training-fold parameters."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    if params.shape[0] != np.asarray(means).shape[0]:
        raise ValueError("params and means must align")
    means = np.asarray(means, dtype=float)
    losses = [[] for _ in ks]
    for fold in folds:
        train = np.delete(np.arange(params.shape[0]), fold)  # np.setdiff1d would import numpy.ma
        train_means = means[train]
        preds = knn_means(np.ascontiguousarray(params[train].T), params[fold],
                          [(train_means, k) for k in ks])
        for loss, pred in zip(losses, preds):
            loss.append(float(np.mean((means[fold] - pred) ** 2)))
    return losses


def default_k_grid(n):
    """Geometric candidate grid {2^j} up to half the parameter count."""
    if require_int("n", n, 1) < 4:
        return [1]
    top = int(math.floor(math.log2(n / 2)))
    return [2**j for j in range(1, top + 1)]


def cv_select_k(sim_params, run_means):
    """K-fold cross-validated pooling size.

    Scores every pool size of ``default_k_grid(n)`` on the ``make_folds(n)``
    partition and returns the one with the smallest average fold loss; ties
    go to the smallest.  The grid's top, at most n/2, never exceeds the
    smallest training fold, n - ceil(n / ``CV_FOLDS``).
    """
    params = np.atleast_2d(np.asarray(sim_params, dtype=float))
    n = params.shape[0]
    ks = default_k_grid(n)
    scores = [np.mean(loss) for loss in cv_losses(params, run_means, ks, make_folds(n))]
    return ks[int(np.argmin(scores))]
