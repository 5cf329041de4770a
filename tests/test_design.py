import math
from types import SimpleNamespace

import numpy as np
import pytest

from mvee_oracle import min_ellipse_area_bruteforce
from test_estimators import mean_knn
from iuq import design, estimators
from iuq.design import (
    CV_FOLDS,
    anova_select_r,
    bootstrap_params,
    cv_losses,
    cv_select_k,
    default_k_grid,
    make_folds,
    min_enclosing_ellipsoid,
    sample_in_ellipsoid,
    sample_sim_params,
    sample_size_rule,
    zeta_estimate,
)
from iuq.estimators import RunTable, knn_ratio
from iuq.input_models import (
    EstimationError,
    IndependentExponentials,
    MultivariateNormalKnownCov,
)
from iuq.simulators import make_testbed


def allocating_mvee(points, audit=None):
    """The screened Khachiyan loop of ``min_enclosing_ellipsoid`` with every
    step allocating w, v, the outer product and the new leverages and
    inverse: the weights are stored divided by ``shrink``, the inverse and
    leverages multiplied by ``scale``, both fold back at each refresh and on
    exit, and a step updates only the leverages of the points screened
    active.  Returns the ellipsoid and the step count.

    Given a list as ``audit``, the loop also carries every point's leverage
    through the unscreened rank-1 downdates and checks at every step that
    the screened pick is that chain's argmax, that every skipped point's
    leverage there is below (d+1) ``scale``, and that the weights sum to 1
    within 1e-9; it appends the step of each re-screen to the list."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    q = np.vstack([points.T, np.ones(n)])
    u = np.full(n, 1.0 / n)
    level = design._MVEE_SCREEN

    def leverages(x_inv):
        return np.einsum("ij,ji->i", q.T, x_inv @ q)

    def screen(leverage, wake):
        active = np.flatnonzero(leverage >= (d + 1) * wake)
        return active, q[:, active], leverage[active]

    x_inv = np.linalg.inv((q * u) @ q.T)
    full = leverages(x_inv)
    active, block, lev = screen(full, level)
    shrink = scale = 1.0
    wake = level
    for it in range(design.MVEE_MAX_ITER):
        if scale < wake:
            leverage = leverages(x_inv)
            leverage[active] = lev
            wake = scale * level
            active, block, lev = screen(leverage, wake)
            if audit is not None:
                audit.append(it)
        k = int(np.argmax(lev))
        maximum = lev[k] / scale
        j = active[k]
        if audit is not None:
            skipped = np.delete(full, active)
            assert j == np.argmax(full), f"step {it}: picked {j}, not {np.argmax(full)}"
            assert skipped.size == 0 or skipped.max() < (d + 1) * scale, f"step {it}"
            assert abs(u.sum() * shrink - 1.0) <= 1e-9, f"step {it}"
        if maximum <= (d + 1) * (1.0 + design.MVEE_GAP_TOL):
            break
        step = (maximum - d - 1.0) / ((d + 1.0) * (maximum - 1.0))
        shrink *= 1.0 - step
        u[j] += step / shrink
        if (it + 1) % 512 == 0:
            u *= shrink
            shrink = scale = 1.0
            wake = level
            x_inv = np.linalg.inv((q * u) @ q.T)
            full = leverages(x_inv)
            active, block, lev = screen(full, level)
            continue
        w = x_inv @ q[:, j]
        c = step / (1.0 - step)
        beta = c / (1.0 + c * maximum)
        v = block.T @ w
        lev = lev - v * v * (beta / scale)
        if audit is not None:
            v = q.T @ w
            full = full - v * v * (beta / scale)
        x_inv = x_inv - np.outer(w, w) * (beta / scale)
        scale *= 1.0 - step
    u *= shrink
    center = points.T @ u
    shape = np.linalg.inv((points.T * u) @ points - np.outer(center, center)) / d
    return design._enclosing(center, shape, points), it


def textbook_mvee(points):
    """Khachiyan's loop as the textbook writes it, every step multiplying
    the weights by 1 - step and dividing the downdated inverse and
    leverages by it.  Returns the ellipsoid and the step count."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    q = np.vstack([points.T, np.ones(n)])
    u = np.full(n, 1.0 / n)

    def refresh():
        x_inv = np.linalg.inv((q * u) @ q.T)
        return x_inv, np.einsum("ij,ji->i", q.T, x_inv @ q)

    x_inv, leverage = refresh()
    for it in range(design.MVEE_MAX_ITER):
        j = int(np.argmax(leverage))
        maximum = leverage[j]
        if maximum <= (d + 1) * (1.0 + design.MVEE_GAP_TOL):
            break
        step = (maximum - d - 1.0) / ((d + 1.0) * (maximum - 1.0))
        u *= 1.0 - step
        u[j] += step
        if (it + 1) % 512 == 0:
            x_inv, leverage = refresh()
            continue
        w = x_inv @ q[:, j]
        c = step / (1.0 - step)
        beta = c / (1.0 + c * maximum)
        v = q.T @ w
        leverage = (leverage - beta * v * v) / (1.0 - step)
        x_inv = (x_inv - beta * np.outer(w, w)) / (1.0 - step)
    center = points.T @ u
    shape = np.linalg.inv((points.T * u) @ points - np.outer(center, center)) / d
    return design._enclosing(center, shape, points), it


def bootstrap_cloud(name, m, seed):
    """The bootstrap parameter set of one macro of testbed ``name``."""
    testbed = make_testbed(name)
    rng = np.random.default_rng(seed)
    model = testbed.input_model
    theta_hat = model.mle(model.sample(testbed.true_theta, rng, size=m))
    return bootstrap_params(model, theta_hat, m, sample_size_rule(m)[1], rng)


class TestSampleSizeRule:
    @pytest.mark.parametrize(
        "m,n,n_tilde",
        [(50, 109, 1000), (100, 251, 1000), (200, 577, 1000),
         (500, 1732, 1732), (1000, 3981, 3981)],
    )
    def test_table_values(self, m, n, n_tilde):
        assert sample_size_rule(m) == (n, n_tilde)

    def test_exact_power_not_rounded_down(self):
        # 32^(6/5) = 64 exactly; floating-point must not lose it
        assert sample_size_rule(32) == (64, 1000)

    def test_monotone_and_floor(self):
        prev = (0, 0)
        for m in range(2, 2000, 37):
            n, n_tilde = sample_size_rule(m)
            assert n >= prev[0] and n_tilde >= prev[1]
            assert n_tilde >= 1000
            prev = (n, n_tilde)

    def test_small_m_rejected(self):
        for m in (1, 2.5, True):
            with pytest.raises(ValueError):
                sample_size_rule(m)


class TestBootstrapParams:
    def test_concentration_at_large_m(self, rng):
        model = IndependentExponentials(1)
        boots = bootstrap_params(model, np.array([1.0]), 1_000_000, 200, rng)
        assert np.all(np.abs(boots - 1.0) < 0.01)

    def test_empty_set_rejected(self, rng):
        model = IndependentExponentials(1)
        for n_tilde in (0, 2.5, True):
            with pytest.raises(ValueError):
                bootstrap_params(model, np.array([1.0]), 100, n_tilde, rng)

    def test_exponential_mean_matches_mle_bias(self, rng):
        # the rate MLE of a size-m exponential sample has mean
        # theta * m/(m-1); the bootstrap average must sit there, not at theta
        model = IndependentExponentials(1)
        m, n_tilde = 100, 10_000
        boots = bootstrap_params(model, np.array([1.0]), m, n_tilde, rng)
        se = boots.std(ddof=1) / math.sqrt(n_tilde)
        assert abs(boots.mean() - m / (m - 1)) < 3 * se

    def test_mvn_mean_matches_theta_hat(self, rng):
        model = MultivariateNormalKnownCov(np.eye(2))
        theta_hat = np.array([0.3, -1.2])
        boots = bootstrap_params(model, theta_hat, 100, 10_000, rng)
        se = boots.std(axis=0, ddof=1) / math.sqrt(10_000)
        assert np.all(np.abs(boots.mean(axis=0) - theta_hat) < 3 * se)

    def test_matches_explicit_resample_distribution(self, rng):
        # resampled-rate law equals 1/mean of m fresh exponential draws:
        # compare quantiles against the materialized construction
        model = IndependentExponentials(1)
        m, count = 25, 40_000
        fast = bootstrap_params(model, np.array([2.0]), m, count, rng)[:, 0]
        naive = np.array(
            [model.mle(model.sample(np.array([2.0]), rng, size=m))[0] for _ in range(4000)]
        )
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            a, b = np.quantile(fast, q), np.quantile(naive, q)
            assert abs(a - b) / b < 0.05


RANDOM_CLOUDS = [(1, 2), (1, 50), (2, 3), (2, 1000), (3, 40), (5, 300), (13, 14), (13, 500)]
BOOTSTRAP_CLOUDS = [("san", 50), ("mm1", 800), ("erm", 200)]


def random_cloud(d, n):
    """n points of a random affine image of the standard normal in R^d."""
    rng = np.random.default_rng(100 * d + n)
    return rng.standard_normal((n, d)) @ rng.uniform(-1.0, 1.0, (d, d)) + rng.normal(size=d)


def correlated_cloud():
    """1000 correlated normal points in R^2, about 3k Khachiyan steps."""
    return np.random.default_rng(0).standard_normal((1000, 2)) @ np.array(
        [[1.0, 0.4], [0.0, 0.7]])


def sphere_cloud():
    """1000 points on the unit sphere of R^13: at the start almost every
    point's leverage is near d + 1, so the screen skips almost none."""
    g = np.random.default_rng(0).standard_normal((1000, 13))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def heavy_tailed_cloud():
    """500 Cauchy points in R^3: the first steps are long, so ``scale``
    falls fast and the first 512-step window re-screens dozens of times."""
    return np.random.default_rng(1).standard_cauchy((500, 3))


MVEE_CASES = ([("random", dn) for dn in RANDOM_CLOUDS]
              + [("bootstrap", nm) for nm in BOOTSTRAP_CLOUDS] + [("cap", 700)])


def mvee_case(monkeypatch, kind, arg):
    """The cloud of an ``MVEE_CASES`` entry or of a "sphere" or "heavy
    tails" case; the cap case also caps ``MVEE_MAX_ITER`` at ``arg``."""
    if kind == "random":
        return random_cloud(*arg)
    if kind == "bootstrap":
        return bootstrap_cloud(*arg, seed=3)
    if kind == "cap":
        monkeypatch.setattr(design, "MVEE_MAX_ITER", arg)
        return correlated_cloud()
    return {"sphere": sphere_cloud, "heavy tails": heavy_tailed_cloud}[kind]()


class TestMvee:
    def test_four_point_symmetric_unit_circle(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        ell = min_enclosing_ellipsoid(pts)
        assert np.linalg.norm(ell.center) < 1e-6
        assert np.max(np.abs(ell.shape - np.eye(2))) < 1e-4

    def test_duplicated_point_gives_tiny_ball(self):
        pts = np.tile([[2.0, 3.0]], (5, 1))
        ell = min_enclosing_ellipsoid(pts)
        assert ell.center == pytest.approx([2.0, 3.0])
        assert np.all(ell.membership(pts) <= 1.0 + 1e-6)
        radius = 1.0 / math.sqrt(np.linalg.eigvalsh(ell.shape).min())
        assert radius < 1e-3

    def test_collinear_points_fallback_contains(self):
        t = np.linspace(0.0, 1.0, 9)
        pts = np.stack([t, 2.0 * t], axis=1)
        ell = min_enclosing_ellipsoid(pts)
        assert np.all(ell.membership(pts) <= 1.0 + 1e-6)

    def test_containment_random_clouds(self, rng):
        for d in (1, 2, 5):
            pts = rng.standard_normal((300, d)) @ np.diag(rng.uniform(0.5, 2.0, d))
            ell = min_enclosing_ellipsoid(pts)
            assert np.all(ell.membership(pts) <= 1.0 + 1e-6)

    def test_volume_against_bruteforce(self, rng):
        pts = rng.standard_normal((50, 2)) @ np.array([[1.0, 0.4], [0.0, 0.7]])
        ell = min_enclosing_ellipsoid(pts)
        area = math.pi / math.sqrt(np.linalg.det(ell.shape))
        oracle = min_ellipse_area_bruteforce(pts)
        assert abs(area - oracle) / oracle < 0.02

    def test_log_volume_of_unit_circle(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        ell = min_enclosing_ellipsoid(pts)
        assert ell.log_volume() == pytest.approx(math.log(math.pi), abs=1e-4)

    @pytest.mark.parametrize("shape", [np.diag([1.0, -1.0]), np.zeros((2, 2)),
                                       np.diag([-1.0, 2.0, 3.0])],
                             ids=["indefinite", "singular", "negative-determinant"])
    def test_log_volume_rejects_a_shape_without_positive_determinant(self, shape):
        ell = design.Ellipsoid(center=np.zeros(shape.shape[0]), shape=shape)
        with pytest.raises(ValueError, match="not \\+1"):
            ell.log_volume()

    @pytest.mark.parametrize("d, n", RANDOM_CLOUDS)
    def test_steps_match_the_allocating_loop_bit_for_bit(self, d, n):
        pts = random_cloud(d, n)
        ell = min_enclosing_ellipsoid(pts)
        ref, _ = allocating_mvee(pts)
        assert np.array_equal(ell.center, ref.center)
        assert np.array_equal(ell.shape, ref.shape)

    @pytest.mark.parametrize("name, m", BOOTSTRAP_CLOUDS)
    def test_bootstrap_clouds_match_the_allocating_loop_bit_for_bit(self, name, m):
        boots = bootstrap_cloud(name, m, seed=3)
        ell = min_enclosing_ellipsoid(boots)
        ref, steps = allocating_mvee(boots)
        assert steps > 5 * 512  # several refreshes, and rank-1 drift between them
        assert np.array_equal(ell.center, ref.center)
        assert np.array_equal(ell.shape, ref.shape)

    def test_iteration_cap_matches_the_allocating_loop_bit_for_bit(self, monkeypatch):
        # ~3k steps uncapped; a cap of 700 stops one refresh and 188 rank-1
        # steps later, mid-window, where the reference stops too
        pts = correlated_cloud()
        uncapped, uncapped_steps = allocating_mvee(pts)
        monkeypatch.setattr(design, "MVEE_MAX_ITER", 700)
        ell = min_enclosing_ellipsoid(pts)
        ref, last = allocating_mvee(pts)
        assert uncapped_steps > 700 and last == 699
        assert not np.array_equal(ref.shape, uncapped.shape)
        assert np.array_equal(ell.center, ref.center)
        assert np.array_equal(ell.shape, ref.shape)

    @pytest.mark.parametrize("kind, arg", MVEE_CASES)
    def test_deferred_factors_keep_the_textbook_steps(self, monkeypatch, kind, arg):
        # carrying 1 - step in two scalars moves the result by rounding
        # only: the same step count, the same ellipsoid to 1e-9 of its
        # largest entry (allocating_mvee is the library's loop, bit for bit)
        pts = mvee_case(monkeypatch, kind, arg)
        ell, steps = allocating_mvee(pts)
        ref, ref_steps = textbook_mvee(pts)
        assert steps == ref_steps
        for got, want in ((ell.center, ref.center), (ell.shape, ref.shape)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind, arg", MVEE_CASES + [("sphere", None), ("heavy tails", None)])
    def test_the_screen_never_skips_the_pick(self, monkeypatch, kind, arg):
        # the audit carries every leverage through the unscreened downdates
        # and checks each step's pick, skipped points and weight sum
        pts = mvee_case(monkeypatch, kind, arg)
        rescreens = []
        ref, steps = allocating_mvee(pts, audit=rescreens)
        ell = min_enclosing_ellipsoid(pts)
        assert np.array_equal(ell.center, ref.center)
        assert np.array_equal(ell.shape, ref.shape)
        if kind == "heavy tails":
            assert steps > 512 and sum(it < 512 for it in rescreens) >= 30

    @pytest.mark.parametrize("failing", ["first refresh", "512-step refresh", "final inverse"])
    def test_singular_matrix_falls_back_to_ridge(self, monkeypatch, failing):
        # ~3k iterations: the first refresh, six 512-step refreshes and the
        # final scatter inverse are the eight np.linalg.inv calls; a
        # re-screen reads the stored inverse and calls none
        pts = correlated_cloud()
        mean = pts.mean(axis=0)
        diff = pts - mean
        ridge = design._ridge_ellipsoid(pts, mean, diff.T @ diff / len(pts))
        inv = np.linalg.inv
        calls = []
        fail_at = None

        def counting_inv(a):
            calls.append(None)
            if len(calls) == fail_at:
                raise np.linalg.LinAlgError("singular matrix")
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        min_enclosing_ellipsoid(pts)
        assert len(calls) == 8
        fail_at = {"first refresh": 1, "512-step refresh": 2, "final inverse": 8}[failing]
        calls.clear()
        ell = min_enclosing_ellipsoid(pts)
        assert len(calls) == fail_at + 1  # the failing call, then the ridge's inverse
        assert np.array_equal(ell.center, ridge.center)
        assert np.array_equal(ell.shape, ridge.shape)
        assert np.all(ell.membership(pts) <= 1.0 + 1e-9)

    def test_scaled_cloud_gets_the_scaled_ellipsoid(self):
        # the spanning rule reads each coordinate's share of unexplained
        # variance, so a healthy cloud of tiny units is not sent to the ridge
        pts = correlated_cloud()
        s = 1e-14
        ell, tiny = min_enclosing_ellipsoid(pts), min_enclosing_ellipsoid(s * pts)
        np.testing.assert_allclose(tiny.shape, ell.shape / s**2, rtol=1e-9)

    @pytest.mark.parametrize("name, m", [("san", 50), ("mm1", 800), ("erm", 200)])
    def test_spanning_rule_runs_no_svd(self, monkeypatch, name, m):
        boots = bootstrap_cloud(name, m, seed=3)
        ref, _ = allocating_mvee(boots)

        def refuse(*args, **kwargs):
            raise AssertionError("the spanning rule took an SVD")

        monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        ell = min_enclosing_ellipsoid(boots)
        assert np.array_equal(ell.center, ref.center)
        assert np.array_equal(ell.shape, ref.shape)

    @pytest.mark.parametrize("cloud", ["duplicated", "collinear", "3 points in d=5",
                                       "constant coordinate"])
    def test_degenerate_clouds_take_the_ridge_of_their_scatter(self, cloud):
        rng = np.random.default_rng(7)
        t = np.linspace(0.0, 1.0, 9)
        pts = {
            "duplicated": np.tile([[2.0, 3.0]], (5, 1)),
            "collinear": np.stack([t, 2.0 * t], axis=1),
            "3 points in d=5": rng.standard_normal((3, 5)),
            "constant coordinate": np.column_stack([rng.standard_normal((40, 2)),
                                                    np.full(40, 1.5)]),
        }[cloud]
        mean = pts.mean(axis=0)
        diff = pts - mean
        ridge = design._ridge_ellipsoid(pts, mean, diff.T @ diff / len(pts))
        ell = min_enclosing_ellipsoid(pts)
        assert np.array_equal(ell.center, ridge.center)
        assert np.array_equal(ell.shape, ridge.shape)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cloud_is_rejected(self, bad):
        pts = np.random.default_rng(0).standard_normal((50, 2))
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            min_enclosing_ellipsoid(pts)


class TestEllipsoidSampling:
    def test_draws_stay_inside(self, rng):
        pts = rng.standard_normal((40, 3))
        ell = min_enclosing_ellipsoid(pts)
        draws = sample_in_ellipsoid(ell, 5000, rng)
        assert np.all(ell.membership(draws) <= 1.0 + 1e-9)

    def test_unit_disk_mean_is_center(self, rng):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        ell = min_enclosing_ellipsoid(pts)
        draws = sample_in_ellipsoid(ell, 100_000, rng)
        se = 0.5 / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * se)


class TestSampleSimParams:
    def test_bootstrap_mode_concentrates(self, rng):
        model = IndependentExponentials(1)
        sim = sample_sim_params(
            "bootstrap", None, model, np.array([1.0]), 1_000_000, 50, rng
        )
        assert sim.mode == "bootstrap"
        assert np.all(np.abs(sim.params - 1.0) < 0.01)

    def test_ellipsoid_mode_membership_and_support(self, rng):
        model = IndependentExponentials(2)
        theta_hat = np.array([0.5, 1.5])
        boots = bootstrap_params(model, theta_hat, 50, 500, rng)
        sim = sample_sim_params("ellipsoid", boots, model, theta_hat, 50, 400, rng)
        ell = min_enclosing_ellipsoid(boots)
        assert np.all(ell.membership(sim.params) <= 1.0 + 1e-9)
        assert np.all(sim.params > 0)

    def test_ellipsoid_mode_keeps_supported_candidates_in_draw_order(self):
        # a small-m cloud near zero: the ellipsoid crosses the support edge
        model = IndependentExponentials(2)
        theta_hat = np.array([0.05, 1.0])
        boots = bootstrap_params(model, theta_hat, 3, 300, np.random.default_rng(4))
        sim = sample_sim_params("ellipsoid", boots, model, theta_hat, 3, 200,
                                np.random.default_rng(9))
        # replay the draws, keeping the supported candidates of each batch
        ell = min_enclosing_ellipsoid(boots)
        replay = np.random.default_rng(9)
        kept, rejected = [], 0
        while len(kept) < 200:
            cand = sample_in_ellipsoid(ell, max(200 - len(kept), 64), replay)
            ok = model.support_mask(cand).tolist()
            kept.extend(c for c, keep in zip(cand, ok) if keep)
            rejected += ok.count(False)
        assert rejected > 0
        np.testing.assert_array_equal(sim.params, np.array(kept[:200]))

    def test_hopeless_support_rejection_errors(self, rng):
        model = IndependentExponentials(2)
        boots = rng.normal(loc=-9.5, scale=0.1, size=(100, 2))
        with pytest.raises(EstimationError, match="rejection rate above 99%"):
            sample_sim_params("ellipsoid", boots, model, np.array([1.0, 1.0]), 50, 10, rng)

    def test_unknown_mode_rejected(self, rng):
        model = IndependentExponentials(1)
        with pytest.raises(ValueError):
            sample_sim_params("grid", None, model, np.array([1.0]), 50, 10, rng)

    @pytest.mark.parametrize("boots", [None, np.empty((0, 2))], ids=["none", "no-rows"])
    def test_ellipsoid_without_bootstrap_points_rejected(self, boots):
        model, rng = IndependentExponentials(2), np.random.default_rng(0)
        with pytest.raises(ValueError, match="ellipsoid sampling needs a non-empty bootstrap"):
            sample_sim_params("ellipsoid", boots, model, np.array([1.0, 1.0]), 50, 10, rng)
        assert rng.random() == np.random.default_rng(0).random()  # before any draw


class TestZetaEstimate:
    def test_hand_arithmetic(self):
        # b=10, s=5, r=7 and a mean-square ratio of one half:
        # (7/5) * ((38/40) * 0.5 - 1) = -0.735
        got = zeta_estimate(7, 5, 10, mst=1.0, mse=2.0)
        assert got == pytest.approx(-0.735)

    def test_linear_in_r(self):
        one = zeta_estimate(1, 10, 20, mst=3.0, mse=1.0)
        assert zeta_estimate(5, 10, 20, mst=3.0, mse=1.0) == pytest.approx(5 * one)

    def test_unbiased_under_two_level_normal(self, rng):
        # nu2 = 1, sigma2 = 100: E[zeta(r)] = r/100
        b, s, reps = 400, 30, 60
        vals = []
        for _ in range(reps):
            mu = rng.normal(0.0, 1.0, size=b)
            y = mu[:, None] + rng.normal(0.0, 10.0, size=(b, s))
            gm = y.mean(axis=1)
            mse = np.sum((y - gm[:, None]) ** 2) / (b * (s - 1))
            mst = s * np.sum((gm - gm.mean()) ** 2) / (b - 1)
            vals.append(zeta_estimate(1, s, b, mst, mse))
        se = np.std(vals, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(vals) - 0.01) < 3 * se


def by_rows(simulate_row):
    """A pilot ``simulate(params, runs, rng)`` built from a one-parameter
    ``simulate_row(theta, runs, rng)`` returning (y, a): it simulates the
    rows one after another and returns their runs in parameter-major
    order, as a ``Testbed.simulate`` batch holds them."""

    def simulate(params, runs, rng):
        ys, as_ = zip(*(simulate_row(theta, runs, rng) for theta in params))
        return SimpleNamespace(y=np.concatenate(ys), a=np.concatenate(as_))

    return simulate


class _ScriptedPilot:
    """Pilot testbed whose first batch hides the parameter effect."""

    def __init__(self):
        self.calls = 0

    def sample_param(self, count, rng):
        return np.linspace(-1.0, 1.0, count)[:, None]

    def simulate(self, params, runs, rng):
        self.calls += 1
        if self.calls == 1:  # first sweep: pure alternating noise, MST < MSE
            y = np.tile(np.resize([1.0, -1.0], runs), len(params))
        else:  # later sweeps: strong parameter effect
            y = np.repeat(50.0 * params[:, 0], runs) + np.tile(np.resize([0.1, -0.1], runs),
                                                               len(params))
        return SimpleNamespace(y=y, a=y.copy())


def flat_then_noisy(flat_sweeps, flat_outputs="YA"):
    """A pilot ``simulate`` under which parameter i has mean i.  Its first
    ``flat_sweeps`` sweeps give the outputs named in ``flat_outputs``
    exactly that mean, so no within-parameter variance; every other output
    adds unit normal noise.  Its ``sweeps`` list records each call's sizes."""

    def simulate(params, runs, rng):
        simulate.sweeps.append((len(params), runs))
        flat = len(simulate.sweeps) <= flat_sweeps
        means = np.repeat(np.arange(len(params), dtype=float), runs)
        out = {k: means if flat and k in flat_outputs else means + rng.normal(size=means.size)
               for k in "YA"}
        return SimpleNamespace(y=out["Y"], a=out["A"])

    simulate.sweeps = []
    return simulate


class TestAnovaSelectR:
    def test_loop_adds_runs_until_positive(self):
        bed = _ScriptedPilot()
        res = anova_select_r(
            bed.sample_param, bed.simulate, b=4, s0=2, ds=2, c_zeta=0.1, rng=None
        )
        assert res.final_s > 2
        assert min(res.zeta_y, res.zeta_a) >= 0.1

    def test_nonconvergence_errors(self):
        def simulate_row(theta, runs, rng_):
            # alternating outputs keep every group mean at zero, so the
            # between-parameter mean square stays zero and zeta stays negative
            y = np.resize([1.0, -1.0], runs)
            return y, y.copy()

        with pytest.raises(EstimationError, match="pilot"):
            anova_select_r(
                lambda count, rng_: np.zeros((count, 1)),
                by_rows(simulate_row),
                b=5,
                s0=2,
                ds=2,
                c_zeta=0.1,
                max_s=8,
                rng=None,
            )

    def test_zero_within_variance_adds_runs(self, rng):
        # a first sweep with constant outputs per parameter has MSE = 0: the
        # pilot adds ds runs, as for a non-positive ratio, and goes on
        simulate = flat_then_noisy(flat_sweeps=1)
        res = anova_select_r(lambda count, rng_: np.zeros((count, 1)), simulate,
                             b=20, s0=3, ds=4, rng=rng)
        assert res.final_s == 7
        assert simulate.sweeps == [(20, 3), (20, 4)]
        assert min(res.zeta_y, res.zeta_a) >= 0.1 - 1e-12

    @pytest.mark.parametrize("flat_outputs, named", [("A", "in A)"), ("YA", "in Y or A)")])
    def test_zero_within_variance_to_max_s_errors(self, rng, flat_outputs, named):
        simulate = flat_then_noisy(flat_sweeps=10, flat_outputs=flat_outputs)
        with pytest.raises(EstimationError, match=r"by s=8 \(no within-parameter variance") as exc:
            anova_select_r(lambda count, rng_: np.zeros((count, 1)), simulate,
                           b=20, s0=2, ds=3, max_s=10, rng=rng)
        assert str(exc.value).endswith(named)
        assert simulate.sweeps == [(20, 2), (20, 3), (20, 3)]

    def test_constant_non_integer_outputs_have_no_within_variance(self, rng):
        # parameter i's Y is one N(0, 1) value in every run; the mean of
        # equal floats can be an ulp off them, which is not variance
        levels = rng.normal(size=20)

        def simulate(params, runs, rng_):
            return SimpleNamespace(y=np.repeat(levels, runs), a=rng_.normal(size=20 * runs))

        with pytest.raises(EstimationError,
                           match=r"by s=9 \(no within-parameter variance in Y\)$"):
            anova_select_r(lambda count, rng_: np.zeros((count, 1)), simulate,
                           b=20, s0=3, ds=3, max_s=9, rng=rng)

    def test_zero_increment_rejected(self):
        # ds=0 would re-test the same s forever when zeta is not yet positive
        with pytest.raises(ValueError, match="ds"):
            anova_select_r(lambda count, rng_: np.zeros((count, 1)), None, ds=0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"c_zeta": 0.0}, "c_zeta"), ({"c_zeta": -0.1}, "c_zeta"),
         ({"c_zeta": float("nan")}, "c_zeta"), ({"c_zeta": float("inf")}, "c_zeta"),
         ({"s0": 10, "max_s": 9}, "max_s"), ({"b": 4.5}, "b must be an integer"),
         ({"s0": True}, "s0 must be an integer"), ({"ds": 2.5}, "ds must be an integer"),
         ({"c_zeta": True}, "c_zeta"), ({"b": 2, "s0": 2}, r"b\(s0-1\) > 2, got b=2, s0=2")],
        ids=["c_zeta-zero", "c_zeta-negative", "c_zeta-nan", "c_zeta-inf", "max_s-below-s0",
             "b-fraction", "s0-bool", "ds-fraction", "c_zeta-bool", "b-s0-too-few-dof"],
    )
    def test_bad_settings_rejected(self, kwargs, match):
        # simulate=None: every setting is checked before the first sweep
        with pytest.raises(ValueError, match=match):
            anova_select_r(lambda count, rng_: np.zeros((count, 1)), None, **kwargs)

    def test_returned_r_hits_threshold(self, rng):
        def sample_param(count, rng_):
            return rng_.normal(0.0, 1.0, size=(count, 1))

        def simulate_row(theta, runs, rng_):
            y = float(theta[0]) + rng_.normal(0.0, 10.0, size=runs)
            a = float(theta[0]) + rng_.normal(0.0, 1.0, size=runs)
            return y, a

        res = anova_select_r(sample_param, by_rows(simulate_row), b=200, s0=20, rng=rng)
        assert res.r >= 1
        assert min(res.zeta_y, res.zeta_a) >= 0.1 - 1e-12


class TestFolds:
    def test_sizes_first_folds_get_extra(self):
        folds = make_folds(12)
        assert [f.size for f in folds] == [3, 3, 2, 2, 2]
        assert sorted(np.concatenate(folds)) == list(range(12))

    def test_contiguous_by_default(self):
        folds = make_folds(6)
        assert folds[0].tolist() == [0, 1]

    def test_grid_fits_every_training_fold(self):
        # the top pool size, at most n/2, never exceeds n minus the largest fold
        for n in range(CV_FOLDS, 20_001):
            assert default_k_grid(n)[-1] <= n - make_folds(n)[0].size, n


def brute_cv_losses(params, means, ks, folds):
    """Per-fold losses, one list per k, from a full stable sort of each
    fold's distances; each k's prediction is gathered by fancy indexing and
    averaged by ``.mean``."""
    losses = [[] for _ in ks]
    for fold in folds:
        train = np.setdiff1d(np.arange(params.shape[0]), fold)
        diff = params[fold][:, None, :] - params[train][None, :, :]
        dist = np.einsum("ijk,ijk->ij", diff, diff)
        order = np.argsort(dist, axis=1, kind="stable")
        for loss, k in zip(losses, ks):
            pred = means[train][order[:, :k]].mean(axis=1)
            loss.append(float(np.mean((means[fold] - pred) ** 2)))
    return losses


class TestCrossValidation:
    def test_mm1_m800_cloud_equals_the_mean_gather_bit_for_bit(self, rng):
        # the size of an mm1 m=800 design: 3045 parameters, 5 folds, the
        # default grid up to k = 1024; each k's prediction is np.add.reduce
        # and a division, which must give the bits of .mean()
        n = sample_size_rule(800)[0]
        params = rng.uniform([0.3, 1.0], [0.7, 2.0], size=(n, 2))
        means = rng.lognormal(size=n)
        folds = make_folds(n)
        ks = default_k_grid(n)
        assert (n, ks[-1]) == (3045, 1024)
        assert cv_losses(params, means, ks, folds) == brute_cv_losses(params, means, ks, folds)

    def test_hand_computed_losses(self):
        # params 0,1,2,3 with means 0,1,4,9; folds {0,1} and {2,3}, k=1:
        # fold one predicts both from param 2 (errors 16 and 9, mean 12.5);
        # fold two predicts both from param 1 (errors 9 and 64, mean 36.5)
        params = np.array([[0.0], [1.0], [2.0], [3.0]])
        means = np.array([0.0, 1.0, 4.0, 9.0])
        folds = [np.array([0, 1]), np.array([2, 3])]
        assert cv_losses(params, means, [1], folds) == [[12.5, 36.5]]

    def test_means_of_another_length_rejected(self):
        folds = [np.array([0, 1]), np.array([2, 3])]
        with pytest.raises(ValueError, match="params and means must align"):
            cv_losses(np.zeros((4, 1)), np.zeros(3), [1], folds)

    @pytest.mark.parametrize(
        "n, d, integral", [(37, 1, True), (120, 3, False), (300, 2, True), (150, 13, False)]
    )
    def test_losses_match_bruteforce_per_k(self, rng, monkeypatch, n, d, integral):
        # integral coordinates give many tied distances; a 64 KiB block budget
        # splits each fold of the larger clouds into several blocks, and a
        # tiny one builds the distances one held-out row at a time
        if integral:
            params = rng.integers(0, 4, size=(n, d)).astype(float)
        else:
            params = rng.normal(size=(n, d))
        means = rng.normal(size=n)
        folds = make_folds(n)
        ks = [1, 2, 3, 8, n - max(f.size for f in folds)]
        expected = brute_cv_losses(params, means, ks, folds)
        grid = default_k_grid(n)
        grid_losses = brute_cv_losses(params, means, grid, folds)
        best = grid[int(np.argmin([np.mean(losses) for losses in grid_losses]))]
        # the knn estimator takes its targets through the same blocks
        table = RunTable(params=params, y=means[:, None], a=rng.uniform(0.5, 1.5, (n, 1)),
                         trace_model=MultivariateNormalKnownCov(np.eye(d)),
                         stats=np.zeros((n, 1, 2 * d)))
        targets = params[::3] + 0.5
        want = [mean_knn(table, theta, 3, ks[-1]) for theta in targets]
        for budget in (estimators.KNN_BLOCK_BYTES, 2**16, 1):
            monkeypatch.setattr(estimators, "KNN_BLOCK_BYTES", budget)
            assert cv_losses(params, means, ks, folds) == expected
            assert knn_ratio(table, targets, 3, ks[-1]).tolist() == want
            assert cv_select_k(params, means) == best

    def test_tied_nonzero_losses_return_smallest_k(self, monkeypatch):
        # two far-apart halves, each with a constant run mean: every held-out
        # point is predicted from the other half whatever k is, so every
        # candidate scores exactly 1.0
        params = np.concatenate([np.arange(5.0), 100.0 + np.arange(5.0)])[:, None]
        means = np.repeat([0.0, 1.0], 5)
        folds = [np.arange(5), np.arange(5, 10)]
        assert cv_losses(params, means, [1, 2, 3, 5], folds) == [[1.0, 1.0]] * 4
        # equal losses for every grid size: the smallest wins
        monkeypatch.setattr(design, "cv_losses",
                            lambda params, means, ks, folds: [[1.0] * len(folds)] * len(ks))
        ks = default_k_grid(40)
        assert len(ks) > 1 and cv_select_k(np.arange(40.0)[:, None], np.ones(40)) == ks[0]

    def test_constant_response_returns_smallest_k(self, rng):
        params = rng.normal(size=(40, 1))
        means = np.full(40, 7.7)
        assert cv_select_k(params, means) == 2

    def test_noise_level_moves_k_up(self):
        n = 200
        params = (np.arange(n) / n)[:, None]
        signal = params[:, 0]
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        quiet = signal + rng1.normal(0.0, 0.01, size=n)
        loud = signal + rng2.normal(0.0, 2.0, size=n)
        k_quiet = cv_select_k(params, quiet)
        k_loud = cv_select_k(params, loud)
        assert k_quiet < k_loud

    def test_default_grid(self):
        assert default_k_grid(109) == [2, 4, 8, 16, 32]
        assert default_k_grid(3981) == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
