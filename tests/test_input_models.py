import math
import re

import numpy as np
import pytest
from scipy.stats import expon, multivariate_normal

from iuq.design import (
    bootstrap_params,
    default_k_grid,
    make_folds,
    min_enclosing_ellipsoid,
    sample_in_ellipsoid,
    sample_sim_params,
)
from iuq.estimators import RunTable, build_run_table, klr_ratio, knn_ratio
from iuq.harness import run_pilot, std_budget_split
from iuq.input_models import (
    EstimationError,
    IndependentExponentials,
    MultivariateNormalKnownCov,
    pack_stats,
)
from iuq.simulators import Mm1Testbed


class TestExponentialSampling:
    def test_draws_positive(self, rng):
        model = IndependentExponentials(1)
        draws = model.sample(np.array([1.0]), rng, size=10_000)
        assert np.all(draws > 0)

    def test_sample_mean_matches_rate(self, rng):
        model = IndependentExponentials(1)
        draws = model.sample(np.array([2.0]), rng, size=1_000_000)
        se = 0.5 / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) < 3 * se

    def test_rejects_nonpositive_rate(self, rng):
        model = IndependentExponentials(2)
        with pytest.raises(ValueError):
            model.sample(np.array([1.0, -0.5]), rng, size=3)

    def test_single_draw_shape(self, rng):
        model = IndependentExponentials(3)
        assert model.sample(np.ones(3), rng).shape == (3,)


class TestMvnSampling:
    def test_sample_covariance_identity(self, rng):
        model = MultivariateNormalKnownCov(np.eye(2))
        draws = model.sample(np.zeros(2), rng, size=1_000_000)
        cov = np.cov(draws.T)
        assert np.max(np.abs(cov - np.eye(2))) < 0.01

    def test_requires_positive_definite_cov(self):
        with pytest.raises(np.linalg.LinAlgError):
            MultivariateNormalKnownCov(np.array([[1.0, 2.0], [2.0, 1.0]]))


def family_log_density(model, theta, z):
    """Exponential-family part of log p(z | theta): <eta(theta), z> - psi(theta).

    Omits the base measure h(z), which does not depend on theta.
    """
    return float(model.natural(theta) @ z - model.log_partition(theta).sum())


class TestLogPdf:
    # the natural parameter and log-partition reproduce the log density
    def test_exponential_at_zero_boundary(self):
        model = IndependentExponentials(1)
        got = family_log_density(model, np.array([1.0]), np.array([0.0]))
        assert got == pytest.approx(0.0)

    def test_exponential_rate_two(self):
        model = IndependentExponentials(1)
        got = family_log_density(model, np.array([2.0]), np.array([1.0]))
        assert got == pytest.approx(math.log(2.0) - 2.0)

    def test_standard_normal_at_mode(self, rng):
        cov = np.array([[1.0, 0.3], [0.3, 2.0]])
        model = MultivariateNormalKnownCov(cov)
        log_det = np.linalg.slogdet(cov)[1]
        for _ in range(10):
            theta, z = rng.normal(size=2), rng.normal(size=2)
            log_base = -0.5 * (2 * math.log(2.0 * math.pi) + log_det + z @ model.prec @ z)
            got = log_base + family_log_density(model, theta, z)
            assert got == pytest.approx(multivariate_normal.logpdf(z, theta, cov))
        # at the mode of N(0, 1) only the normalizing constant remains
        unit = MultivariateNormalKnownCov(np.eye(1))
        assert family_log_density(unit, np.zeros(1), np.zeros(1)) == 0.0


class TestMle:
    def test_exponential_inverse_mean(self):
        model = IndependentExponentials(1)
        assert model.mle(np.array([1.0, 2.0, 3.0])) == pytest.approx([0.5])

    def test_mvn_sample_mean(self):
        model = MultivariateNormalKnownCov(np.eye(2))
        got = model.mle(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert got == pytest.approx([2.0, 3.0])

    def test_constant_exponential_data(self):
        model = IndependentExponentials(1)
        assert model.mle(np.full(7, 4.0)) == pytest.approx([0.25])

    @pytest.mark.parametrize("family", ["exp", "mvn"])
    @pytest.mark.parametrize(
        "dim, data",
        [(1, np.empty((0, 1))), (2, np.empty((0, 2))), (2, np.ones((3, 3))), (2, np.ones(3))],
        ids=["empty", "empty-2d", "wrong-width", "one-column"],
    )
    def test_bad_data_errors(self, family, dim, data):
        if family == "exp":
            model = IndependentExponentials(dim)
        else:
            model = MultivariateNormalKnownCov(np.eye(dim))
        with pytest.raises(EstimationError, match=rf"need non-empty \(m, {dim}\) data"):
            model.mle(data)

    def test_nonpositive_exponential_data_errors(self):
        model = IndependentExponentials(1)
        with pytest.raises(EstimationError):
            model.mle(np.array([1.0, 0.0]))

    def test_mle_converges_to_truth(self, rng):
        model = IndependentExponentials(2)
        truth = np.array([0.7, 1.9])
        errs = []
        for m in (100, 10_000, 1_000_000):
            reps = [
                np.linalg.norm(model.mle(model.sample(truth, rng, size=m)) - truth)
                for _ in range(8)
            ]
            errs.append(np.mean(reps))
        assert errs[0] > errs[1] > errs[2]


class TestResampleMle:
    @pytest.mark.parametrize("family", ["exp", "mvn"])
    @pytest.mark.parametrize(
        "theta_hat, message",
        [([np.nan, 1.0], "outside the support"), ([1.0, 1.0, 1.0], "parameter must have shape")],
        ids=["nan", "wrong-length"],
    )
    def test_bad_theta_hat_raises_before_any_draw(self, family, theta_hat, message):
        if family == "exp":
            model = IndependentExponentials(2)
        else:
            model = MultivariateNormalKnownCov(np.eye(2))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=message):
            model.resample_mle(np.array(theta_hat), 5, 3, rng)
        assert rng.random() == np.random.default_rng(0).random()  # no draw was made

    def test_gamma_underflow_raises(self):
        class ZeroGamma:
            def gamma(self, shape, scale, size):
                out = np.ones(size)
                out[0, 1] = 0.0
                return out

        with pytest.raises(EstimationError, match="degenerate bootstrap resample"):
            IndependentExponentials(2).resample_mle(np.ones(2), 2, 3, ZeroGamma())


def exp_stats(draws):
    """(counts, sums) of per-coordinate exponential draws."""
    counts = np.array([len(b) for b in draws], dtype=float)
    sums = np.array([np.sum(b) for b in draws], dtype=float)
    return counts, sums


def log_lr(model, counts, sums, theta_from, theta_to):
    """``log_weights`` of runs given by counts and sums, from one parameter."""
    return model.log_weights(pack_stats(counts, sums), model.coefficients(theta_from), theta_to)


class TestLogLr:
    def test_identical_parameters_give_zero(self, rng):
        model = IndependentExponentials(2)
        counts, sums = exp_stats([rng.exponential(1.0, size=4), rng.exponential(1.0, size=2)])
        theta = np.array([0.5, 1.5])
        assert log_lr(model, counts, sums, theta, theta) == pytest.approx(0.0)

    def test_single_draw_direct_ratio(self):
        model = IndependentExponentials(1)
        got = log_lr(model, np.array([1.0]), np.array([1.0]), np.array([1.0]), np.array([2.0]))
        assert got == pytest.approx(math.log(2.0) - 1.0)

    def test_antisymmetry(self, rng):
        model = IndependentExponentials(2)
        for _ in range(25):
            counts, sums = exp_stats(
                [rng.exponential(1.0, size=rng.integers(1, 6)) for _ in range(2)]
            )
            a = rng.uniform(0.2, 3.0, size=2)
            b = rng.uniform(0.2, 3.0, size=2)
            forward = log_lr(model, counts, sums, a, b)
            assert forward == pytest.approx(-log_lr(model, counts, sums, b, a))
            assert log_lr(model, counts, sums, a, a) == 0.0

    def test_expected_weight_is_one(self, rng):
        # E[W] = 1 under the sampling measure, checked brute force
        model = IndependentExponentials(1)
        theta, target = 1.0, 2.0
        z = rng.exponential(1.0 / theta, size=1_000_000)
        w = np.exp(math.log(target / theta) - (target - theta) * z)
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - 1.0) < 3 * se

    def test_change_of_measure_reweights_test_function(self, rng):
        # E[g(Z) W] under theta equals E[g(Z)] under the target, g = sum
        model = IndependentExponentials(1)
        theta, target, s = 1.0, 1.3, 4
        z = rng.exponential(1.0 / theta, size=(400_000, s))
        g = z.sum(axis=1)
        log_w = log_lr(
            model, np.full((z.shape[0], 1), float(s)), g[:, None], np.array([theta]),
            np.array([target]),
        )
        vals = g * np.exp(log_w)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - s / target) < 3 * se

    def test_batch_matches_per_trace(self, rng):
        model = IndependentExponentials(3)
        target = rng.uniform(0.5, 2.0, size=3)
        froms = rng.uniform(0.5, 2.0, size=(8, 3))
        counts = rng.integers(1, 5, size=(8, 3)).astype(float)
        sums = counts * rng.uniform(0.3, 2.0, size=(8, 3))
        batch = log_lr(model, counts[:, None], sums[:, None], froms, target)[:, 0]
        for i in range(8):
            single = log_lr(model, counts[i], sums[i], froms[i], target)
            # sum of per-draw log density ratios over draws with these stats
            direct = 0.0
            for c in range(3):
                draws = np.full(int(counts[i, c]), sums[i, c] / counts[i, c])
                direct += np.sum(
                    expon.logpdf(draws, scale=1.0 / target[c])
                    - expon.logpdf(draws, scale=1.0 / froms[i, c])
                )
            assert single == batch[i]
            assert single == pytest.approx(direct)

    def test_mvn_batch_matches_per_trace(self, rng):
        cov = np.array([[1.0, 0.3], [0.3, 2.0]])
        model = MultivariateNormalKnownCov(cov)
        target = np.array([0.4, -0.2])
        for _ in range(10):
            frm = rng.normal(size=2)
            draws = model.sample(frm, rng, size=int(rng.integers(1, 5)))
            counts = np.full(2, float(draws.shape[0]))
            sums = draws.sum(axis=0)
            direct = np.sum(
                multivariate_normal.logpdf(draws, target, cov)
                - multivariate_normal.logpdf(draws, frm, cov)
            )
            batch = log_lr(model, counts[None, :], sums[None, :], frm, target)
            assert batch[0] == pytest.approx(direct)


class TestCoefficients:
    @pytest.mark.parametrize("family", ["exp", "mvn"])
    def test_weight_at_own_parameter_is_exactly_one(self, rng, family):
        # one parameter and a batch containing it give the same coefficients,
        # so the log-LR of a batched run to its own parameter is exactly 0
        if family == "exp":
            model = IndependentExponentials(3)
            thetas = rng.uniform(0.2, 3.0, size=(50, 3))
        else:
            model = MultivariateNormalKnownCov(np.array([[1.0, 0.3, 0.0],
                                                         [0.3, 2.0, 0.4],
                                                         [0.0, 0.4, 0.5]]))
            thetas = rng.normal(size=(50, 3))
        coefs = model.coefficients(thetas)
        stats = rng.uniform(0.5, 5.0, size=(50, 4, 6))
        for i in range(50):
            assert np.array_equal(coefs[i], model.coefficients(thetas[i]))
            assert np.all(model.log_weights(stats[i], coefs[i], thetas[i]) == 0.0)

    def test_matches_natural_and_log_partition_difference(self, rng):
        cov = np.array([[1.0, 0.3], [0.3, 2.0]])
        for model in (IndependentExponentials(2), MultivariateNormalKnownCov(cov)):
            froms = rng.uniform(0.5, 2.0, size=(5, 2))
            target = rng.uniform(0.5, 2.0, size=2)
            counts = rng.integers(1, 5, size=(5, 3, 2)).astype(float)
            sums = counts * rng.uniform(0.3, 2.0, size=(5, 3, 2))
            got = model.log_weights(pack_stats(counts, sums), model.coefficients(froms), target)
            d_eta = model.natural(target) - model.natural(froms)[:, None, :]
            d_psi = model.log_partition(target) - model.log_partition(froms)[:, None, :]
            want = np.sum(sums * d_eta - counts * d_psi, axis=-1)
            assert got.shape == (5, 3)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


class TestSupportMask:
    SPECIAL = [0.0, -0.0, -1.0, 1e-300, 0.5, 2.0, np.inf, -np.inf, np.nan]

    @pytest.mark.parametrize("family", ["exp", "mvn"])
    def test_matches_per_parameter_reference(self, rng, family):
        if family == "exp":
            model = IndependentExponentials(2)
            def supported(t):
                return all(x > 0 and math.isfinite(x) for x in t)
        else:
            model = MultivariateNormalKnownCov(np.eye(2))
            def supported(t):
                return all(math.isfinite(x) for x in t)
        grid = np.array([[a, b] for a in self.SPECIAL for b in self.SPECIAL])
        cloud = np.vstack([grid, rng.normal(size=(199, 2))])  # 280 rows
        mask = model.support_mask(cloud)
        assert mask.tolist() == [supported(t) for t in cloud]
        assert model.support_mask(cloud.reshape(-1, 4, 2)).tolist() == mask.reshape(-1, 4).tolist()

    @pytest.mark.parametrize("family", ["exp", "mvn"])
    def test_check_theta_accepts_exactly_the_masked_rows(self, rng, family):
        if family == "exp":
            model = IndependentExponentials(2)
        else:
            model = MultivariateNormalKnownCov(np.eye(2))
        grid = np.array([[a, b] for a in self.SPECIAL for b in self.SPECIAL])
        cloud = np.vstack([grid, rng.normal(size=(199, 2))])  # 280 rows
        accepted = []
        for theta in cloud:
            try:
                model.check_theta(theta)
            except ValueError as exc:
                assert "outside the support" in str(exc)
                accepted.append(False)
            else:
                accepted.append(True)
        assert accepted == model.support_mask(cloud).tolist()

    def test_wrong_dimension(self):
        model = IndependentExponentials(2)
        with pytest.raises(ValueError):
            model.support_mask(np.ones((4, 3)))


# -- the count rule: every count a public function takes goes through
# require_int at its boundary

EXP2 = IndependentExponentials(2)
MVN2 = MultivariateNormalKnownCov(np.eye(2))
THETA = np.array([1.0, 2.0])
BOOTS = np.random.default_rng(1).uniform(0.5, 1.5, size=(30, 2))
ELLIPSOID = min_enclosing_ellipsoid(BOOTS)
RUNS = RunTable(params=BOOTS, y=np.ones((30, 2)), a=np.ones((30, 2)), trace_model=MVN2,
                stats=np.zeros((30, 2, 4)), lr_params=BOOTS)

# site id: (call(count, rng), argument name, floor)
COUNT_SITES = {
    "sample_sim_params-bootstrap-n": (
        lambda v, rng: sample_sim_params("bootstrap", None, EXP2, THETA, 20, v, rng), "n", 1),
    "sample_sim_params-bootstrap-m": (
        lambda v, rng: sample_sim_params("bootstrap", None, EXP2, THETA, v, 5, rng), "m", 2),
    "sample_sim_params-ellipsoid-n": (
        lambda v, rng: sample_sim_params("ellipsoid", BOOTS, EXP2, THETA, 20, v, rng), "n", 1),
    "bootstrap_params-m": (lambda v, rng: bootstrap_params(EXP2, THETA, v, 5, rng), "m", 2),
    "sample_in_ellipsoid": (lambda v, rng: sample_in_ellipsoid(ELLIPSOID, v, rng), "count", 0),
    "build_run_table": (
        lambda v, rng: build_run_table(Mm1Testbed(), [[0.5, 1.0]], v, rng).y, "r", 1),
    "default_k_grid": (lambda v, rng: default_k_grid(v), "n", 1),
    "knn_ratio-k_y": (lambda v, rng: knn_ratio(RUNS, BOOTS, v, 2), "k_y", 1),
    "knn_ratio-k_a": (lambda v, rng: knn_ratio(RUNS, BOOTS, 2, v), "k_a", 1),
    "klr_ratio-k_y": (lambda v, rng: klr_ratio(RUNS, BOOTS[0], v, 2, BOOTS[0]), "k_y", 1),
    "klr_ratio-k_a": (lambda v, rng: klr_ratio(RUNS, BOOTS[0], 2, v, BOOTS[0]), "k_a", 1),
    "make_folds-n": (lambda v, rng: make_folds(v), "n", 5),
    "std_budget_split": (lambda v, rng: std_budget_split(v, "even"), "budget", 1),
    "run_pilot-seed": (lambda v, rng: run_pilot("mm1", 20, seed=v, b=10, s0=10), "seed", 0),
    "IndependentExponentials": (lambda v, rng: IndependentExponentials(v), "dim", 1),
    "sample-exponential": (lambda v, rng: EXP2.sample(THETA, rng, size=v), "size", 0),
    "sample-normal": (lambda v, rng: MVN2.sample(THETA, rng, size=v), "size", 0),
    "resample_mle-exponential-m": (lambda v, rng: EXP2.resample_mle(THETA, v, 3, rng), "m", 1),
    "resample_mle-exponential-count": (
        lambda v, rng: EXP2.resample_mle(THETA, 5, v, rng), "count", 0),
    "resample_mle-normal-m": (lambda v, rng: MVN2.resample_mle(THETA, v, 3, rng), "m", 1),
    "resample_mle-normal-count": (
        lambda v, rng: MVN2.resample_mle(THETA, 5, v, rng), "count", 0),
}


@pytest.mark.parametrize("kind", ["fraction", "bool", "below-floor"])
@pytest.mark.parametrize("site", COUNT_SITES)
def test_bad_count_raises_the_shared_message_before_any_draw(site, kind):
    call, name, low = COUNT_SITES[site]
    value = {"fraction": low + 1.5, "bool": True, "below-floor": low - 1}[kind]
    rng = np.random.default_rng(0)
    message = re.escape(f"{name} must be an integer >= {low}, got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(value, rng)
    assert rng.random() == np.random.default_rng(0).random()  # no draw was made


@pytest.mark.parametrize("site", COUNT_SITES)
def test_numpy_integer_count_acts_as_int(site):
    call, _, low = COUNT_SITES[site]
    got = call(np.int64(low + 1), np.random.default_rng(0))
    want = call(low + 1, np.random.default_rng(0))
    assert repr(got) == repr(want)
