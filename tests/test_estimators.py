import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import kurtosis, skew

from iuq.estimators import (
    LOG_WEIGHT_CLAMP,
    NeighborIndex,
    RunTable,
    build_run_table,
    klr_fallback_k1,
    klr_ratio,
    knn_ratio,
    nearest,
    std_ratio,
)
from iuq.input_models import (
    EstimationError,
    IndependentExponentials,
    MultivariateNormalKnownCov,
    pack_stats,
)
from iuq.simulators import Mm1Testbed


def exp_table(params, y, a, sums=None, n_draws=1):
    """Assemble a RunTable over a 1D exponential trace model."""
    params = np.atleast_2d(np.asarray(params, dtype=float)).reshape(-1, 1)
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    model = IndependentExponentials(1)
    if sums is None:
        sums = np.ones_like(y)
    counts = np.full(y.shape + (1,), float(n_draws))
    return RunTable(
        params=params,
        y=y,
        a=a,
        trace_model=model,
        stats=pack_stats(counts, np.asarray(sums, dtype=float)[..., None]),
    )


def knn_table(params, y, a):
    """Assemble a RunTable without trace statistics, for knn pooling only."""
    return RunTable(
        params=np.atleast_2d(np.asarray(params, dtype=float)).reshape(-1, 1),
        y=np.asarray(y, dtype=float),
        a=np.asarray(a, dtype=float),
    )


class TestStdRatio:
    def test_plain_arithmetic(self):
        est = std_ratio([2.0, 4.0], [1.0, 3.0])
        assert est.value == pytest.approx(1.5)
        assert not est.fallback

    def test_zero_denominator_sets_fallback_flag(self):
        est = std_ratio([1.0, 2.0], [0.0, 0.0])
        assert est.fallback

    def test_identical_outputs_give_one(self):
        vals = [0.3, 1.7, 2.2]
        assert std_ratio(vals, vals).value == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            std_ratio([1.0], [1.0, 2.0])


@st.composite
def tied_distances(draw, dtype, elements):
    """1-D or 2-D arrays over a few values, so most rows tie at the k-th."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 40)),
                           st.tuples(st.integers(1, 6), st.integers(1, 40))))
    dist = draw(hnp.arrays(dtype, shape, elements=elements))
    return dist, draw(st.integers(1, shape[-1]))


class TestNearest:
    @pytest.mark.parametrize(
        "dtype, elements",
        [(np.int64, st.integers(0, 3)),
         (float, st.sampled_from([0.0, 0.5, 1.0, np.inf, np.nan]))],
        ids=["int", "float-inf-nan"],
    )
    @given(data=st.data())
    def test_equals_stable_argsort_prefix(self, dtype, elements, data):
        dist, k = data.draw(tied_distances(dtype, elements))
        expected = np.argsort(dist, axis=-1, kind="stable")[..., :k]
        assert nearest(dist, k).tolist() == expected.tolist()

    def test_k_out_of_range(self):
        for k in (0, 4):
            with pytest.raises(ValueError):
                nearest(np.zeros(3), k)


class TestKnnQuery:
    def test_exact_match_first(self):
        index = NeighborIndex([[0.0], [1.0], [2.0]])
        got = index.query(np.array([1.0]), 2)
        assert got[0] == 1

    def test_distance_ties_break_by_insertion_index(self):
        index = NeighborIndex([[1.0], [-1.0], [1.0]])
        got = index.query(np.array([0.0]), 3)
        assert got.tolist() == [0, 1, 2]

    def test_mask_excludes_nearest(self):
        # the table's index covers its eligible rows only
        table = knn_table([0.0, 1.0, 2.0], y=[[1.0]] * 3, a=[[0.0], [1.0], [1.0]])
        assert table.pool.tolist() == [1, 2]
        assert table.neighbors(np.array([0.1]), 1, 1).tolist() == [1]

    def test_matches_bruteforce_sort(self, rng):
        pts = rng.normal(size=(1000, 3))
        index = NeighborIndex(pts)
        for k in (1, 5, 50):
            target = rng.normal(size=3)
            got = index.query(target, k)
            oracle = np.argsort(np.linalg.norm(pts - target, axis=1), kind="stable")[:k]
            assert got.tolist() == oracle.tolist()

    def test_k_out_of_range(self):
        index = NeighborIndex([[0.0], [1.0]])
        with pytest.raises(ValueError):
            index.query(np.array([0.0]), 3)


class TestKnnRatio:
    def test_two_neighbor_arithmetic(self):
        table = knn_table([0.0, 1.0], y=[[1.0], [3.0]], a=[[1.0], [1.0]])
        est = knn_ratio(table, np.array([0.4]), 2, 2)
        assert est.value == pytest.approx(2.0)

    def test_full_pool_is_grand_mean_ratio(self, rng):
        params = rng.normal(size=(20, 1))
        y = rng.uniform(1.0, 2.0, size=(20, 3))
        a = rng.uniform(0.5, 1.0, size=(20, 3))
        table = knn_table(params, y, a)
        est = knn_ratio(table, np.array([0.0]), 20, 20)
        assert est.value == pytest.approx(
            y.mean(axis=1).mean() / a.mean(axis=1).mean()
        )

    def test_nearest_neighbor_selection(self):
        table = knn_table([0.0, 1.0, 2.0], y=[[5.0], [7.0], [9.0]], a=[[1.0]] * 3)
        est = knn_ratio(table, np.array([0.1]), 1, 1)
        assert est.value == pytest.approx(5.0)

    def test_eligibility_filter_skips_zero_denominators(self):
        table = knn_table([0.0, 1.0, 2.0], y=[[5.0], [7.0], [9.0]],
                          a=[[0.0], [1.0], [1.0]])
        est = knn_ratio(table, np.array([-1.0]), 1, 1)
        assert est.value == pytest.approx(7.0)  # param 0 is ineligible

    def test_no_eligible_parameters_errors(self):
        table = knn_table([0.0, 1.0], y=[[1.0], [1.0]], a=[[0.0], [0.0]])
        with pytest.raises(EstimationError):
            knn_ratio(table, np.array([0.0]), 1, 1)

    def test_storage_order_permutation_invariance(self, rng):
        params = rng.normal(size=(30, 2))
        y = rng.uniform(1.0, 2.0, size=(30, 4))
        a = rng.uniform(0.5, 1.5, size=(30, 4))
        perm = rng.permutation(30)
        t1 = RunTable(params=params, y=y, a=a)
        t2 = RunTable(params=params[perm], y=y[perm], a=a[perm])
        target = rng.normal(size=2)
        for k in (1, 3, 17):
            v1 = knn_ratio(t1, target, k, k).value
            v2 = knn_ratio(t2, target, k, k).value
            assert v1 == pytest.approx(v2, rel=1e-12)


class TestKlrRatio:
    def test_neighbors_at_target_match_knn_exactly(self, rng):
        # every simulation parameter equals the target: weights are exactly
        # one in log space and the two estimators agree bit for bit
        params = np.full((6, 1), 1.3)
        y = rng.uniform(1.0, 2.0, size=(6, 4))
        a = rng.uniform(0.5, 1.5, size=(6, 4))
        sums = rng.uniform(0.5, 2.0, size=(6, 4))
        table = exp_table(params, y, a, sums=sums)
        target = np.array([1.3])
        knn = knn_ratio(table, target, 4, 2)
        klr = klr_ratio(table, target, 4, 2)
        assert klr.value == knn.value

    def test_normal_neighbors_at_target_match_knn_exactly(self, rng):
        model = MultivariateNormalKnownCov(np.array([[1.0, 0.4, 0.1],
                                                     [0.4, 2.0, 0.3],
                                                     [0.1, 0.3, 0.7]]))
        target = np.array([0.3, -1.1, 0.8])
        params = np.tile(target, (6, 1))
        y = rng.uniform(1.0, 2.0, size=(6, 4))
        a = rng.uniform(0.5, 1.5, size=(6, 4))
        stats = pack_stats(np.full((6, 4, 3), 2.0), rng.normal(size=(6, 4, 3)))
        table = RunTable(params=params, y=y, a=a, trace_model=model, stats=stats)
        assert klr_ratio(table, target, 4, 2).value == knn_ratio(table, target, 4, 2).value

    def test_numerator_unbiased_under_reweighting(self, rng):
        # single simulation parameter at rate 1, target rate 1.2, output is
        # the sum of 3 draws: the reweighted pooled mean estimates 3/1.2
        model = IndependentExponentials(1)
        reps, r, s_draws = 20_000, 2, 3
        theta, target = 1.0, 1.2
        vals = np.empty(reps)
        for i in range(reps):
            draws = rng.exponential(1.0 / theta, size=(1, r, s_draws))
            y = draws.sum(axis=2)
            table = RunTable(
                params=np.array([[theta]]),
                y=y,
                a=np.ones_like(y),
                trace_model=model,
                stats=pack_stats(np.full((1, r, 1), float(s_draws)),
                                 draws.sum(axis=2)[..., None]),
            )
            est = klr_ratio(table, np.array([target]), 1, 1)
            # denominator is the mean weight; recover the reweighted numerator
            vals[i] = est.value * est.pooled_denominator
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - s_draws / target) < 3 * se

    def test_constant_denominator_estimates_mean_weight_one(self, rng):
        model = IndependentExponentials(1)
        reps, r = 4000, 5
        means = np.empty(reps)
        for i in range(reps):
            draws = rng.exponential(1.0, size=(1, r, 1))
            table = RunTable(
                params=np.array([[1.0]]),
                y=draws[:, :, 0],
                a=np.ones((1, r)),
                trace_model=model,
                stats=pack_stats(np.ones((1, r, 1)), draws[:, :, 0][..., None]),
            )
            est = klr_ratio(table, np.array([1.25]), 1, 1)
            means[i] = est.pooled_denominator
        se = means.std(ddof=1) / math.sqrt(reps)
        assert abs(means.mean() - 1.0) < 3 * se

    def test_mm1_traces_flow_through(self, rng):
        testbed = Mm1Testbed()
        params = np.array([[0.5, 1.5], [0.6, 1.4], [0.45, 1.6]])
        table = build_run_table(testbed, params, 4, rng)
        est = klr_ratio(table, np.array([0.55, 1.45]), 2, 2)
        assert est.method == "klr"
        assert np.isfinite(est.value)

    def test_missing_trace_stats_errors(self):
        table = RunTable(params=np.array([[1.0]]), y=np.ones((1, 2)), a=np.ones((1, 2)))
        with pytest.raises(EstimationError):
            klr_ratio(table, np.array([1.0]), 1, 1)


class TestRunTable:
    def test_pool_index_and_coefficients(self):
        table = exp_table([2.0, 1.0, 4.0], y=[[1.0]] * 3, a=[[1.0], [0.0], [3.0]])
        assert table.pool.tolist() == [0, 2]
        assert table.index.params.tolist() == [[2.0], [4.0]]
        np.testing.assert_array_equal(
            table.lr_coefs, IndependentExponentials(1).coefficients(table.params)
        )

    def test_table_without_trace_model_serves_knn(self):
        table = RunTable(params=np.array([[0.0], [1.0]]), y=np.ones((2, 2)), a=np.ones((2, 2)))
        assert table.lr_coefs is None
        assert knn_ratio(table, np.array([0.0]), 1, 1).value == 1.0

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"stats": np.ones((3, 2, 3))}, "shape"),  # one count column missing
            ({"stats": np.ones((3, 1, 4))}, "shape"),  # wrong run count
            ({"stats": np.ones((2, 2, 4))}, "shape"),  # wrong row count
            ({"stats": np.ones((3, 2, 4)), "lr_params": np.ones((3, 1))}, "lr_params"),
            ({"stats": None}, "together"),  # model without statistics
            ({"trace_model": None}, "together"),  # statistics without a model
            ({"lr_params": np.array([[1.0, 2.0], [0.0, 1.0], [1.0, np.inf]])},
             r"rows \[1, 2\] lie outside the support"),  # a zero and an infinite rate
        ],
        ids=["stat-columns", "runs", "rows", "lr-params", "model-only", "stats-only",
             "lr-params-support"],
    )
    def test_bad_trace_statistics_rejected_at_build(self, kwargs, match):
        fields = dict(params=np.ones((3, 2)), y=np.ones((3, 2)), a=np.ones((3, 2)),
                      trace_model=IndependentExponentials(2), stats=np.ones((3, 2, 4)))
        fields.update(kwargs)
        with pytest.raises(ValueError, match=match):
            RunTable(**fields)


def reference_klr(params, y, a, model, counts, sums, lr_params, theta, k_y, k_a, lr_target):
    """klr estimate by the per-target formula: eligible mask rebuilt on
    every call, a stable full sort, and the Delta-eta / Delta-psi log-LR of
    each neighbor's own parameter.  Returns (value, clamped count)."""
    eligible = np.flatnonzero(a.mean(axis=1) != 0)
    diff = params[eligible] - theta
    order = np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")
    nbrs = eligible[order[: max(k_y, k_a)]]
    frm = lr_params[nbrs][:, None, :]
    d_eta = model.natural(lr_target) - model.natural(frm)
    d_psi = model.log_partition(lr_target) - model.log_partition(frm)
    log_w = np.sum(sums[nbrs] * d_eta - counts[nbrs] * d_psi, axis=-1)
    clamped = int(np.count_nonzero(log_w > LOG_WEIGHT_CLAMP))
    w = np.exp(np.minimum(log_w, LOG_WEIGHT_CLAMP))
    y_lr = (y[nbrs] * w).mean(axis=1)
    a_lr = (a[nbrs] * w).mean(axis=1)
    return y_lr[:k_y].mean() / a_lr[:k_a].mean(), clamped


class TestKlrReference:
    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(["exp", "mvn"]),
        n=st.integers(2, 12),
        r=st.integers(1, 4),
        d=st.integers(1, 3),
        n_ineligible=st.integers(0, 6),
        clamp=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_per_target_reference(self, family, n, r, d, n_ineligible, clamp,
                                          seed, data):
        rng = np.random.default_rng(seed)
        if family == "exp":
            model = IndependentExponentials(d)
            lr_params = rng.uniform(0.5, 2.0, size=(n, d))
            counts = rng.integers(1, 6, size=(n, r, d)).astype(float)
        else:
            root = rng.normal(size=(d, d))
            model = MultivariateNormalKnownCov(root @ root.T + np.eye(d))
            lr_params = rng.normal(size=(n, d))
            counts = np.repeat(rng.integers(1, 6, size=(n, r, 1)), d, axis=2).astype(float)
        params = lr_params.copy()
        sums = counts * rng.uniform(0.3, 2.0, size=(n, r, d))
        y = rng.uniform(0.5, 2.0, size=(n, r))
        a = rng.uniform(0.5, 1.5, size=(n, r))
        a[rng.permutation(n)[: min(n_ineligible, n - 1)]] = 0.0
        target = params[rng.integers(n)] + rng.normal(scale=0.2, size=d)
        if family == "exp":
            target = np.abs(target) + 0.1
        lr_target = target if family == "exp" else 0.9 * target
        if clamp:
            # the nearest eligible row gets draw sums that push each of its
            # runs' log-weights to lr_target to 800-850, above the clamp
            row = np.flatnonzero(a.mean(axis=1) != 0)[0]
            params[row] = target
            d_eta = model.natural(lr_target) - model.natural(lr_params[row])
            d_psi = model.log_partition(lr_target) - model.log_partition(lr_params[row])
            base = np.sum(sums[row] * d_eta - counts[row] * d_psi, axis=-1)
            sums[row] += ((800.0 + rng.uniform(0, 50, size=r) - base)
                          / (d_eta @ d_eta))[:, None] * d_eta
        n_eligible = int(np.count_nonzero(a.mean(axis=1) != 0))
        k_y = data.draw(st.integers(1, n_eligible), label="k_y")
        k_a = data.draw(st.integers(1, n_eligible), label="k_a")
        table = RunTable(params=params, y=y, a=a, trace_model=model,
                         stats=pack_stats(counts, sums), lr_params=lr_params)
        want, want_clamped = reference_klr(params, y, a, model, counts, sums, lr_params,
                                           target, k_y, k_a, lr_target)
        est = klr_ratio(table, target, k_y, k_a,
                        lr_target=None if family == "exp" else lr_target)
        assert est.value == pytest.approx(want, rel=1e-12)
        assert est.clamped_weights == want_clamped
        if clamp:
            assert want_clamped == r


class TestKlrFallback:
    def test_single_eligible_pooled_regardless_of_distance(self):
        # the ineligible rate 1 is nearest to the target; rate 50 is pooled
        table = exp_table([1.0, 50.0], y=[[1.0], [4.0]], a=[[0.0], [2.0]])
        est = klr_fallback_k1(table, np.array([1.0]), lr_target=np.array([50.0]))
        assert est.fallback and est.k_y == est.k_a == 1
        # the only eligible parameter is at 50, weights at its own parameter
        # equal one when the target matches it
        assert est.value == pytest.approx(2.0)

    def test_zero_distance_eligible_self(self):
        table = exp_table([1.0, 2.0], y=[[2.0], [9.0]], a=[[4.0], [1.0]])
        est = klr_fallback_k1(table, np.array([1.0]))
        assert est.value == pytest.approx(0.5)

    def test_all_ineligible_errors(self):
        table = exp_table([1.0, 2.0], y=[[1.0], [1.0]], a=[[0.0], [0.0]])
        with pytest.raises(EstimationError):
            klr_fallback_k1(table, np.array([1.0]))


class TestKnnCltSanity:
    def test_standardized_replicates_near_normal(self):
        # pooled estimator at k=200, r=10 on the 1D exponential testbed:
        # standardized replicate distribution passes moment checks
        rng = np.random.default_rng(991)
        reps, n, r, k, s_draws = 2000, 500, 10, 200, 3
        target = np.array([1.0])
        vals = np.empty(reps)
        chunk = 100
        for c0 in range(0, reps, chunk):
            c = min(chunk, reps - c0)
            params = rng.uniform(0.8, 1.2, size=(c, n))
            draws = rng.exponential(1.0, size=(c, n, r, s_draws)) / params[..., None, None]
            v = draws.sum(axis=3)
            a = (draws[..., 0] < 1.0).astype(float)
            y = v * a
            y_mean = y.mean(axis=2)
            a_mean = a.mean(axis=2)
            order = np.argsort(np.abs(params - target[0]), axis=1)[:, :k]
            rows = np.arange(c)[:, None]
            vals[c0 : c0 + c] = (
                y_mean[rows, order].mean(axis=1) / a_mean[rows, order].mean(axis=1)
            )
        z = (vals - vals.mean()) / vals.std(ddof=1)
        assert abs(skew(z)) < 0.3
        assert abs(kurtosis(z)) < 0.5
