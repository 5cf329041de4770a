import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import kurtosis, skew

from iuq import harness
from iuq.design import default_k_grid, make_folds, sample_size_rule
from iuq.estimators import (
    KNN_BLOCK_BYTES,
    LOG_WEIGHT_CLAMP,
    NeighborIndex,
    RatioEstimate,
    RunTable,
    build_run_table,
    klr_fallback_k1,
    klr_ratio,
    knn_means,
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
from iuq.reference import reference_eta
from iuq.simulators import Mm1Testbed, make_testbed


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
    """Assemble a RunTable for knn pooling: one row per parameter (a flat
    list gives d = 1), a normal trace model, whose support is every finite
    parameter, and zero trace statistics."""
    params = np.asarray(params, dtype=float)
    params = params.reshape(params.shape[0], -1)
    y = np.asarray(y, dtype=float)
    d = params.shape[1]
    return RunTable(
        params=params,
        y=y,
        a=np.asarray(a, dtype=float),
        trace_model=MultivariateNormalKnownCov(np.eye(d)),
        stats=np.zeros(y.shape + (2 * d,)),
    )


class TestStdRatio:
    def test_ratios_of_row_means_in_pool_order(self):
        table = exp_table([1.0, 2.0, 3.0], y=[[2.0, 4.0], [5.0, 1.0], [6.0, 3.0]],
                          a=[[1.0, 3.0], [2.0, 2.0], [1.0, 2.0]])
        assert std_ratio(table).tolist() == [1.5, 1.5, 3.0]

    def test_zero_denominator_row_left_out(self):
        table = exp_table([1.0, 2.0, 3.0], y=[[2.0, 4.0], [1.0, 2.0], [6.0, 3.0]],
                          a=[[1.0, 3.0], [0.0, 0.0], [1.0, 2.0]])
        assert table.pool.tolist() == [0, 2]
        assert std_ratio(table).tolist() == [1.5, 3.0]

    def test_identical_outputs_give_exactly_one(self):
        vals = np.random.default_rng(4).uniform(0.1, 3.0, size=(6, 5))
        assert std_ratio(exp_table(np.arange(1.0, 7.0), vals, vals)).tolist() == [1.0] * 6

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_numerator_raises(self, bad):
        table = exp_table([1.0, 2.0], y=[[1.0, 2.0], [bad, 1.0]], a=[[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(EstimationError, match="non-finite ratio estimate"):
            std_ratio(table)


@st.composite
def tied_distances(draw, dtype, elements):
    """1-D or 2-D arrays of up to 600 columns over a limited set of values,
    so rows tie at the k-th value or inside the kept prefix."""
    width = st.integers(1, 600)
    shape = draw(st.one_of(st.tuples(width), st.tuples(st.integers(1, 6), width)))
    dist = draw(hnp.arrays(dtype, shape, elements=elements))
    return dist, draw(st.integers(1, shape[-1]))


def kept_prefix_ties():
    """Rows of 24 whose 16 smallest form two 8-way ties that the unstable
    sort reorders, beside a row of distinct values."""
    tied = np.arange(24) % 3.0  # 0, 1, 2, 0, 1, 2, ...: 16 entries <= 1
    return np.stack([tied, (np.arange(24) * 7) % 24.0, tied[::-1]])


def nan_ties():
    """Distinct finite values with a NaN at every third position: the NaNs
    are the only ties, and the unstable sort reorders them."""
    dist = np.arange(17.0)[::-1]
    dist[::3] = np.nan
    return dist


class TestNearest:
    @pytest.mark.parametrize(
        "dtype, elements",
        [(np.int64, st.integers(0, 3)),
         (float, st.sampled_from([0.0, 0.5, 1.0, np.inf, np.nan])),
         (float, st.integers(0, 400).map(float))],
        ids=["int", "float-inf-nan", "float-sparse-ties"],
    )
    @given(data=st.data())
    def test_equals_stable_argsort_prefix(self, dtype, elements, data):
        dist, k = data.draw(tied_distances(dtype, elements))
        expected = np.argsort(dist, axis=-1, kind="stable")[..., :k]
        assert nearest(dist, k).tolist() == expected.tolist()

    @pytest.mark.parametrize(
        "dist, k",
        [([1.0, 1.0, 0.0, 5.0, 5.0], 3),
         (kept_prefix_ties()[0], 16),
         ([np.nan, np.inf, 1.0, np.nan, np.inf, 0.0, np.nan], 7),
         (np.tile([np.nan, np.inf, 2.0, 0.0, np.inf, np.nan, 1.0, 2.0], 3), 24),
         (nan_ties(), 17),
         (kept_prefix_ties(), 16)],
        ids=["tie-before-kth", "many-ties-before-kth", "k-is-n-nan-inf", "k-is-n-nan-inf-wide",
             "k-is-n-nan-only", "mixed-rows"],
    )
    def test_ties_inside_the_kept_prefix_resolve_to_the_smaller_index(self, dist, k):
        # each row keeps exactly k entries, so ties can only sit inside them
        dist = np.asarray(dist, dtype=float)
        expected = np.argsort(dist, axis=-1, kind="stable")[..., :k]
        assert nearest(dist, k).tolist() == expected.tolist()

    def test_k_out_of_range(self):
        for k in (0, 4):
            with pytest.raises(ValueError):
                nearest(np.zeros(3), k)


class TestKnnMeansMemory:
    def test_mm1_m800_fold_peaks_within_the_block_budget(self, rng):
        # one cross-validation fold of an mm1 m=800 design: 2436 training
        # points, 609 held-out queries, the default grid up to k = 1024
        n = sample_size_rule(800)[0]
        params = rng.uniform([0.3, 1.0], [0.7, 2.0], size=(n, 2))
        means = rng.lognormal(size=n)
        fold = make_folds(n)[0]
        train = np.setdiff1d(np.arange(n), fold)
        columns = [(means[train], k) for k in default_k_grid(n)]
        points, queries = params[train], params[fold]
        assert (train.size, fold.size, columns[-1][1]) == (2436, 609, 1024)
        knn_means(points, queries, columns)  # first-call allocations outside the trace
        tracemalloc.start()
        try:
            knn_means(points, queries, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= KNN_BLOCK_BYTES


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
        assert table.pool.take(table.index.query(np.array([0.1]), 1)).tolist() == [1]

    def test_matches_bruteforce_sort(self, rng):
        pts = rng.normal(size=(1000, 3))
        index = NeighborIndex(pts)
        for k in (1, 5, 50):
            target = rng.normal(size=3)
            got = index.query(target, k)
            oracle = np.argsort(np.linalg.norm(pts - target, axis=1), kind="stable")[:k]
            assert got.tolist() == oracle.tolist()

    @pytest.mark.parametrize("d, integral", [(2, False), (2, True), (13, False)])
    def test_matches_row_major_distance_reference(self, rng, d, integral):
        # the index sums squared differences over its coordinate-major copy;
        # the order must equal that of the row-major sum
        if integral:
            pts = rng.integers(0, 4, size=(600, d)).astype(float)
        else:
            pts = rng.normal(size=(600, d))
        index = NeighborIndex(pts)
        for k in (1, 7, 128, 600):
            target = np.round(rng.normal(size=d)) if integral else rng.normal(size=d)
            diff = pts - target
            oracle = np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")[:k]
            assert index.query(target, k).tolist() == oracle.tolist()

    def test_k_out_of_range(self):
        index = NeighborIndex([[0.0], [1.0]])
        with pytest.raises(ValueError):
            index.query(np.array([0.0]), 3)


class TestKnnRatio:
    def test_two_neighbor_arithmetic(self):
        table = knn_table([0.0, 1.0], y=[[1.0], [3.0]], a=[[1.0], [1.0]])
        est = knn_ratio(table, np.array([0.4]), 2, 2)
        assert est[0] == pytest.approx(2.0)

    def test_full_pool_is_grand_mean_ratio(self, rng):
        params = rng.normal(size=(20, 1))
        y = rng.uniform(1.0, 2.0, size=(20, 3))
        a = rng.uniform(0.5, 1.0, size=(20, 3))
        table = knn_table(params, y, a)
        est = knn_ratio(table, np.array([0.0]), 20, 20)
        assert est[0] == pytest.approx(
            y.mean(axis=1).mean() / a.mean(axis=1).mean()
        )

    def test_nearest_neighbor_selection(self):
        table = knn_table([0.0, 1.0, 2.0], y=[[5.0], [7.0], [9.0]], a=[[1.0]] * 3)
        est = knn_ratio(table, np.array([0.1]), 1, 1)
        assert est[0] == pytest.approx(5.0)

    def test_eligibility_filter_skips_zero_denominators(self):
        table = knn_table([0.0, 1.0, 2.0], y=[[5.0], [7.0], [9.0]],
                          a=[[0.0], [1.0], [1.0]])
        est = knn_ratio(table, np.array([-1.0]), 1, 1)
        assert est[0] == pytest.approx(7.0)  # param 0 is ineligible

    def test_no_eligible_parameters_errors(self):
        table = knn_table([0.0, 1.0], y=[[1.0], [1.0]], a=[[0.0], [0.0]])
        with pytest.raises(EstimationError):
            knn_ratio(table, np.array([0.0]), 1, 1)

    @pytest.mark.parametrize("order, message", [((0, 1, 2), "pooled denominator vanished"),
                                                ((2, 1, 0), "non-finite ratio estimate")])
    def test_first_failing_target_names_the_error(self, order, message):
        # target 0.5 pools a means 1 and -1, target 10.5 an infinite y mean,
        # target 20 nothing amiss; the first failing target in order decides
        table = knn_table([0.0, 1.0, 10.0, 11.0, 20.0], y=[[1.0], [1.0], [np.inf], [1.0], [1.0]],
                          a=[[1.0], [-1.0], [1.0], [1.0], [1.0]])
        targets = np.array([[0.5], [10.5], [20.0]])[list(order)]
        with pytest.raises(EstimationError, match=message):
            knn_ratio(table, targets, 2, 2)
        assert knn_ratio(table, [20.0], 1, 1).tolist() == [1.0]

    @pytest.mark.parametrize("targets", [[[0.0, 1.0]], [0.0, 1.0], np.zeros((3, 2))])
    def test_targets_of_another_width_rejected(self, targets):
        # a 1-D target is one row; a table over d = 1 takes no second column
        table = knn_table([0.0, 1.0, 2.0], y=[[1.0]] * 3, a=[[1.0]] * 3)
        with pytest.raises(ValueError, match=r"targets must have shape \(t, 1\)"):
            knn_ratio(table, targets, 1, 1)

    def test_storage_order_permutation_invariance(self, rng):
        params = rng.normal(size=(30, 2))
        y = rng.uniform(1.0, 2.0, size=(30, 4))
        a = rng.uniform(0.5, 1.5, size=(30, 4))
        perm = rng.permutation(30)
        t1 = knn_table(params, y, a)
        t2 = knn_table(params[perm], y[perm], a[perm])
        target = rng.normal(size=2)
        for k in (1, 3, 17):
            v1 = knn_ratio(t1, target, k, k)[0]
            v2 = knn_ratio(t2, target, k, k)[0]
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
        assert klr.value == knn[0]

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
        assert (klr_ratio(table, target, 4, 2).value
                == knn_ratio(table, target, 4, 2)[0])

    def test_ineligible_nearest_row_is_skipped(self):
        # row 0 is nearest to the target but has zero average denominator and
        # a Y of its own; at k = 1 the estimate is row 1's reweighted ratio
        table = exp_table([1.0, 1.5, 3.0], y=[[100.0, 100.0], [2.0, 3.0], [5.0, 7.0]],
                          a=[[0.0, 0.0], [1.0, 2.0], [1.0, 1.0]],
                          sums=[[1.0, 1.0], [0.4, 1.7], [0.2, 0.9]])
        target = 1.05
        w = target / 1.5 * np.exp(-(target - 1.5) * np.array([0.4, 1.7]))
        want = np.mean([2.0, 3.0] * w) / np.mean([1.0, 2.0] * w)
        est = klr_ratio(table, np.array([target]), 1, 1)
        assert est.value == pytest.approx(want, rel=1e-12)
        assert est.clamped_weights == 0

    def test_numerator_unbiased_under_reweighting(self, rng):
        # single simulation parameter at rate 1, target rate 1.2, output is
        # the sum of 3 draws: the reweighted pooled mean estimates 3/1.2
        model = IndependentExponentials(1)
        reps, r, s_draws = 20_000, 2, 3
        theta, target = 1.0, np.array([1.2])
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
            est = klr_ratio(table, target, 1, 1)
            # denominator is the mean weight; recover the reweighted numerator
            weights = np.exp(model.log_weights(table.stats[0], table.lr_coefs[0], target))
            vals[i] = est.value * weights.mean()
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - s_draws / target[0]) < 3 * se

    def test_constant_denominator_estimates_mean_weight_one(self, rng):
        model = IndependentExponentials(1)
        reps, r = 4000, 5
        target = np.array([1.25])
        means = np.empty(reps)
        values = np.empty(reps)
        want = np.empty(reps)
        for i in range(reps):
            draws = rng.exponential(1.0, size=(1, r, 1))
            table = RunTable(
                params=np.array([[1.0]]),
                y=draws[:, :, 0],
                a=np.ones((1, r)),
                trace_model=model,
                stats=pack_stats(np.ones((1, r, 1)), draws[:, :, 0][..., None]),
            )
            # with A = 1 the pooled denominator is the mean weight
            weights = np.exp(model.log_weights(table.stats[0], table.lr_coefs[0], target))
            means[i] = weights.mean()
            values[i] = klr_ratio(table, target, 1, 1).value
            want[i] = (table.y[0] * weights).mean() / means[i]
        np.testing.assert_allclose(values, want, rtol=1e-12)
        se = means.std(ddof=1) / math.sqrt(reps)
        assert abs(means.mean() - 1.0) < 3 * se

    def test_underflowing_weights_vanish_the_denominator(self):
        # rate 1 to 2 with a draw sum of 2000: log-weight log 2 - 2000, whose
        # exponential underflows to 0, so every pooled A weight is 0
        table = exp_table([1.0, 1.1], y=[[1.0], [1.0]], a=[[1.0], [1.0]],
                          sums=[[2000.0], [2000.0]])
        with pytest.raises(EstimationError, match="pooled denominator vanished"):
            klr_ratio(table, np.array([2.0]), 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_estimate_rejected(self, bad):
        with pytest.raises(EstimationError, match="non-finite ratio estimate"):
            RatioEstimate(value=bad)

    def test_mm1_traces_flow_through(self, rng):
        testbed = Mm1Testbed()
        params = np.array([[0.5, 1.5], [0.6, 1.4], [0.45, 1.6]])
        table = build_run_table(testbed, params, 4, rng)
        target = np.array([0.55, 1.45])
        est = klr_ratio(table, target, 2, 2)
        assert np.isfinite(est.value)


class TestRunTable:
    def test_pool_index_and_coefficients(self):
        table = exp_table([2.0, 1.0, 4.0], y=[[1.0]] * 3, a=[[1.0], [0.0], [3.0]])
        assert table.pool.tolist() == [0, 2]
        assert table.index.coords.tolist() == [[2.0, 4.0]]  # coordinate-major (d, n)
        np.testing.assert_array_equal(
            table.lr_coefs, IndependentExponentials(1).coefficients(table.params)
        )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"stats": np.ones((3, 2, 3))}, "shape"),  # one count column missing
            ({"stats": np.ones((3, 1, 4))}, "shape"),  # wrong run count
            ({"stats": np.ones((2, 2, 4))}, "shape"),  # wrong row count
            ({"params": np.ones((3, 1))}, r"params must have shape \(3, 2\)"),
            ({"params": np.ones((2, 2))}, r"params must have shape \(3, 2\)"),
            ({"params": np.array([[1.0, 2.0], [0.0, 1.0], [1.0, np.inf]])},
             r"params rows \[1, 2\] lie outside the support"),  # a zero and an infinite rate
            ({"a": np.ones((3, 1))}, "y and a"),  # one run per row fewer than y
            ({"stats": np.array([1.0, np.nan, np.inf]).repeat(8).reshape(3, 2, 4)},
             r"trace statistics rows \[1, 2\] are not finite"),  # NaN and infinite sums
        ],
        ids=["stat-columns", "runs", "rows", "params-width", "params-rows", "params-support",
             "y-a-shapes", "non-finite"],
    )
    def test_bad_trace_statistics_rejected_at_build(self, kwargs, match):
        fields = dict(params=np.ones((3, 2)), y=np.ones((3, 2)), a=np.ones((3, 2)),
                      trace_model=IndependentExponentials(2), stats=np.ones((3, 2, 4)))
        fields.update(kwargs)
        with pytest.raises(ValueError, match=match):
            RunTable(**fields)

    @pytest.mark.parametrize("k_y, k_a", [(3, 1), (1, 3)])
    def test_pool_sizes_beyond_the_eligible_rows_rejected(self, k_y, k_a):
        # two of the three rows are eligible
        table = exp_table([2.0, 1.0, 4.0], y=[[1.0]] * 3, a=[[1.0], [0.0], [3.0]])
        with pytest.raises(ValueError, match=r"pool sizes must lie in \[1, 2\]"):
            table.check_pool_sizes(k_y, k_a)

    @pytest.mark.parametrize("name", ["san", "mm1", "erm"])
    @pytest.mark.parametrize(
        "n, r, rows_per_call",
        [(7, 3, [3, 3, 1]), (3, 12, [1, 1, 1])],
        ids=["runs-not-a-multiple-of-the-chunk", "r-above-the-chunk"],
    )
    def test_chunked_table_equals_the_per_row_loop(self, monkeypatch, name, n, r,
                                                    rows_per_call):
        from iuq import estimators

        monkeypatch.setattr(estimators, "RUN_CHUNK", 10)
        testbed = make_testbed(name)
        simulate, calls = testbed.simulate, []

        def recording(theta, n_runs, rng):
            calls.append(len(theta))
            return simulate(theta, n_runs, rng)

        monkeypatch.setattr(testbed, "simulate", recording)
        params = testbed.true_theta * np.linspace(0.8, 1.2, n)[:, None]
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        table = build_run_table(testbed, params, r, rng)
        batches = [simulate(theta, r, ref_rng) for theta in params]
        assert calls == rows_per_call
        assert table.y.tobytes() == np.stack([b.y for b in batches]).tobytes()
        assert table.a.tobytes() == np.stack([b.a for b in batches]).tobytes()
        stats = np.stack([pack_stats(b.counts, b.sums) for b in batches])
        assert table.stats.tobytes() == stats.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def reference_klr(params, y, a, model, counts, sums, theta, k_y, k_a):
    """klr estimate by the per-target formula: eligible mask rebuilt on
    every call, a stable full sort, and the Delta-eta / Delta-psi log-LR
    from each neighbor's own parameter to theta.  Returns (value, clamped
    count)."""
    eligible = np.flatnonzero(a.mean(axis=1) != 0)
    diff = params[eligible] - theta
    order = np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")
    nbrs = eligible[order[: max(k_y, k_a)]]
    frm = params[nbrs][:, None, :]
    d_eta = model.natural(theta) - model.natural(frm)
    d_psi = model.log_partition(theta) - model.log_partition(frm)
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
            params = rng.uniform(0.5, 2.0, size=(n, d))
            counts = rng.integers(1, 6, size=(n, r, d)).astype(float)
        else:
            root = rng.normal(size=(d, d))
            model = MultivariateNormalKnownCov(root @ root.T + np.eye(d))
            params = rng.normal(size=(n, d))
            counts = np.repeat(rng.integers(1, 6, size=(n, r, 1)), d, axis=2).astype(float)
        sums = counts * rng.uniform(0.3, 2.0, size=(n, r, d))
        y = rng.uniform(0.5, 2.0, size=(n, r))
        a = rng.uniform(0.5, 1.5, size=(n, r))
        a[rng.permutation(n)[: min(n_ineligible, n - 1)]] = 0.0
        target = params[rng.integers(n)] + rng.normal(scale=0.2, size=d)
        if family == "exp":
            target = np.abs(target) + 0.1
        if clamp:
            # the first eligible row moves nearest to the target, off it by
            # a quarter of the other rows' least distance at most, and gets
            # draw sums that push each of its runs' log-weights to the
            # target to 800-850, above the clamp
            row = np.flatnonzero(a.mean(axis=1) != 0)[0]
            gap = np.sqrt(((np.delete(params, row, axis=0) - target) ** 2).sum(axis=1)).min()
            params[row] = target + min(0.05, gap / 4) / math.sqrt(d)
            d_eta = model.natural(target) - model.natural(params[row])
            d_psi = model.log_partition(target) - model.log_partition(params[row])
            base = np.sum(sums[row] * d_eta - counts[row] * d_psi, axis=-1)
            sums[row] += ((800.0 + rng.uniform(0, 50, size=r) - base)
                          / (d_eta @ d_eta))[:, None] * d_eta
        n_eligible = int(np.count_nonzero(a.mean(axis=1) != 0))
        k_y = data.draw(st.integers(1, n_eligible), label="k_y")
        k_a = data.draw(st.integers(1, n_eligible), label="k_a")
        table = RunTable(params=params, y=y, a=a, trace_model=model,
                         stats=pack_stats(counts, sums))
        want, want_clamped = reference_klr(params, y, a, model, counts, sums, target, k_y, k_a)
        est = klr_ratio(table, target, k_y, k_a)
        assert est.value == pytest.approx(want, rel=1e-12)
        assert est.clamped_weights == want_clamped
        if clamp:
            assert want_clamped == r


def sorted_neighbors(table, theta, k):
    """Eligible rows of the k nearest parameters by a full stable sort."""
    diff = table.index.coords - np.asarray(theta, dtype=float).reshape(-1, 1)
    return np.take(table.pool, np.argsort(np.einsum("ji,ji->i", diff, diff), kind="stable")[:k])


def mean_knn(table, theta, k_y, k_a):
    """knn estimate by ``np.take`` gathers and ``.mean`` calls: the bits the
    estimator's ``np.add.reduce`` means and divisions must reproduce."""
    nbrs = sorted_neighbors(table, theta, max(k_y, k_a))
    return (float(np.take(table.y_mean, nbrs[:k_y]).mean())
            / float(np.take(table.a_mean, nbrs[:k_a]).mean()))


def mean_klr(table, theta, k_y, k_a):
    """klr estimate and clamp count by the same per-target formula."""
    nbrs = sorted_neighbors(table, theta, max(k_y, k_a))
    log_w = table.trace_model.log_weights(np.take(table.stats, nbrs, axis=0),
                                          np.take(table.lr_coefs, nbrs, axis=0), theta)
    clamped = int(np.count_nonzero(log_w > LOG_WEIGHT_CLAMP))
    w = np.exp(np.minimum(log_w, LOG_WEIGHT_CLAMP))
    y_lr = (np.take(table.y, nbrs[:k_y], axis=0) * w[:k_y]).mean(axis=1)
    a_lr = (np.take(table.a, nbrs[:k_a], axis=0) * w[:k_a]).mean(axis=1)
    return float(y_lr.mean()) / float(a_lr.mean()), clamped


@pytest.fixture(scope="module", params=["mm1", "san", "erm"])
def macro_table(request):
    """The run table, bootstrap targets, pool sizes and estimates of one klr
    macro (m=20, seed 0, macro 0) of the parametrized testbed."""
    seen = {}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] = result = fn(*args, **kwargs)
            return result
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("build_run_table", "bootstrap_params", "run_iuq_knn_klr"):
            mp.setattr(harness, name, recording(name, getattr(harness, name)))
        cfg = harness.ExperimentConfig(model=request.param, m=20, estimator="klr", seed=0,
                                       macros=1)
        _, row, err = harness._run_single_macro(cfg, cfg.testbed, 0,
                                                reference_eta(request.param))
    assert err is None
    estimates, _ = seen["run_iuq_knn_klr"]
    boots = seen["bootstrap_params"]
    return seen["build_run_table"], boots, row.k_y, row.k_a, estimates


def only_read_table(case):
    """A 12-row exponential table whose row 0 is nearest to the returned
    target; ``case`` 'clamp' pushes row 0's log-weights above the clamp.
    Returns (table, target)."""
    rng = np.random.default_rng(11)
    n, r = 12, 5
    params = rng.uniform(0.5, 2.0, n)
    y = rng.uniform(0.5, 2.0, (n, r))
    a = rng.uniform(0.5, 1.5, (n, r))
    sums = rng.uniform(0.3, 2.0, (n, r))
    # row 0 is the nearest, a quarter of the least gap to the others below it
    step = np.abs(params[1:] - params[0]).min() / 4
    target = np.array([params[0] - step])
    if case == "clamp":
        sums[0] = 1500.0 / step  # log-weights of about 1500 + log(target / params[0])
    return exp_table(params, y, a, sums=sums), target


class TestPerTargetBits:
    # the estimators' means are np.add.reduce and a division; they must give
    # the bits of the .mean() formulas above, not merely agree to rel 1e-12

    def test_macro_estimates_equal_the_mean_formulas(self, macro_table):
        table, boots, k_y, k_a, estimates = macro_table
        assert table.y.shape[1] > 1 and k_y > 1 and k_a > 1
        want_knn, want_klr, got_knn, got_klr = [], [], [], []
        for theta in boots:
            want_knn.append(mean_knn(table, theta, k_y, k_a))
            got_knn.append(knn_ratio(table, theta, k_y, k_a)[0])
            want_klr.append(mean_klr(table, theta, k_y, k_a))
            est = klr_ratio(table, theta, k_y, k_a)
            got_klr.append((est.value, est.clamped_weights))
        assert got_knn == want_knn
        assert knn_ratio(table, boots, k_y, k_a).tolist() == want_knn  # all targets at once
        assert got_klr == want_klr
        assert estimates.tolist() == [value for value, _ in want_klr]

    @pytest.mark.parametrize("k_y, k_a", [(3, 5), (7, 11), (13, 6)])
    def test_macro_tables_at_pool_sizes_off_the_grid(self, macro_table, k_y, k_a):
        # the CV grid holds powers of two, whose reciprocals are exact; these
        # sizes make a mean taken as a product with 1/k differ from .mean()
        table, boots, *_ = macro_table
        assert (knn_ratio(table, boots, k_y, k_a).tolist()
                == [mean_knn(table, theta, k_y, k_a) for theta in boots])
        for theta in boots[::5]:
            assert knn_ratio(table, theta, k_y, k_a)[0] == mean_knn(table, theta, k_y, k_a)
            est = klr_ratio(table, theta, k_y, k_a)
            assert (est.value, est.clamped_weights) == mean_klr(table, theta, k_y, k_a)

    @pytest.mark.parametrize("case", ["finite", "clamp"])
    @pytest.mark.parametrize("k_y, k_a", [(4, 6), (7, 3), (12, 12), (1, 1)])
    def test_edge_tables_equal_the_mean_formulas(self, case, k_y, k_a):
        table, target = only_read_table(case)
        assert knn_ratio(table, target, k_y, k_a)[0] == mean_knn(table, target, k_y, k_a)
        est = klr_ratio(table, target, k_y, k_a)
        assert (est.value, est.clamped_weights) == mean_klr(table, target, k_y, k_a)

    @pytest.mark.parametrize("int_type", [np.int64, np.int32])
    @pytest.mark.parametrize("case", ["finite", "clamp"])
    @pytest.mark.parametrize("k_y, k_a", [(4, 6), (7, 3), (12, 12), (1, 1)])
    def test_numpy_integer_pool_sizes_give_the_int_bits(self, case, k_y, k_a, int_type):
        table, target = only_read_table(case)
        want = klr_ratio(table, target, k_y, k_a)
        got = klr_ratio(table, target, int_type(k_y), int_type(k_a))
        assert (got.value.hex(), got.clamped_weights) == (want.value.hex(), want.clamped_weights)
        assert (knn_ratio(table, target, int_type(k_y), int_type(k_a)).tobytes()
                == knn_ratio(table, target, k_y, k_a).tobytes())


class TestTableIsOnlyRead:
    @pytest.mark.parametrize("case", ["finite", "clamp"])
    def test_estimators_leave_the_table_untouched(self, case):
        # the log-weights and the gathered rows are written in place; the
        # table's arrays must come out bit for bit as they went in
        table, target = only_read_table(case)
        r = table.y.shape[1]
        before = {name: getattr(table, name).copy()
                  for name in ("y", "a", "stats", "lr_coefs", "y_mean", "a_mean")}
        knn_ratio(table, target, 4, 6)
        est = klr_ratio(table, target, 4, 6)
        klr_fallback_k1(table, target)
        for name, arr in before.items():
            assert np.array_equal(getattr(table, name), arr), name
        assert est.clamped_weights == (r if case == "clamp" else 0)


class TestKlrFallback:
    def test_single_eligible_pooled_regardless_of_distance(self):
        # the ineligible rate 1 is nearest to the target; rate 50 is pooled
        table = exp_table([1.0, 50.0], y=[[1.0], [4.0]], a=[[0.0], [2.0]])
        est = klr_fallback_k1(table, np.array([1.0]))
        # the only eligible parameter is at 50; its one run's weight cancels
        # from the ratio
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
