"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on success).  The two 200-macro queueing experiments are shared
between the coverage, width-ordering, and reproducibility criteria.
"""

import dataclasses
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mvee_oracle import min_ellipse_area_bruteforce
from iuq.ci import empirical_quantile, percentile_ci
from iuq.design import anova_select_r, min_enclosing_ellipsoid
from iuq.estimators import RunTable, klr_ratio
from iuq.harness import ExperimentConfig, emit_report, run_macro_experiment
from iuq.input_models import IndependentExponentials, pack_stats
from iuq.simulators import SanTestbed, Mm1Testbed, mm1_steady_state_mean, true_eta_oracle


def _report(num, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def klr_m50_result():
    cfg = ExperimentConfig(model="mm1", m=50, alpha=0.05, estimator="klr",
                           sampling="ellipsoid", r=7, macros=200, seed=1)
    t0 = time.time()
    result = run_macro_experiment(cfg)
    return cfg, result, time.time() - t0


@pytest.fixture(scope="module")
def std_even_m50_result():
    cfg = ExperimentConfig(model="mm1", m=50, alpha=0.05, estimator="std-even",
                           r=7, macros=200, seed=1)
    return cfg, run_macro_experiment(cfg)


def test_criterion_01_lr_unbiasedness(rng):
    # Y = sum of 3 exponential draws at rate 1.0; reweighting to rate 1.2
    # must reproduce E[Y] = 3/1.2 = 2.5
    t0 = time.time()
    model = IndependentExponentials(1)
    n, s_draws = 1_000_000, 3
    z = rng.exponential(1.0, size=(n, s_draws))
    y = z.sum(axis=1)
    log_w = model.log_weights(
        pack_stats(np.full((n, 1), float(s_draws)), y[:, None]),
        model.coefficients(np.array([1.0])), np.array([1.2]),
    )
    vals = y * np.exp(log_w)
    se = vals.std(ddof=1) / math.sqrt(n)
    err = abs(vals.mean() - 2.5)
    elapsed = time.time() - t0
    _report(1, err < 3 * se and elapsed < 10.0,
            f"|mean(Y W) - 2.5| = {err:.5f} vs 3 SE = {3 * se:.5f}, {elapsed:.1f}s")


def test_criterion_02_klr_mse_scaling():
    # fixed target rate 1.0, r=5 runs per parameter, k in {10, 40, 160}:
    # empirical MSE of the reweighted pooled ratio must decay like 1/(rk)
    t0 = time.time()
    model = IndependentExponentials(1)
    rng = np.random.default_rng(123)
    target = np.array([1.0])
    s_draws, r, n, reps = 3, 5, 320, 2000
    e_a = 1.0 - math.exp(-1.0)
    eta_true = ((1.0 - 2.0 * math.exp(-1.0)) + 2.0 * e_a) / e_a
    ks = [10, 40, 160]
    vals = np.empty((reps, len(ks)))
    for i in range(reps):
        params = rng.uniform(0.85, 1.15, size=(n, 1))
        draws = rng.exponential(1.0, size=(n, r, s_draws)) / params[:, :, None]
        v = draws.sum(axis=2)
        a = (draws[:, :, 0] < 1.0).astype(float)
        table = RunTable(params=params, y=v * a, a=a, trace_model=model,
                         stats=pack_stats(np.full((n, r, 1), float(s_draws)),
                                          draws.sum(axis=2)[..., None]))
        vals[i] = [klr_ratio(table, target, k, k).value for k in ks]
    mse = ((vals - eta_true) ** 2).mean(axis=0)
    slope = np.polyfit(np.log([r * k for k in ks]), np.log(mse), 1)[0]
    elapsed = time.time() - t0
    _report(2, -1.25 <= slope <= -0.75 and elapsed < 120.0,
            f"log-MSE vs log(rk) slope = {slope:.3f} in [-1.25, -0.75], {elapsed:.1f}s")


def test_criterion_03_queue_oracle_matches_closed_form():
    t0 = time.time()
    oracle = true_eta_oracle(Mm1Testbed(), np.array([0.5, 1.5]), 1_000_000,
                             np.random.default_rng(77))
    closed = mm1_steady_state_mean(0.5, 1.5)
    err = abs(oracle.eta - closed)
    elapsed = time.time() - t0
    _report(3, err < 0.01 and abs(closed - 0.5) < 0.01 and elapsed < 60.0,
            f"1e6-cycle estimate {oracle.eta:.5f} vs closed form {closed:.5f} "
            f"(err {err:.5f} < 0.01), {elapsed:.1f}s")


def test_criterion_04_klr_coverage(klr_m50_result):
    cfg, result, elapsed = klr_m50_result
    cov = result.summary["coverage"]
    _report(4, 0.90 <= cov <= 0.99,
            f"kLR+ellipsoid m=50 nominal 95%: coverage {cov:.3f} in [0.90, 0.99] "
            f"({result.summary['completed']} macros, {elapsed:.0f}s)")


def test_criterion_05_width_ordering(klr_m50_result, std_even_m50_result):
    _, klr_res, _ = klr_m50_result
    _, std_res = std_even_m50_result
    ratio = std_res.summary["mean_width"] / klr_res.summary["mean_width"]
    _report(5, ratio >= 1.2,
            f"width(std-even)/width(kLR-ellipsoid) = "
            f"{std_res.summary['mean_width']:.3f}/{klr_res.summary['mean_width']:.3f} "
            f"= {ratio:.2f} >= 1.2")


def test_criterion_06_std_overcoverage_m200():
    cfg = ExperimentConfig(model="mm1", m=200, alpha=0.05, estimator="std-even",
                           r=7, macros=200, seed=1)
    result = run_macro_experiment(cfg)
    cov = result.summary["coverage"]
    _report(6, cov >= 0.98, f"std-even m=200 nominal 95%: coverage {cov:.3f} >= 0.98")


def test_criterion_07_san_calibration():
    testbed = SanTestbed()
    batch = testbed.simulate(testbed.true_theta, 1_000_000, np.random.default_rng(4))
    p = batch.a.mean()
    _report(7, 0.081 <= p <= 0.101,
            f"default network P(T < 2.4) = {p:.4f} in [0.081, 0.101]")


def test_criterion_08_quantile_and_ci_oracles(rng):
    values = rng.normal(size=1000)
    srt = np.sort(values)
    exact = all(
        empirical_quantile(values, alpha) == srt[int(np.ceil(values.size * alpha)) - 1]
        for alpha in rng.uniform(0.001, 1.0, size=20)
    )
    ci = percentile_ci(np.arange(1.0, 101.0), 0.10)
    _report(8, exact and (ci.lower, ci.upper) == (5.0, 95.0),
            f"quantiles match full-sort oracle; CI of 1..100 at alpha=0.10 "
            f"is [{ci.lower:.0f}, {ci.upper:.0f}]")


def test_criterion_09_mvee(rng):
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    ell = min_enclosing_ellipsoid(pts)
    circle_ok = (np.linalg.norm(ell.center) < 1e-6
                 and np.max(np.abs(ell.shape - np.eye(2))) < 1e-4)
    cloud = rng.standard_normal((50, 2)) @ np.array([[1.0, 0.3], [0.0, 0.8]])
    ell2 = min_enclosing_ellipsoid(cloud)
    area = math.pi / math.sqrt(np.linalg.det(ell2.shape))
    oracle = min_ellipse_area_bruteforce(cloud)
    vol_ok = abs(area - oracle) / oracle < 0.02
    contain_ok = bool(np.all(ell2.membership(cloud) <= 1.0 + 1e-6))
    _report(9, circle_ok and vol_ok and contain_ok,
            f"unit circle exact; volume {area:.4f} vs brute force {oracle:.4f} "
            f"({abs(area - oracle) / oracle:.2%}); containment <= 1+1e-6")


def test_criterion_10_anova_pilot_synthetic():
    # two-level normal data: E[Y|theta] ~ N(0, 1), Y|theta ~ N(E[Y|theta], 100);
    # the A channel has a much larger variance ratio so Y binds
    rng = np.random.default_rng(2718)
    nu2, sigma2, c_zeta = 1.0, 100.0, 0.1

    def sample_param(count, rng_):
        return rng_.normal(0.0, math.sqrt(nu2), size=(count, 1))

    def simulate(params, runs, rng_):
        # row by row, Y's draws before A's, in parameter-major order
        ys, as_ = [], []
        for theta in params:
            ys.append(float(theta[0]) + rng_.normal(0.0, math.sqrt(sigma2), size=runs))
            as_.append(float(theta[0]) + rng_.normal(0.0, 1.0, size=runs))
        return SimpleNamespace(y=np.concatenate(ys), a=np.concatenate(as_))

    res = anova_select_r(sample_param, simulate, b=1000, s0=50, c_zeta=c_zeta, rng=rng)
    rel_err = abs(res.r * nu2 / sigma2 - c_zeta) / c_zeta
    _report(10, rel_err <= 0.15,
            f"pilot returned r={res.r}; |r nu^2/sigma^2 - {c_zeta}| relative error "
            f"{rel_err:.2%} <= 15%")


def test_criterion_11_thousand_macro_config_accepted():
    cfg = ExperimentConfig(model="mm1", m=50, estimator="klr", macros=1000)
    from iuq.cli import build_experiment_config
    import argparse

    ns = argparse.Namespace(
        model="mm1", m=50, alpha=None, estimator=None, sampling=None, r=None,
        macros=1000, seed=None, out=None, san_topology=None, workers=None,
        eta_ref=None, config=None,
    )
    cfg2 = build_experiment_config(ns)
    _report(11, cfg.macros == 1000 and cfg2.macros == 1000,
            "config and CLI both accept macros=1000 (full tables not run at desk scale)")


def test_criterion_12_reproducibility_across_workers(klr_m50_result, tmp_path):
    cfg, result, _ = klr_m50_result
    cfg2 = dataclasses.replace(cfg, workers=2)
    result2 = run_macro_experiment(cfg2)
    p1 = emit_report(result, str(tmp_path / "serial"))[0]
    p2 = emit_report(result2, str(tmp_path / "parallel"))[0]
    same = Path(p1).read_bytes() == Path(p2).read_bytes()
    _report(12, same, "criterion-4 CSVs byte-identical for 1 vs 2 workers")
