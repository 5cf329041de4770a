import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import src_env
from iuq import cli, harness
from iuq.ci import percentile_ci
from iuq.design import CV_FOLDS, PilotResult, anova_select_r, sample_size_rule
from iuq.estimators import RunTable, klr_fallback_k1, klr_ratio
from iuq.harness import (
    DEFAULT_R,
    ExperimentConfig,
    MacroResult,
    MacroRow,
    _run_single_macro,
    emit_report,
    load_report,
    run_iuq_knn_klr,
    run_iuq_std,
    run_macro_experiment,
    run_pilot,
    std_budget_split,
)
from iuq.input_models import EstimationError, IndependentExponentials
from iuq.reference import REFERENCE_ETA, reference_eta
from iuq.simulators import Mm1Testbed, Testbed, make_testbed
from iuq.simulators.mm1 import MAX_CYCLE_DRAWS


# the default activity network as an edge-list file
SAN_EDGES = "a b\na c\nb c\nb d\nb f\nc f\nd e\nd g\ne f\ne h\nf i\ng h\nh i\n"


def mm1_rngs(seed=0):
    return {name: np.random.default_rng([seed, i]) for i, name in
            enumerate(("boot", "sim", "runs"))}


class TestBudgetSplit:
    def test_opt_split_floors(self):
        assert std_budget_split(10_000, "opt") == (464, 21)

    def test_even_split(self):
        assert std_budget_split(10_000, "even") == (100, 100)

    def test_minimum_one(self):
        assert std_budget_split(1, "opt") == (1, 1)

    def test_budget_parity_up_to_rounding(self):
        for budget in (763, 4039, 10_000, 394_119):
            for split in ("opt", "even"):
                n_s, r_s = std_budget_split(budget, split)
                assert n_s * r_s <= budget
                assert budget - n_s * r_s <= n_s + r_s + 1

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError):
            std_budget_split(100, "half")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="mm1", m=1)
        with pytest.raises(ValueError):
            ExperimentConfig(model="mm1", m=50, alpha=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(model="mm1", m=50, estimator="ratio")
        with pytest.raises(ValueError):
            ExperimentConfig(model="mm1", m=50, r=0)

    @pytest.mark.parametrize(
        "overrides, accepted",
        [
            ({"model": "bogus"}, False),
            ({"m": 3}, f"^m=3 is too small for the klr estimator: its {CV_FOLDS}-fold "
                       f"cross-validation of k needs at least {CV_FOLDS} simulation "
                       "parameters, and m=3 gives 3$"),
            ({"m": 4}, True),  # n = 5, one parameter per fold
            ({"seed": -1}, False),
            ({"workers": 0}, False),
            ({"r": True}, False),
            ({"r": np.int64(5)}, True),
            ({"seed": np.int64(3), "workers": np.int32(2)}, True),
            ({"eta_ref": float("nan")}, False),
            ({"eta_ref": float("inf")}, False),
            ({"eta_ref": "0.5"}, False),
            ({"eta_ref": 0.5}, True),
            ({"alpha": "0.05"}, False),
            ({"alpha": float("nan")}, False),
            ({"alpha": None}, False),
            ({"model": "san", "san_topology": "net.txt"}, True),
            ({"model": "san", "san_topology": "missing.txt"}, False),
            ({"model": "san", "san_topology": "cyclic.txt"}, False),
            ({"model": "san", "san_topology": "malformed.txt"}, False),
            ({"model": "san", "san_topology": 3}, False),
            ({"san_topology": "net.txt"}, False),  # read by model san only
            ({"model": "san", "san_topology": "short.txt"}, False),  # needs its own eta_ref
            ({"model": "san", "san_topology": "short.txt", "eta_ref": 2.24}, True),
            ({"m": 2, "estimator": "std-even", "r": 1}, False),  # n_s = 1
            ({"m": 2, "estimator": "std-opt", "r": 1}, False),  # n_s = 1
            ({"m": 3, "estimator": "std-even", "r": 1}, False),  # n_s = 1
            ({"m": 3, "estimator": "std-opt", "r": 1}, True),  # n_s = 2
            ({"m": 2, "estimator": "std-even", "r": 2}, True),  # n_s = 2
            ({"out": ""}, False),  # would write no reports
        ],
        ids=["model-bogus", "klr-m3", "klr-m4",
             "seed-negative", "workers-0", "r-bool", "r-numpy-int", "numpy-ints",
             "eta_ref-nan", "eta_ref-inf", "eta_ref-str", "eta_ref-float",
             "alpha-str", "alpha-nan", "alpha-none", "san_topology-file",
             "san_topology-missing", "san_topology-cyclic", "san_topology-malformed",
             "san_topology-int", "san_topology-not-san", "san_topology-custom-no-eta_ref",
             "san_topology-custom-eta_ref", "std-even-m2-r1", "std-opt-m2-r1",
             "std-even-m3-r1", "std-opt-m3-r1", "std-even-m2-r2", "out-empty"],
    )
    def test_bad_fields_rejected_at_build(self, overrides, accepted, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "net.txt").write_text(SAN_EDGES)
        (tmp_path / "cyclic.txt").write_text(SAN_EDGES + "i a\n")
        (tmp_path / "malformed.txt").write_text("a b c\n")
        (tmp_path / "short.txt").write_text("a d\nd f\nf i\n")
        kwargs = {"model": "mm1", "m": 50, **overrides}
        if accepted is not True:
            # a bad topology is named in the error; a string is the message's pattern
            path = overrides.get("san_topology")
            named = re.escape(repr(path)) if path is not None else accepted or None
            with pytest.raises(ValueError, match=named):
                ExperimentConfig(**kwargs)
            return
        cfg = ExperimentConfig(**kwargs)
        for name, value in overrides.items():
            if name in ("eta_ref", "model", "san_topology", "estimator"):
                assert getattr(cfg, name) == value
            else:
                assert type(getattr(cfg, name)) is int and getattr(cfg, name) == value
        assert cfg.resolved_r() == overrides.get("r", DEFAULT_R[cfg.model])

    def test_fold_count_rule_is_the_cv_partition(self):
        # the klr-m3 and klr-m4 cases above sit on either side of the rule
        assert sample_size_rule(3)[0] < CV_FOLDS <= sample_size_rule(4)[0]

    def test_accepts_thousand_macros(self):
        cfg = ExperimentConfig(model="mm1", m=50, macros=1000)
        assert cfg.macros == 1000

    def test_auto_r_resolves_to_default(self):
        cfg = ExperimentConfig(model="mm1", m=50)
        assert cfg.resolved_r() == DEFAULT_R["mm1"] == 7
        assert ExperimentConfig(model="san", m=50).resolved_r() == 99

    def test_explicit_r_wins(self):
        assert ExperimentConfig(model="mm1", m=50, r=13).resolved_r() == 13


def mm1_inputs(seed, m, **overrides):
    """An mm1 testbed, the MLE of one size-m dataset and a config."""
    testbed = Mm1Testbed()
    data = testbed.input_model.sample(testbed.true_theta, np.random.default_rng(seed), size=m)
    cfg = ExperimentConfig(model="mm1", m=m, **overrides)
    return testbed, testbed.input_model.mle(data), cfg


class TestPipelines:
    def test_sample_sizes_and_budget(self):
        testbed, theta_hat, cfg = mm1_inputs(0, 50, estimator="klr", sampling="ellipsoid", r=7)
        estimates, (n, n_tilde, r, k_y, k_a) = run_iuq_knn_klr(testbed, theta_hat, cfg,
                                                               mm1_rngs())
        assert (n, n_tilde) == (109, 1000)
        assert n * r == 109 * 7
        assert 1 <= min(k_y, k_a) and max(k_y, k_a) <= n
        ci = percentile_ci(estimates, cfg.alpha)
        assert ci.lower <= ci.upper
        assert estimates.size == 1000

    def test_sampling_modes_share_bootstrap_phase(self, monkeypatch):
        import iuq.harness as harness

        drawn = {"boot": [], "sim": []}

        def recording(phase, draw):
            def wrapper(*args, **kwargs):
                result = draw(*args, **kwargs)
                drawn[phase].append(result)
                return result
            return wrapper

        monkeypatch.setattr(harness, "bootstrap_params",
                            recording("boot", harness.bootstrap_params))
        monkeypatch.setattr(harness, "sample_sim_params",
                            recording("sim", harness.sample_sim_params))
        for sampling in ("bootstrap", "ellipsoid"):
            testbed, theta_hat, cfg = mm1_inputs(1, 30, estimator="knn", sampling=sampling, r=3)
            run_iuq_knn_klr(testbed, theta_hat, cfg, mm1_rngs(7))
        (boot1, boot2), (sim1, sim2) = drawn["boot"], drawn["sim"]
        assert np.array_equal(boot1, boot2)
        assert not np.array_equal(sim1.params, sim2.params)

    def test_std_pipeline_budget(self):
        testbed, theta_hat, cfg = mm1_inputs(2, 50, estimator="std-even", r=7)
        estimates, sizes = run_iuq_std(testbed, theta_hat, cfg, mm1_rngs(3))
        n_s, r_s = std_budget_split(109 * 7, "even")
        assert sizes == (n_s, n_s, r_s, 0, 0)
        assert cfg.std_split() == (n_s, r_s)  # the config checks the split it runs
        assert estimates.shape == (n_s,)

    def test_std_estimates_match_per_row_reference(self, monkeypatch):
        # the san std-opt m=20 macro has zero-denominator rows among its
        # 233, so both the vector ratio and the k=1 fallbacks are exercised
        import iuq.harness as harness

        seen = {}
        fallbacks = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                seen[name] = result
                return result
            return wrapper

        def counting_fallback(*args, **kwargs):
            fallbacks.append(args)
            return klr_fallback_k1(*args, **kwargs)

        monkeypatch.setattr(harness, "build_run_table",
                            recording("table", harness.build_run_table))
        monkeypatch.setattr(harness, "run_iuq_std", recording("std", harness.run_iuq_std))
        monkeypatch.setattr(harness, "klr_fallback_k1", counting_fallback)
        cfg = ExperimentConfig(model="san", m=20, estimator="std-opt", seed=0, macros=1)
        _, row, err = _run_single_macro(cfg, cfg.testbed, 0, reference_eta("san"))
        assert err is None and row.n == 233
        table = seen["table"]
        estimates, _ = seen["std"]
        zero = np.flatnonzero(table.a_mean == 0)
        assert 0 < zero.size < table.params.shape[0]
        assert len(fallbacks) == zero.size
        want = [
            float(table.y[i].mean()) / float(table.a[i].mean()) if table.a_mean[i] != 0
            else klr_ratio(table, table.params[i], 1, 1).value
            for i in range(table.params.shape[0])
        ]
        assert estimates.tolist() == want


# one macro per testbed and estimator (m=20, seed 0, ellipsoid sampling,
# which the std pipelines ignore); the std rows report the bootstrap set as
# both n and n_tilde and pool nothing
KNN_ROWS = {
    "mm1": dict(r=7, k_y=16, k_a=4, lower=0.19789649417052554,
                upper=3.214362548861756, width=3.0164660546912305, sims_used=252),
    "san": dict(r=99, k_y=8, k_a=8, lower=3.933103426449908,
                upper=5.319048689119827, width=1.3859452626699196, sims_used=3564),
    "erm": dict(r=423, k_y=8, k_a=8, lower=284.114212202185,
                upper=284.974185988486, width=0.8599737863009977, sims_used=15228),
}
KLR_ROWS = {
    "mm1": dict(r=7, k_y=16, k_a=4, lower=0.14888385583598443,
                upper=1.0051548699017112, width=0.8562710140657268, sims_used=252),
    "san": dict(r=99, k_y=8, k_a=8, lower=3.5650703184008483,
                upper=5.289714547774981, width=1.7246442293741326, sims_used=3564),
    "erm": dict(r=423, k_y=8, k_a=8, lower=284.08118432143795,
                upper=284.96076519822134, width=0.8795808767833933, sims_used=15228),
}
STD_ROWS = {
    ("mm1", "std-even"): dict(n=15, r=15, lower=0.10462160089287888,
                              upper=0.5620025432266804, width=0.45738094233380155,
                              sims_used=225),
    ("mm1", "std-opt"): dict(n=39, r=6, lower=0.061857469969149724,
                             upper=1.353736395126763, width=1.2918789251576133,
                             sims_used=234),
    ("san", "std-even"): dict(n=59, r=59, lower=2.7703373327831207,
                              upper=7.381544016621857, width=4.611206683838736,
                              sims_used=3481),
    ("san", "std-opt"): dict(n=233, r=15, lower=2.296112440394313,
                             upper=10.304403726347877, width=8.008291285953565,
                             sims_used=3495),
    ("erm", "std-even"): dict(n=123, r=123, lower=283.0883934558497,
                              upper=287.38490211023145, width=4.296508654381739,
                              sims_used=15129),
    ("erm", "std-opt"): dict(n=614, r=24, lower=282.7462953269922,
                             upper=290.7380389121873, width=7.991743585195081,
                             sims_used=14736),
}


def pinned_rows(model):
    rows = {
        "knn": dict(sampling="ellipsoid", n=36, n_tilde=1000, **KNN_ROWS[model]),
        "klr": dict(sampling="ellipsoid", n=36, n_tilde=1000, **KLR_ROWS[model]),
    }
    for split in ("std-even", "std-opt"):
        row = STD_ROWS[model, split]
        rows[split] = dict(sampling="bootstrap", n_tilde=row["n"], k_y=0, k_a=0, **row)
    return rows


@pytest.mark.parametrize("model", sorted(KNN_ROWS))
def test_knn_macro_row_pinned(model):
    # knn and the three other estimators on one testbed
    for estimator, fields in pinned_rows(model).items():
        cfg = ExperimentConfig(model=model, m=20, estimator=estimator, sampling="ellipsoid",
                               macros=1, seed=0)
        result = run_macro_experiment(cfg)
        assert result.failures == ()
        assert result.rows == (MacroRow(macro_id=0, estimator=estimator, m=20, covered=1,
                                        seed=0, **fields),), estimator


class _AlwaysZeroDenominator(Mm1Testbed):
    def simulate(self, theta, n_runs, rng):
        batch = super().simulate(theta, n_runs, rng)
        batch.a[:] = 0.0
        return batch


class TestFailureHandling:
    def test_degenerate_macro_annotated(self):
        for estimator in ("klr", "std-even"):
            idx, row, err = _run_single_macro(
                ExperimentConfig(model="mm1", m=20, estimator=estimator, r=2, macros=1),
                _AlwaysZeroDenominator(), 0, 0.5,
            )
            assert row is None, estimator
            assert "zero average denominator" in err, estimator

    def test_empty_pool_rule_has_one_owner(self, monkeypatch):
        # neither pipeline checks the pool itself: the run table's rule raises
        def owner(table, k_y, k_a):
            raise EstimationError("the run table's rule")

        monkeypatch.setattr(RunTable, "check_pool_sizes", owner)
        for estimator in ("knn", "klr", "std-even"):
            _, _, err = _run_single_macro(
                ExperimentConfig(model="mm1", m=20, estimator=estimator, r=2, macros=1),
                _AlwaysZeroDenominator(), 0, 0.5,
            )
            assert err == "the run table's rule", estimator

    def test_too_many_failures_abort(self, monkeypatch):
        import iuq.harness as harness

        monkeypatch.setattr(harness, "make_testbed",
                            lambda name, san_topology=None: _AlwaysZeroDenominator())
        cfg = ExperimentConfig(model="mm1", m=20, estimator="klr", r=2, macros=3)
        with pytest.raises(EstimationError, match="macro runs failed"):
            run_macro_experiment(cfg)

    def test_runaway_mm1_cycle_fails_one_macro(self):
        # seed-0 macro 31 of the m=20 klr defaults samples a simulation
        # parameter whose regenerative cycle would not end in hours
        cfg = ExperimentConfig(model="mm1", m=20, estimator="klr", seed=0)
        idx, row, err = _run_single_macro(cfg, Mm1Testbed(), 31, 0.5)
        assert (idx, row) == (31, None)
        assert f"exceeded {MAX_CYCLE_DRAWS} draws" in err

    def test_hopeless_ellipsoid_fails_the_macro(self, monkeypatch, capsys):
        # no draw inside the support: the ellipsoid sampler gives up on the macro
        monkeypatch.setattr(IndependentExponentials, "support_mask",
                            lambda self, thetas: np.zeros(len(thetas), dtype=bool))
        cfg = ExperimentConfig(model="mm1", m=20, estimator="klr", r=2, macros=1)
        with pytest.raises(EstimationError, match=r"1 of 1 macro runs failed; "
                           r"first: \(0, 'ellipsoid rejection rate above 99%"):
            run_macro_experiment(cfg)
        argv = ["run", "--model", "mm1", "--m", "20", "--r", "2", "--macros", "1"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: 1 of 1 macro runs failed") and err.count("\n") == 1

    def test_other_errors_name_the_macro(self, monkeypatch):
        import iuq.harness as harness

        def broken(*args, **kwargs):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(harness, "run_iuq_std", broken)
        cfg = ExperimentConfig(model="mm1", m=20, estimator="std-even", r=2, macros=3)
        with pytest.raises(RuntimeError, match="macro 0 failed: ZeroDivisionError: boom") as info:
            run_macro_experiment(cfg)
        assert isinstance(info.value.__cause__, ZeroDivisionError)


@pytest.fixture(scope="module")
def small_result():
    cfg = ExperimentConfig(model="mm1", m=30, estimator="klr",
                           sampling="ellipsoid", r=3, macros=5, seed=123)
    return cfg, run_macro_experiment(cfg)


class TestMacroExperiment:
    def test_rows_and_summary_consistency(self, small_result):
        cfg, result = small_result
        assert len(result.rows) == 5
        covered = [row.covered for row in result.rows]
        assert result.summary["coverage"] == pytest.approx(np.mean(covered))
        widths = [row.width for row in result.rows]
        assert result.summary["mean_width"] == pytest.approx(np.mean(widths))

    def test_single_macro_summary_equals_row(self):
        cfg = ExperimentConfig(model="mm1", m=30, estimator="klr",
                               sampling="ellipsoid", r=3, macros=1, seed=5)
        result = run_macro_experiment(cfg)
        row = result.rows[0]
        assert result.summary["coverage"] == float(row.covered)
        assert result.summary["mean_width"] == pytest.approx(row.width)

    def test_san_topology_is_read_once_per_experiment(self, tmp_path, monkeypatch):
        from iuq.simulators import SanConfig

        edges = tmp_path / "net.txt"
        edges.write_text(SAN_EDGES)
        load = SanConfig.from_edge_list.__func__
        calls = []

        def counting(cls, path, *args, **kwargs):
            calls.append(path)
            return load(cls, path, *args, **kwargs)

        monkeypatch.setattr(SanConfig, "from_edge_list", classmethod(counting))
        cfg = ExperimentConfig(model="san", m=20, estimator="std-even", r=2, macros=3,
                               san_topology=str(edges))
        result = run_macro_experiment(cfg)
        assert len(result.rows) == 3
        assert len(calls) == 1  # the config's one build

    def test_rerun_is_identical(self, small_result):
        cfg, result = small_result
        again = run_macro_experiment(cfg)
        assert again.rows == result.rows

    def test_workers_do_not_change_results(self, small_result):
        cfg, result = small_result
        import dataclasses

        cfg2 = dataclasses.replace(cfg, workers=2)
        assert run_macro_experiment(cfg2).rows == result.rows

    @pytest.mark.parametrize("workers, macros, started", [(64, 3, 3), (2, 3, 2)])
    def test_pool_never_exceeds_the_macro_count(self, monkeypatch, workers, macros, started):
        # a fork pool starts all of its workers at the first submit
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = ExperimentConfig(model="mm1", m=20, estimator="std-even", r=2, macros=macros)
        pooled = run_macro_experiment(dataclasses.replace(cfg, workers=workers))
        assert sizes == [started]
        assert pooled.rows == run_macro_experiment(cfg).rows

    def test_coverage_judged_against_reference(self, small_result):
        cfg, result = small_result
        eta = reference_eta("mm1")
        for row in result.rows:
            assert row.covered == int(row.lower <= eta <= row.upper)

    def test_report_round_trip(self, small_result, tmp_path):
        _, result = small_result
        csv_path, json_path = emit_report(result, str(tmp_path / "trial"))
        rows = load_report(csv_path)
        assert tuple(rows) == result.rows
        summary = json.loads(Path(json_path).read_text())
        assert summary["coverage"] == result.summary["coverage"]

    def test_numpy_float_cells_round_trip(self, small_result, tmp_path):
        # numpy 2 reprs a float64 as "np.float64(...)", which no cell may read
        _, result = small_result
        rows = tuple(dataclasses.replace(row, **{name: np.float64(getattr(row, name))
                                                 for name in ("lower", "upper", "width")})
                     for row in result.rows)
        csv_path, _ = emit_report(dataclasses.replace(result, rows=rows), tmp_path / "numpy")
        assert tuple(load_report(csv_path)) == result.rows
        plain_path, _ = emit_report(result, tmp_path / "plain")
        assert Path(csv_path).read_bytes() == Path(plain_path).read_bytes()

    @pytest.mark.parametrize("name", ["trial", "trial.csv"])
    def test_report_path_like(self, small_result, tmp_path, name):
        _, result = small_result
        csv_path, json_path = emit_report(result, tmp_path / "out" / name)
        assert (csv_path, json_path) == (str(tmp_path / "out" / "trial.csv"),
                                         str(tmp_path / "out" / "trial.json"))
        assert tuple(load_report(csv_path)) == result.rows

    def test_std_reports_the_sampling_it_used(self, tmp_path):
        paths = {}
        for sampling in ("ellipsoid", "bootstrap"):
            cfg = ExperimentConfig(model="san", m=20, estimator="std-opt", sampling=sampling,
                                   macros=3, seed=0)
            assert cfg.sampling == "bootstrap"
            paths[sampling] = emit_report(run_macro_experiment(cfg), tmp_path / sampling)
        for ellipsoid, bootstrap in zip(paths["ellipsoid"], paths["bootstrap"]):
            assert Path(ellipsoid).read_bytes() == Path(bootstrap).read_bytes()

    @pytest.mark.parametrize("cells", [16, 14], ids=["extra-cell", "missing-cell"])
    def test_row_with_another_cell_count_rejected(self, small_result, tmp_path, cells):
        _, result = small_result
        emit_report(result, tmp_path / "trial")
        csv_path = tmp_path / "trial.csv"
        lines = csv_path.read_text().splitlines()
        lines[2] = ",".join((lines[2] + ",7").split(",")[:cells])
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"trial.csv:3: {cells} cells, the header has 15"):
            load_report(csv_path)

    def test_foreign_header_rejected(self, small_result, tmp_path):
        _, result = small_result
        csv_path, _ = emit_report(result, tmp_path / "trial")
        lines = Path(csv_path).read_text().splitlines()
        lines[0] = lines[0].replace("k_y,k_a", "k_a,k_y")
        Path(csv_path).write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unexpected report header"):
            load_report(csv_path)

    def test_no_completed_macro_writes_nothing(self, tmp_path):
        result = MacroResult(rows=(), failures=((0, "pooled denominator vanished"),),
                             summary={})
        with pytest.raises(ValueError, match="nothing to report"):
            emit_report(result, tmp_path / "trial")
        assert list(tmp_path.iterdir()) == []

    def test_report_bytes_deterministic(self, small_result, tmp_path):
        _, result = small_result
        p1 = emit_report(result, str(tmp_path / "a"))[0]
        p2 = emit_report(result, str(tmp_path / "b"))[0]
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


class TestReference:
    def test_pinned_values_have_se(self):
        for name in ("san", "mm1", "erm"):
            eta, se, budget, seed = REFERENCE_ETA[name]
            assert se > 0 and budget >= 10_000_000
        with pytest.raises(KeyError):
            reference_eta("atm")


def pilot_through(monkeypatch, model, seed, per_row, **sizes):
    """``run_pilot(model, 50, seed, **sizes)``, or the message of its
    ``EstimationError``, with the generator's end state and the (rows,
    runs) of each ``simulate`` call.  The pilot gets the testbed's own
    ``simulate``, or with ``per_row`` the per-row reference: one
    ``testbed.simulate(params[i], runs, rng)`` call per row, their runs
    stacked in row order."""
    seen = {"calls": []}

    def spy(sample_param, simulate, rng, **pilot):
        assert simulate.__func__ is Testbed.simulate  # the testbed's, unwrapped

        def recorded(params, runs, rng_):
            seen["calls"].append((len(params), runs))
            if not per_row:
                return simulate(params, runs, rng_)
            rows = [simulate(params[i], runs, rng_) for i in range(len(params))]
            return SimpleNamespace(y=np.concatenate([row.y for row in rows]),
                                   a=np.concatenate([row.a for row in rows]))

        try:
            return anova_select_r(sample_param, recorded, rng=rng, **pilot)
        finally:
            seen["state"] = rng.bit_generator.state

    monkeypatch.setattr(harness, "anova_select_r", spy)
    try:
        return run_pilot(model, 50, seed=seed, **sizes), seen
    except EstimationError as exc:
        return str(exc), seen


class TestPilotEntry:
    def test_mm1_pilot_runs(self):
        res = run_pilot("mm1", 50, seed=3, b=20, s0=10)
        assert res.r >= 1
        assert min(res.zeta_y, res.zeta_a) >= 0.1 - 1e-12

    @pytest.mark.parametrize("model", ["mm1", "san", "erm"])
    def test_batched_pilot_equals_per_row_pilot(self, monkeypatch, model):
        # one simulate call per sweep gives the result, or the failure, and
        # the generator end state of one call per parameter, over single-
        # and multi-sweep pilots (erm seed 1 at b=20 fails at max_s)
        added_runs = False
        for sizes in ({}, {"b": 20, "s0": 10, "ds": 10}, {"b": 7, "s0": 2, "ds": 3}):
            b, s0, ds = sizes.get("b", 50), sizes.get("s0", 10), sizes.get("ds", 10)
            for seed in range(3):
                res, seen = pilot_through(monkeypatch, model, seed, False, **sizes)
                ref, ref_seen = pilot_through(monkeypatch, model, seed, True, **sizes)
                assert res == ref
                assert seen == ref_seen
                sweeps = len(seen["calls"])
                assert seen["calls"] == [(b, s0)] + [(b, ds)] * (sweeps - 1)
                if isinstance(res, PilotResult):
                    assert res.final_s == s0 + ds * (sweeps - 1)
                    added_runs |= sweeps > 1
        assert added_runs

    def test_erm_zero_within_variance_adds_runs(self):
        # every A of the first sweep is 0, so its within-parameter mean
        # square is too: the pilot adds runs until both outputs vary
        assert run_pilot("erm", 50, seed=0, b=7, s0=2, ds=3) == PilotResult(
            r=10, final_s=35, zeta_y=0.10532032813039496, zeta_a=0.10517598343685311
        )


class TestConfigFile:
    # one non-default value per run flag, as typed on the command line
    FLAG_VALUES = {
        "model": "erm", "m": "30", "alpha": "0.1", "estimator": "knn",
        "sampling": "bootstrap", "r": "4", "macros": "3", "seed": "5",
        "out": "runs/x", "san_topology": "net.txt", "workers": "2", "eta_ref": "0.5",
    }

    def build(self, *argv):
        return cli.build_experiment_config(cli.build_parser().parse_args(["run", *argv]))

    def test_every_run_flag_is_a_config_key(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "net.txt").write_text(SAN_EDGES)
        flags = {a.dest: a.option_strings[0] for a in cli.RUN_FLAGS._actions}
        assert set(flags) == set(self.FLAG_VALUES)
        default = ExperimentConfig(model="mm1", m=20)
        for dest, text in self.FLAG_VALUES.items():
            model = "san" if dest == "san_topology" else "mm1"  # only san reads a topology
            cfg_file = tmp_path / f"{dest}.cfg"
            # each key once: the flag's line replaces model's or m's
            lines = {"model": model, "m": "20", dest: text}
            cfg_file.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
            from_file = self.build("--config", str(cfg_file))
            from_flag = self.build("--model", model, "--m", "20", flags[dest], text)
            assert from_file == from_flag, dest
            assert getattr(from_file, dest) != getattr(default, dest), dest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "iuq.cli", *args], env=src_env(), capture_output=True, text=True
    )


class TestCli:
    def test_run_writes_reports(self, tmp_path):
        out = tmp_path / "exp"
        proc = run_cli(
            "run", "--model", "mm1", "--m", "30", "--estimator", "klr",
            "--sampling", "ellipsoid", "--r", "3", "--macros", "2",
            "--seed", "3", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = load_report(str(out) + ".csv")
        assert len(rows) == 2
        summary = json.loads(Path(str(out) + ".json").read_text())
        assert summary["completed"] == 2

    def test_run_accepts_thousand_macros_flag(self):
        # parse-only: invalid model catches the parse before any simulation
        proc = run_cli("run", "--m", "50", "--macros", "1000")
        assert proc.returncode == 2
        assert "required" in proc.stderr

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "model=mm1\nm=20\nestimator=std-even\nr=2\nmacros=4\nseed=1\n"
        )
        out = tmp_path / "from_config"
        proc = run_cli("run", "--config", str(cfg_file), "--macros", "2",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert len(load_report(str(out) + ".csv")) == 2  # flag beat config

    def test_run_rejects_an_m_too_small_for_the_cv_of_k(self):
        proc = run_cli("run", "--model", "mm1", "--m", "3", "--estimator", "klr")
        assert proc.returncode == 2
        assert "error: m=3 is too small for the klr estimator" in proc.stderr

    def test_config_file_bad_model_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("model=bogus\nm=20\n")
        proc = run_cli("run", "--config", str(cfg_file))
        assert proc.returncode == 2
        assert "model must be one of" in proc.stderr

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("model=mm1\nm=20\nbudget=12\n")
        proc = run_cli("run", "--config", str(cfg_file))
        assert proc.returncode == 2
        assert "unknown config keys" in proc.stderr

    def test_duplicate_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "dup.cfg"
        cfg_file.write_text("model=mm1\nm=20\n# a comment\nm = 30\n")
        proc = run_cli("run", "--config", str(cfg_file))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {cfg_file}:4: duplicate key 'm' (first at line 2)\n"

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_empty_out_rejected(self, tmp_path, where):
        cfg_file = tmp_path / "out.cfg"
        extra = "out=\n" if where == "config" else ""
        cfg_file.write_text(f"model=mm1\nm=20\nr=2\nmacros=1\n{extra}")
        flags = ("--out", "") if where == "flag" else ()
        proc = run_cli("run", "--config", str(cfg_file), *flags)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: out must be None") and proc.stdout == ""

    @pytest.mark.parametrize("line", ["cv.folds=3", "cv.grid=2, 4"], ids=["folds", "grid"])
    def test_cv_keys_rejected(self, tmp_path, line):
        # the keys are exactly the run flags' dests: the CV settings are not among them
        cfg_file = tmp_path / "cv.cfg"
        cfg_file.write_text(f"model=mm1\nm=20\n{line}\n")
        proc = run_cli("run", "--config", str(cfg_file))
        assert proc.returncode == 2
        assert "unknown config keys" in proc.stderr

    def test_run_config_rejects_pilot_keys(self, tmp_path):
        cfg_file = tmp_path / "pilot.cfg"
        cfg_file.write_text("model=mm1\nm=20\npilot.b=10\n")
        proc = run_cli("run", "--config", str(cfg_file))
        assert proc.returncode == 2
        assert "unknown config keys" in proc.stderr

    def test_pilot_subcommand(self):
        proc = run_cli("pilot", "--model", "mm1", "--m", "30", "--seed", "2",
                       "--b", "10", "--s0", "5")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["r_last"] >= 1

    def test_oracle_subcommand(self):
        proc = run_cli("oracle", "--model", "mm1", "--budget", "10000",
                       "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["eta"] == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize(
        "args",
        [
            ("oracle", "--model", "mm1", "--budget", "10000", "--seed", "1"),
            ("pilot", "--model", "san", "--m", "20"),
        ],
        ids=["oracle-mm1", "pilot-san"],
    )
    def test_bad_san_topology_rejected(self, args):
        proc = run_cli(*args, "--san-topology", "missing.txt")
        assert proc.returncode == 2
        assert "san_topology 'missing.txt'" in proc.stderr

    def test_pilot_without_within_variance_at_max_s_exits_one(self):
        # an estimation failure (exit 1), not bad input (exit 2)
        proc = run_cli("pilot", "--model", "erm", "--m", "50", "--b", "7", "--s0", "2",
                       "--ds", "3", "--max-s", "5")
        assert proc.returncode == 1
        assert proc.stderr == ("error: pilot did not find positive variance ratios by s=5 "
                               "(no within-parameter variance in Y or A)\n")

    def test_pilot_rejects_repeats_below_one(self):
        proc = run_cli("pilot", "--model", "mm1", "--m", "20", "--repeats", "0")
        assert proc.returncode == 2
        assert proc.stderr == "error: --repeats must be >= 1, got 0\n"

    def test_pilot_rejects_negative_seed(self):
        proc = run_cli("pilot", "--model", "mm1", "--m", "20", "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stderr == "error: seed must be an integer >= 0, got -1\n"

    def test_pilot_rejects_m_below_two(self):
        # the config's rule for m, before any draw: exit 2, not an estimation failure
        proc = run_cli("pilot", "--model", "mm1", "--m", "0")
        assert proc.returncode == 2
        assert proc.stderr == "error: m must be an integer >= 2, got 0\n"

    def test_run_help_defaults_are_the_config_defaults(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        # "--flag METAVAR help text (default value)", the help text holding no other flag
        shown = dict(re.findall(r"--([\w-]+) [A-Z_]+ (?:(?!--)[^()])*\(default ([^)]+)\)", text))
        assert set(shown) == {"alpha", "macros", "seed", "workers"}
        defaults = {f.name: str(f.default) for f in dataclasses.fields(ExperimentConfig)}
        assert shown == {name: defaults[name] for name in shown}

    def test_oracle_rejects_wrong_length_theta(self):
        proc = run_cli("oracle", "--model", "mm1", "--budget", "10000", "--theta", "1,2,3")
        assert proc.returncode == 2
        assert proc.stderr == "error: parameter must have shape (2,), got (3,)\n"

    def test_oracle_rejects_empty_theta(self):
        # an empty override is a parameter of the wrong shape, not an absent one
        proc = run_cli("oracle", "--model", "mm1", "--budget", "10000", "--theta", "")
        assert proc.returncode == 2
        assert proc.stderr == "error: parameter must have shape (2,), got (0,)\n"
        assert proc.stdout == ""

    def test_estimation_error_is_one_line_with_exit_code_one(self):
        # arrival rate 14.7 times the service rate: the first cycle cannot empty
        proc = run_cli("oracle", "--model", "mm1", "--theta", "14.7,1.0", "--budget", "10000")
        assert proc.returncode == 1
        assert proc.stderr == (f"error: M/M/1 cycle at arrival rate 14.7, service rate 1.0 "
                               f"exceeded {MAX_CYCLE_DRAWS} draws\n")
        assert proc.stdout == ""

    def test_san_topology_flag(self, tmp_path):
        edges = tmp_path / "net.txt"
        edges.write_text(SAN_EDGES)
        proc = run_cli(
            "run", "--model", "san", "--m", "20", "--estimator", "knn",
            "--r", "2", "--macros", "1", "--seed", "1",
            "--san-topology", str(edges),
        )
        assert proc.returncode == 0, proc.stderr


# runs in a fresh interpreter, since the test session imports scipy.stats
LAZY_IMPORTS = """
import json, sys
import numpy as np
import iuq
for model in ("mm1", "san"):
    iuq.run_macro_experiment(iuq.ExperimentConfig(
        model=model, m=20, estimator="klr", r=3, macros=1, workers=1))
lazy = ("scipy.special", "concurrent.futures.process", "numpy.ma")
loaded = [name for name in lazy if name in sys.modules]
testbed = iuq.ErmTestbed()
testbed.simulate(testbed.true_theta, 5, np.random.default_rng(0))
print(json.dumps({"loaded": loaded, "erm_loads_scipy": "scipy.special" in sys.modules}))
"""


class TestImports:
    def test_one_worker_runs_load_neither_scipy_nor_the_pool(self):
        proc = subprocess.run([sys.executable, "-c", LAZY_IMPORTS], env=src_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"loaded": [], "erm_loads_scipy": True}

    def test_pool_reports_equal_one_worker_reports(self, tmp_path):
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            proc = run_cli("run", "--model", "mm1", "--m", "30", "--estimator", "klr",
                           "--r", "3", "--macros", "2", "--seed", "4",
                           "--workers", workers, "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            outputs.append([Path(f"{out}{ext}").read_bytes() for ext in (".csv", ".json")])
        assert outputs[0] == outputs[1]


# two macros of each of 9 configs, as JSON rows, from a fresh interpreter
DISPATCH_ROWS = """
import dataclasses, json
import iuq
rows = {}
for model in ("mm1", "san", "erm"):
    for estimator in ("klr", "knn", "std-even"):
        res = iuq.run_macro_experiment(iuq.ExperimentConfig(
            model=model, m=20, estimator=estimator, macros=2, seed=5, workers=1))
        rows[f"{model}-{estimator}"] = [dataclasses.asdict(row) for row in res.rows]
print(json.dumps(rows))
"""
AVX512_PATHS = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


def numpy_dispatches_avx512():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # the module moved in numpy 2.0
        return False
    return all(__cpu_features__.get(name, False) for name in AVX512_PATHS)


class TestCpuDispatch:
    @pytest.mark.skipif(not numpy_dispatches_avx512(),
                        reason="numpy does not dispatch to AVX-512 on this host")
    def test_reports_without_avx512_paths_agree(self):
        # numpy's AVX-512 loops for a fractional power and for exp round some
        # results differently from its AVX2 ones; the ellipsoid radii
        # rng.random(count) ** (1 / d), erm's spots s0 exp(z) and the LR
        # weights use them.  Whether a moved estimate lands on an interval
        # end depends on every last digit before it: on an AVX-512 host the
        # exp of erm's spots moves erm-knn, and the radii and the LR weights
        # each move san-klr.  Every other config must not move at all.
        env = src_env(NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_PATHS))
        procs = [subprocess.Popen([sys.executable, "-c", DISPATCH_ROWS], env=penv,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for penv in (src_env(), env)]
        (avx512, err_a), (avx2, err_b) = [proc.communicate(timeout=300) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], err_a + err_b
        avx512, avx2 = json.loads(avx512), json.loads(avx2)
        assert list(avx512) == list(avx2) and len(avx512) == 9
        moved = sorted(name for name in avx512 if avx512[name] != avx2[name])
        assert moved == ["erm-knn", "san-klr"]
        for name in moved:
            for fast, slow in zip(avx512[name], avx2[name], strict=True):
                assert fast.keys() == slow.keys()
                for key, value in fast.items():
                    if isinstance(value, float):
                        assert slow[key] == pytest.approx(value, rel=1e-9, abs=0.0), (name, key)
                    else:
                        assert slow[key] == value, (name, key)
