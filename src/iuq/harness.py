"""End-to-end orchestration.

Runs the two estimation pipelines (standard estimator with its budget
split, and the pooled kNN / likelihood-ratio estimators with a separate
simulation parameter set), each of which returns its bootstrap estimates;
each macro replication then forms the percentile interval of those
estimates and one report row.  Macro replications of the input data give
the empirical coverage and width against a pinned reference value, written
as CSV/JSON reports.

Every macro replication is a pure function of (config, master seed, macro
index): random streams are derived from seed-sequence keys
(seed, macro, phase), so results are identical regardless of worker count
and are merged by macro index.
"""

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .ci import percentile_ci
from .design import (
    CV_FOLDS,
    anova_select_r,
    bootstrap_params,
    cv_select_k,
    sample_sim_params,
    sample_size_rule,
)
from .estimators import (
    build_run_table,
    klr_fallback_k1,
    klr_ratio,
    knn_ratio,
    std_ratio,
)
from .input_models import EstimationError, is_finite_real, require_int
from .reference import reference_eta
from .simulators import TESTBEDS, SanConfig, make_testbed

ESTIMATORS = ("std-opt", "std-even", "knn", "klr")
SAMPLING_MODES = ("bootstrap", "ellipsoid")

# replication counts pinned from the variance-ratio pilot at m=50; the erm
# value comes from a one-off large pilot (b=200 parameters, 2*10^5 runs each:
# zeta per run = 2.37e-4 for Y and A alike) because the default pilot sizes
# cannot resolve that small a ratio.  Override with ExperimentConfig.r.
DEFAULT_R = {"san": 99, "mm1": 7, "erm": 423}

# rng phase keys
_PH_DATA, _PH_BOOT, _PH_SIM, _PH_RUNS = range(4)


def _rng(seed, macro, phase):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(macro), int(phase)]))


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    m: int
    alpha: float = 0.05
    estimator: str = "klr"
    sampling: str = "ellipsoid"
    r: object = "auto"  # int or "auto"
    macros: int = 200
    seed: int = 0
    out: str = None
    san_topology: str = None
    workers: int = 1
    eta_ref: float = None
    # built from model and san_topology, so a bad topology file fails here
    # and the experiment reads it only this once
    testbed: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.model not in TESTBEDS:
            raise ValueError(f"model must be one of {TESTBEDS}")
        self._check_int("m", 2)
        if not (is_finite_real(self.alpha) and 0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be a real in (0, 1), got {self.alpha!r}")
        self._check_int("macros", 1)
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"sampling must be one of {SAMPLING_MODES}")
        if self.r != "auto":
            self._check_int("r", 1)
        self._check_int("seed", 0)
        self._check_int("workers", 1)
        if self.out == "":
            raise ValueError("out must be None (no reports) or a non-empty path, got ''")
        if self.eta_ref is not None and not is_finite_real(self.eta_ref):
            raise ValueError(f"eta_ref must be None or a finite real, got {self.eta_ref!r}")
        object.__setattr__(self, "testbed", make_testbed(self.model, self.san_topology))
        if (self.san_topology is not None and self.eta_ref is None
                and self.testbed.config != SanConfig.default()):
            raise ValueError(f"san_topology {self.san_topology!r} is not the default network, "
                             "whose pinned reference value would judge it; give eta_ref")
        if self.estimator in ("knn", "klr"):
            n, _ = sample_size_rule(self.m)
            if n < CV_FOLDS:
                raise ValueError(f"m={self.m} is too small for the {self.estimator} estimator: "
                                 f"its {CV_FOLDS}-fold cross-validation of k needs at least "
                                 f"{CV_FOLDS} simulation parameters, and m={self.m} gives {n}")
        else:
            n_s, r_s = self.std_split()
            if n_s < 2:
                raise ValueError(f"the {self.estimator} split gives n_s={n_s} bootstrap "
                                 f"parameters of r_s={r_s} runs; the interval needs at least 2")
            # the std pipeline simulates at the bootstrap set, whichever mode
            # was asked for; rows and summary then read the one it used
            object.__setattr__(self, "sampling", "bootstrap")

    def _check_int(self, name, low):
        """Require an integer field >= low; store it as int."""
        object.__setattr__(self, name, require_int(name, getattr(self, name), low))

    def resolved_r(self):
        return DEFAULT_R[self.model] if self.r == "auto" else self.r

    def std_split(self):
        """(n_s, r_s): a std estimator's split of the pooled design's n*r runs."""
        n, _ = sample_size_rule(self.m)
        return std_budget_split(n * self.resolved_r(), self.estimator.removeprefix("std-"))


@dataclass(frozen=True)
class MacroRow:
    macro_id: int
    estimator: str
    sampling: str
    m: int
    n: int
    n_tilde: int
    r: int
    k_y: int
    k_a: int
    lower: float
    upper: float
    width: float
    covered: int
    sims_used: int
    seed: int


@dataclass(frozen=True)
class MacroResult:
    rows: tuple
    failures: tuple  # (macro_id, reason) pairs
    summary: dict


# -- single-dataset pipelines ---------------------------------------------


def run_iuq_knn_klr(testbed, theta_hat, cfg, rngs):
    """Pooled-estimator (knn or klr) pipeline on one input dataset.

    Bootstraps the MLE, draws an independent simulation parameter set, runs
    r simulations at each simulation parameter, picks the pooling sizes for
    numerator and denominator by cross validation, and estimates the ratio
    at every bootstrap parameter.

    Both pipelines take the MLE of one input dataset and the validated
    config, and return the bootstrap estimates with the row's design sizes
    ``(n, n_tilde, r, k_y, k_a)``.  ``rngs`` maps phase names ('boot',
    'sim', 'runs') to generators so that phases stay stream-independent.
    """
    model = testbed.input_model
    r = cfg.resolved_r()
    n, n_tilde = sample_size_rule(cfg.m)
    boots = bootstrap_params(model, theta_hat, cfg.m, n_tilde, rngs["boot"])
    sim = sample_sim_params(cfg.sampling, boots, model, theta_hat, cfg.m, n, rngs["sim"])
    table = build_run_table(testbed, sim.params, r, rngs["runs"])
    # both cross-validations use the same deterministic fold partition so
    # their losses correlate; with strongly dependent (Y, A) the selected
    # pool sizes then coincide and the ratio keeps its error cancellation
    k_y = min(cv_select_k(sim.params, table.y_mean), table.pool.size)
    k_a = min(cv_select_k(sim.params, table.a_mean), table.pool.size)
    if cfg.estimator == "knn":
        return knn_ratio(table, boots, k_y, k_a), (n, n_tilde, r, k_y, k_a)
    estimates = np.empty(n_tilde)
    lr_targets = testbed.lr_param(boots)
    for i in range(n_tilde):
        estimates[i] = klr_ratio(table, boots[i], k_y, k_a, lr_targets[i]).value
    return estimates, (n, n_tilde, r, k_y, k_a)


def std_budget_split(budget, split):
    """Bootstrap-set size and per-parameter run count for the standard
    pipeline at a shared total budget.

    'opt' uses (budget^(2/3), budget^(1/3)); 'even' splits evenly as
    (sqrt(budget), sqrt(budget)).  Values floor to integers >= 1.
    """
    budget = require_int("budget", budget, 1)
    if split == "opt":
        n_s = budget ** (2.0 / 3.0)
        r_s = budget ** (1.0 / 3.0)
    elif split == "even":
        n_s = r_s = math.sqrt(budget)
    else:
        raise ValueError(f"unknown split {split!r}")
    return max(1, int(math.floor(n_s + 1e-9))), max(1, int(math.floor(r_s + 1e-9)))


def run_iuq_std(testbed, theta_hat, cfg, rngs):
    """Standard-estimator (std-opt or std-even) pipeline on one input dataset.

    Simulates directly at the bootstrap parameters with the budget split
    implied by the pooled design's n*r total.  Every eligible parameter's
    estimate is the ratio of its own run means, taken for all of them in
    one vector step; a parameter whose runs have a zero denominator mean
    falls back to the reweighted nearest eligible neighbor's estimate.  The
    bootstrap set doubles as the run table, so n = n_tilde and
    k_y = k_a = 0.
    """
    n_s, r_s = cfg.std_split()
    boots = bootstrap_params(testbed.input_model, theta_hat, cfg.m, n_s, rngs["boot"])
    table = build_run_table(testbed, boots, r_s, rngs["runs"])
    estimates = np.empty(n_s)
    estimates[table.pool] = std_ratio(table)
    for i in np.delete(np.arange(n_s), table.pool):
        estimates[i] = klr_fallback_k1(table, boots[i], table.lr_params[i]).value
    return estimates, (n_s, n_s, r_s, 0, 0)


# -- macro experiment ------------------------------------------------------


def _run_single_macro(cfg, testbed, macro_idx, eta_ref):
    data = testbed.input_model.sample(
        testbed.true_theta, _rng(cfg.seed, macro_idx, _PH_DATA), size=cfg.m
    )
    rngs = {
        "boot": _rng(cfg.seed, macro_idx, _PH_BOOT),
        "sim": _rng(cfg.seed, macro_idx, _PH_SIM),
        "runs": _rng(cfg.seed, macro_idx, _PH_RUNS),
    }
    try:
        theta_hat = testbed.input_model.mle(data)
        pipeline = run_iuq_knn_klr if cfg.estimator in ("knn", "klr") else run_iuq_std
        estimates, (n, n_tilde, r, k_y, k_a) = pipeline(testbed, theta_hat, cfg, rngs)
        ci = percentile_ci(estimates, cfg.alpha)
    except EstimationError as exc:
        return macro_idx, None, str(exc)
    except Exception as exc:
        raise RuntimeError(f"macro {macro_idx} failed: {type(exc).__name__}: {exc}") from exc
    row = MacroRow(
        macro_id=macro_idx,
        estimator=cfg.estimator,
        sampling=cfg.sampling,
        m=cfg.m,
        n=n,
        n_tilde=n_tilde,
        r=r,
        k_y=k_y,
        k_a=k_a,
        lower=ci.lower,
        upper=ci.upper,
        width=ci.width,
        covered=int(ci.covers(eta_ref)),
        sims_used=n * r,
        seed=cfg.seed,
    )
    return macro_idx, row, None


def run_macro_experiment(cfg):
    """Repeat the full pipeline over fresh input datasets.

    Each macro run draws a new size-m dataset from the true input model,
    runs the configured pipeline, and records whether the interval covers
    the pinned reference value.  Every macro runs on the config's testbed.
    Failed macro runs are excluded and counted; more than 10% failures
    aborts the experiment.  With ``workers > 1`` the macros run in a process
    pool, whose module is imported only then, so a one-worker run never
    loads multiprocessing.
    """
    eta_ref = cfg.eta_ref if cfg.eta_ref is not None else reference_eta(cfg.model)
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(cfg.workers, cfg.macros)) as pool:
            outcomes = list(pool.map(_run_single_macro, repeat(cfg), repeat(cfg.testbed),
                                     range(cfg.macros), repeat(eta_ref), chunksize=1))
    else:
        outcomes = [_run_single_macro(cfg, cfg.testbed, i, eta_ref) for i in range(cfg.macros)]
    rows = tuple(row for _, row, err in outcomes if err is None)
    failures = tuple((idx, err) for idx, row, err in outcomes if err is not None)
    if len(failures) > 0.1 * cfg.macros:
        raise EstimationError(
            f"{len(failures)} of {cfg.macros} macro runs failed; first: {failures[0]}"
        )
    summary = summarize(rows, failures, cfg, eta_ref)
    return MacroResult(rows=rows, failures=failures, summary=summary)


def summarize(rows, failures, cfg, eta_ref):
    n = len(rows)
    covered = np.array([r.covered for r in rows], dtype=float)
    widths = np.array([r.width for r in rows], dtype=float)
    coverage = float(covered.mean()) if n else float("nan")
    summary = {
        "model": cfg.model,
        "estimator": cfg.estimator,
        "sampling": cfg.sampling,
        "m": cfg.m,
        "alpha": cfg.alpha,
        "r": cfg.resolved_r(),
        "macros": cfg.macros,
        "completed": n,
        "failed": len(failures),
        "seed": cfg.seed,
        "eta_ref": eta_ref,
        "coverage": coverage,
        "coverage_se": float(math.sqrt(coverage * (1 - coverage) / n)) if n else float("nan"),
        "mean_width": float(widths.mean()) if n else float("nan"),
        "width_se": float(widths.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        "total_sims": int(sum(r.sims_used for r in rows)),
    }
    return summary


# -- reporting -------------------------------------------------------------

_CSV_COLUMNS = dataclasses.fields(MacroRow)  # each field's type parses its cell
_CSV_FIELDS = [f.name for f in _CSV_COLUMNS]


def emit_report(result, path):
    """Write ``<path>.csv`` (one row per macro run) and ``<path>.json``
    (the summary); ``path`` is a str or path-like, with or without the
    ``.csv`` suffix.  Output bytes are a pure function of (config, seed)."""
    if not result.rows:
        raise ValueError("nothing to report")
    base = os.fspath(path).removesuffix(".csv")
    parent = os.path.dirname(base)
    if parent:
        os.makedirs(parent, exist_ok=True)
    csv_path = base + ".csv"
    json_path = base + ".json"
    lines = [",".join(_CSV_FIELDS)]
    for row in result.rows:
        lines.append(",".join(str(getattr(row, f)) for f in _CSV_FIELDS))
    with open(csv_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    payload = dict(result.summary)
    payload["failures"] = [list(f) for f in result.failures]
    with open(json_path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def load_report(csv_path):
    """Parse an emitted CSV back into MacroRow records; a row whose cell
    count differs from the header's raises ``ValueError`` naming its line."""
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        if header != _CSV_FIELDS:
            raise ValueError(f"unexpected report header: {header}")
        rows = []
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if line:
                cells = line.split(",")
                if len(cells) != len(header):
                    raise ValueError(f"{csv_path}:{lineno}: {len(cells)} cells, "
                                     f"the header has {len(header)}")
                rows.append(MacroRow(**{f.name: f.type(cell)
                                        for f, cell in zip(_CSV_COLUMNS, cells)}))
    return rows


# -- pilot entry point ------------------------------------------------------


def run_pilot(model_name, m, seed=0, san_topology=None, **pilot):
    """Run the variance-ratio pilot on a fresh dataset from the true model.

    Keyword arguments (``b``, ``s0``, ``ds``, ``c_zeta``, ``max_s``) go to
    ``anova_select_r``, which holds their defaults; its ``simulate`` is the
    testbed's own ``simulate(params, runs, rng)``, one batch per sweep.
    ``m`` and ``seed`` follow the config's rules, integers >= 2 and >= 0,
    checked before any draw.
    """
    m, seed = require_int("m", m, 2), require_int("seed", seed, 0)
    testbed = make_testbed(model_name, san_topology=san_topology)
    rng = _rng(seed, 0, 99)
    data = testbed.input_model.sample(testbed.true_theta, rng, size=m)
    theta_hat = testbed.input_model.mle(data)

    def sample_param(count, rng_):
        return bootstrap_params(testbed.input_model, theta_hat, m, count, rng_)

    return anova_select_r(sample_param, testbed.simulate, rng=rng, **pilot)
