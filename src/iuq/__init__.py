"""Input uncertainty quantification for ratio-form performance measures.

A Monte Carlo library for building percentile bootstrap confidence
intervals around eta(theta) = E[Y|theta]/E[A|theta] when the input models
behind a stochastic simulation are themselves estimated from finite data.
Includes the standard, pooled k-nearest-neighbor, and likelihood-ratio
reweighted ratio estimators, the experiment-design helpers that tune them,
and three ready-made simulation testbeds.
"""

from .ci import CIResult, empirical_quantile, percentile_ci
from .design import (
    Ellipsoid,
    PilotResult,
    SimParamSet,
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
from .estimators import (
    NeighborIndex,
    RatioEstimate,
    RunTable,
    build_run_table,
    klr_fallback_k1,
    klr_ratio,
    knn_ratio,
    std_ratio,
)
from .harness import (
    DEFAULT_R,
    ExperimentConfig,
    MacroResult,
    MacroRow,
    emit_report,
    load_report,
    run_iuq_knn_klr,
    run_iuq_std,
    run_macro_experiment,
    run_pilot,
    std_budget_split,
)
from .input_models import (
    EstimationError,
    ExponentialFamily,
    IndependentExponentials,
    MultivariateNormalKnownCov,
    pack_stats,
)
from .reference import REFERENCE_ETA, reference_eta
from .simulators import (
    ErmConfig,
    ErmTestbed,
    Mm1Testbed,
    OracleResult,
    QueueConfig,
    SanConfig,
    SanTestbed,
    SimBatch,
    bs_price,
    make_testbed,
    mm1_steady_state_mean,
    true_eta_oracle,
)

__version__ = "0.1.0"
