"""Random coefficient regression with bounded-support covariates.

Identifiability of coefficient means and covariances from the support
geometry, two-stage adaptive-LASSO estimation of those moments, sharp
partial-identification bounds when a binary regressor breaks
identification, and a reproducible Monte Carlo sign-recovery study.
"""

from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    ExplosionError,
    InfeasibleError,
    NotIdentifiableError,
    RcregError,
    SingularDesignError,
    SingularGramError,
    WitnessContradictionError,
)
from .halfvec import (
    half_dim,
    halfvec_indices,
    min_eigenvalue,
    numeric_rank,
    unvec_half,
    v_transform,
    v_transform_rows,
    vec_half,
)
from .identify import (
    Classification,
    IdentReport,
    PartialIdBlocks,
    SupportSpec,
    VarianceBounds,
    assemble_covariance,
    binary_variance_interval,
    build_design_S,
    cartesian_identifying_points,
    check_identified,
    classify_randomness,
    correlation_for_variance,
    mixed_moments_single_regressor,
    partial_id_bounds,
)
from .estimate import (
    AdaLassoConfig,
    Dataset,
    LassoSolution,
    MomentFit,
    SandwichEstimate,
    SecondStage,
    SecondStageDesign,
    WitnessReport,
    adaptive_lasso,
    build_second_stage,
    fit_moments,
    kkt_residual,
    lambda_max,
    lambda_path,
    ols,
    sandwich,
    select_means,
    witness_check,
)
from .simulate import (
    DEFAULT_B4,
    DEFAULT_MU1,
    DEFAULT_SIGMA1,
    CovariateLaw,
    RepResult,
    SimConfig,
    SimReport,
    TuneResult,
    dgp_sample,
    monte_carlo,
    run_replication,
    true_moments,
    tune_lambda,
)

__version__ = "0.1.0"
