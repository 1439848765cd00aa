"""Random coefficient regression with bounded-support covariates.

Identifiability of coefficient means and covariances from the support
geometry, two-stage adaptive-LASSO estimation of those moments, sharp
partial-identification bounds when a binary regressor breaks
identification, and a reproducible Monte Carlo sign-recovery study.

Names from ``estimate`` and ``simulate`` are imported on first use, so a
process that only checks identification or bounds variances does not load
them or ``multiprocessing`` (about 2 MB less memory).
"""

import importlib

from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    InfeasibleError,
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
    check_identified,
    classify_randomness,
    mixed_moments_single_regressor,
    partial_id_bounds,
)

_ESTIMATE = (
    "Dataset", "LassoSolution", "MomentFit", "SandwichEstimate", "SecondStage",
    "SecondStageDesign", "WitnessReport", "adaptive_lasso",
    "build_second_stage", "fit_moments", "kkt_residual", "lambda_max",
    "lambda_path", "ols", "sandwich", "witness_check",
)
_SIMULATE = (
    "DEFAULT_B4", "DEFAULT_MU1", "DEFAULT_SIGMA1", "CovariateLaw", "RepResult",
    "SimConfig", "SimReport", "TuneResult", "dgp_sample", "monte_carlo",
    "run_replication", "true_moments", "tune_lambda",
)


def __getattr__(name):
    for module, names in (("estimate", _ESTIMATE), ("simulate", _SIMULATE)):
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
