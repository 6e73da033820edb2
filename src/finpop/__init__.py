"""Finite-population randomization inference.

Exact design moments, condition diagnostics, and normal/chi-square
calibrated tests for completely randomized experiments, treating potential
outcomes as fixed and the random assignment as the only source of noise.
"""

from .designs import (
    DEFAULT_ENUM_CAP,
    FactorialSpec,
    compute_delta,
    derive_rng,
    draw_partition_batch,
    enumerate_partition_blocks,
    factorial_contrasts,
    indicator_cov,
    multinomial_count,
)
from .errors import (
    DegenerateInputError,
    EnumerationCapError,
    FinpopError,
    InternalCheckError,
    SingularMatrixError,
    TieError,
    ValidationError,
)
from .estimators import (
    arm_sizes,
    cluster_adjusted,
    factorial_null_moments,
    finite_pop_ls,
    fit_ls_coefs,
    neyman_cov_true,
    neyman_estimate,
    normal_interval,
    regression_adjusted,
    tau_hat,
    tau_true,
    wald_threshold,
)
from .ivconf import IVSummary, QuadraticSet, classify_quadratic, iv_summary
from .popstats import (
    CovStructure,
    CREConditionStats,
    PopMoments,
    cre_condition_stats,
    hajek_condition_stat,
    partition_condition_stat,
    pop_moments,
    pot_cov_structure,
    srs_mean_var,
    unit_contrasts,
)
from .randtests import (
    SumStatistic,
    TestResult,
    exact_randomization_pvalue,
    hypergeom_test,
    mc_randomization_pvalue,
    randomization_test,
    rank_null_cov,
    rank_transform,
    standardized_rank_means,
    sum_statistic,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FinpopError",
    "ValidationError",
    "DegenerateInputError",
    "TieError",
    "SingularMatrixError",
    "EnumerationCapError",
    "InternalCheckError",
    # population statistics
    "PopMoments",
    "CovStructure",
    "CREConditionStats",
    "pop_moments",
    "srs_mean_var",
    "hajek_condition_stat",
    "partition_condition_stat",
    "unit_contrasts",
    "pot_cov_structure",
    "cre_condition_stats",
    # designs
    "DEFAULT_ENUM_CAP",
    "derive_rng",
    "draw_partition_batch",
    "multinomial_count",
    "enumerate_partition_blocks",
    "indicator_cov",
    "FactorialSpec",
    "factorial_contrasts",
    "compute_delta",
    # estimators
    "arm_sizes",
    "tau_true",
    "tau_hat",
    "neyman_cov_true",
    "neyman_estimate",
    "wald_threshold",
    "normal_interval",
    "regression_adjusted",
    "fit_ls_coefs",
    "finite_pop_ls",
    "cluster_adjusted",
    "factorial_null_moments",
    # randomization tests
    "TestResult",
    "rank_transform",
    "SumStatistic",
    "sum_statistic",
    "standardized_rank_means",
    "rank_null_cov",
    "hypergeom_test",
    "mc_randomization_pvalue",
    "exact_randomization_pvalue",
    "randomization_test",
    # instrumental variables
    "IVSummary",
    "QuadraticSet",
    "iv_summary",
    "classify_quadratic",
]
