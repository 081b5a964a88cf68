"""Sorted-L1 penalized estimation with stepdown-derived schedules.

The package covers four pieces: schedule generators (plain, Gaussian- and
Monte-Carlo-corrected, and group variants), proximal solvers for the
feature-level and group-level sorted-L1 problems, classical stepdown
multiple tests, and a simulation laboratory that measures the error
control the schedules are designed for.
"""
from .errors import NumericalError
from .groups import (
    GroupFitResult,
    GroupPartition,
    StandardizedProblem,
    group_prox,
    group_support_metrics,
    solve_group_slope,
    standardize,
)
from .quantiles import (
    ChiMixture,
    chi_cdf,
    chi_quantile,
    mixture_quantile,
    normal_cdf,
    normal_quantile,
)
from .schedules import (
    RULES,
    LambdaSchedule,
    bh_schedule,
    build_schedule,
    fdp_schedule,
    gaussian_corrected_schedule,
    gf_schedule,
    gk_schedule,
    group_corrected_schedule,
    group_max_schedule,
    kfwer_schedule,
    monte_carlo_corrected_schedule,
    schedule_from_json,
    schedule_to_csv,
    schedule_to_json,
    schedule_values_from_csv,
)
from .simlab import (
    ExperimentConfig,
    TrialReport,
    resolve_schedule,
    run_experiment,
    write_details_json,
    write_report_csv,
)
from .solver import (
    DesignMatrix,
    FitResult,
    SupportMetrics,
    slope_objective,
    solve_slope,
    support_metrics,
)
from .sorted_l1 import dual_infeasibility, prox_sorted_l1, sorted_l1_norm
from .stepdown import (
    fdp_thresholds,
    kfwer_thresholds,
    stepdown_reject,
    two_sided_pvalues,
)

__version__ = "0.1.0"

__all__ = [
    "ChiMixture",
    "DesignMatrix",
    "ExperimentConfig",
    "FitResult",
    "GroupFitResult",
    "GroupPartition",
    "LambdaSchedule",
    "NumericalError",
    "RULES",
    "StandardizedProblem",
    "SupportMetrics",
    "TrialReport",
    "bh_schedule",
    "build_schedule",
    "chi_cdf",
    "chi_quantile",
    "dual_infeasibility",
    "fdp_schedule",
    "fdp_thresholds",
    "gaussian_corrected_schedule",
    "gf_schedule",
    "gk_schedule",
    "group_corrected_schedule",
    "group_max_schedule",
    "group_prox",
    "group_support_metrics",
    "kfwer_schedule",
    "kfwer_thresholds",
    "mixture_quantile",
    "monte_carlo_corrected_schedule",
    "normal_cdf",
    "normal_quantile",
    "prox_sorted_l1",
    "resolve_schedule",
    "run_experiment",
    "schedule_from_json",
    "schedule_to_csv",
    "schedule_to_json",
    "schedule_values_from_csv",
    "slope_objective",
    "solve_group_slope",
    "solve_slope",
    "sorted_l1_norm",
    "standardize",
    "stepdown_reject",
    "support_metrics",
    "two_sided_pvalues",
    "write_details_json",
    "write_report_csv",
]
