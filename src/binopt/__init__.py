"""Optimal binning of a single variable against a binary, continuous, or
multi-class target: exact constrained bin merging, a local-search fallback,
and a closed-form quality score for the result."""

from .core import (
    BinoptError,
    InvalidConfigError,
    DegenerateColumnError,
    InfeasibleError,
    TimeBudgetError,
    ZeroCountError,
    InputError,
    TargetKind,
    TrendSpec,
    BinningConfig,
    validate_config,
    Solution,
    BinStats,
    BinningModel,
    OPTIMAL,
    FEASIBLE,
    INFEASIBLE,
    TIME_LIMIT,
)
from .preprocess import (
    split_missing_special,
    prebin_numeric,
    prebin_categorical,
    PrebinTable,
    build_prebin_table,
    refine_prebins,
    refine_prebins_multiclass,
)
from .aggregate import (
    AggregateSet,
    PValuePairs,
    woe,
    divergence_contrib,
    build_binary,
    build_continuous,
    build_multiclass,
    pvalue_pairs,
)
from .solver import (
    apply_pvalue_constraint,
    check_trend,
    evaluate_partition,
    presolve_monotonic,
    solve,
    brute_force_oracle,
)
from .localsearch import ls_solve
from .quality import (
    QualityReport,
    c_star,
    rayleigh_factor,
    iv_label,
    adjacent_pvalues,
    quality_score,
    assess,
)

__version__ = "0.1.0"

__all__ = [
    "BinoptError", "InvalidConfigError", "DegenerateColumnError",
    "InfeasibleError", "TimeBudgetError", "ZeroCountError",
    "InputError",
    "TargetKind", "TrendSpec", "BinningConfig", "validate_config",
    "Solution", "BinStats", "BinningModel",
    "OPTIMAL", "FEASIBLE", "INFEASIBLE", "TIME_LIMIT",
    "split_missing_special", "prebin_numeric", "prebin_categorical",
    "PrebinTable", "build_prebin_table", "refine_prebins",
    "refine_prebins_multiclass",
    "AggregateSet", "PValuePairs", "woe", "divergence_contrib",
    "build_binary", "build_continuous", "build_multiclass", "pvalue_pairs",
    "apply_pvalue_constraint", "check_trend",
    "evaluate_partition",
    "presolve_monotonic", "solve", "brute_force_oracle",
    "ls_solve",
    "QualityReport", "c_star", "rayleigh_factor", "iv_label",
    "adjacent_pvalues", "quality_score", "assess",
    "__version__",
]
