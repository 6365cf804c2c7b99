"""Diagnostic assessment generation by combinatorial search over
learner-performance snapshots."""

from .core import (
    Assessment,
    InteractionLog,
    Snapshot,
    build_pool,
    split_learners,
)
from .criteria import (
    CriteriaContext,
    FitnessReport,
    calibrate_lambda,
    combined,
    fitness,
)
from .estimation import (
    RaschModel,
    SufficiencyCurve,
    correct_ratio_snapshot,
    fit_abilities,
    fit_rasch,
    mean_performance_correlation,
    rasch_snapshot,
    sufficiency_curve,
)
from .search import (
    GaConfig,
    SearchResult,
    brute_force,
    crossover,
    ga_search,
    greedy_search,
    mutate,
    random_search,
    select,
)
from .simulator import SimConfig, simulate, solve_probability

__version__ = "0.1.0"

__all__ = [
    "Assessment",
    "CriteriaContext",
    "FitnessReport",
    "GaConfig",
    "InteractionLog",
    "RaschModel",
    "SearchResult",
    "SimConfig",
    "Snapshot",
    "SufficiencyCurve",
    "brute_force",
    "build_pool",
    "calibrate_lambda",
    "combined",
    "correct_ratio_snapshot",
    "crossover",
    "fit_abilities",
    "fit_rasch",
    "fitness",
    "ga_search",
    "greedy_search",
    "mean_performance_correlation",
    "mutate",
    "random_search",
    "rasch_snapshot",
    "select",
    "simulate",
    "solve_probability",
    "split_learners",
    "sufficiency_curve",
    "__version__",
]
