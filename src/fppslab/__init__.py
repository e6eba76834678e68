"""Slab-crossing passage times on Z^d: exact computation, fast sampling,
and rigorous high-dimensional moment bounds."""

from .errors import (
    BudgetExceeded,
    ConfigError,
    DomainError,
    FppError,
    InvariantViolation,
    QuadratureFailure,
    SamplerMismatch,
    UnsupportedModel,
)
from .lattice import EdgeId
from .weights import (
    CoupledWeights,
    CouplingMap,
    WeightModel,
    couple_check,
    derive_seed,
    verify_density_condition,
)
from .slab import (
    PassageSample,
    greedy_concatenation,
    point_to_hyperplane_time,
    slab_crossing_time,
)
from .eden import DrawSource, sample_slab_crossing
from .bounds import (
    BoundReport,
    asymptote,
    bound_report,
    first_moment_ub,
    integral_decomposition,
    perimeter_lower_bound,
    second_moment_ub,
)
from .experiments import (
    ExperimentConfig,
    SummaryStats,
    concentration_curve,
    ks_statistic,
    run_slab_mc,
    search_cross_probe,
    subadditivity_check,
    ui_tail,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceeded",
    "ConfigError",
    "CoupledWeights",
    "CouplingMap",
    "DomainError",
    "DrawSource",
    "EdgeId",
    "ExperimentConfig",
    "FppError",
    "InvariantViolation",
    "PassageSample",
    "QuadratureFailure",
    "SamplerMismatch",
    "SummaryStats",
    "UnsupportedModel",
    "WeightModel",
    "asymptote",
    "bound_report",
    "concentration_curve",
    "couple_check",
    "derive_seed",
    "first_moment_ub",
    "greedy_concatenation",
    "integral_decomposition",
    "ks_statistic",
    "perimeter_lower_bound",
    "point_to_hyperplane_time",
    "run_slab_mc",
    "sample_slab_crossing",
    "search_cross_probe",
    "second_moment_ub",
    "slab_crossing_time",
    "subadditivity_check",
    "ui_tail",
    "verify_density_condition",
    "wilson_interval",
]
