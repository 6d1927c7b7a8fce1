"""Composable security-budget optimization for QKD key rates."""

from .budget import (
    EPSILON_FLOOR,
    EpsilonBudget,
    Family,
    baseline_budgets,
    map_gene,
    reconstruct_sec,
)
from .cga import (
    WORST_FITNESS,
    CgaConfig,
    OptimizationResult,
    run,
    run_genetic,
)
from .cv_rate import (
    CvProtocolParams,
    CvRateBreakdown,
    EstimatorModel,
    WorstCaseChannel,
    cv_key_rate,
    holevo_bound,
    mutual_information,
    transmissivity,
)
from .dv_rate import (
    DvProtocolParams,
    DvRateBreakdown,
    binary_entropy,
    detection_stats,
    dv_key_rate,
    estimated_qber,
)
from .harness import (
    ConfigError,
    SweepRecord,
    SweepResult,
    SweepSpec,
    emit_results,
    load_config,
    loads_config,
    run_sweep,
)
from .oracle import GridSearchResult, GridSpec, grid_search

__version__ = "0.1.0"
