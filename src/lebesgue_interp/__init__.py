"""Event-based time-series sampling and event-aware reconstruction.

The package pairs a send-on-delta (Lebesgue) sampler with reconstructors
that exploit what that sampling regime guarantees about the skipped points,
plus the classic baselines and a benchmark harness that scores everything
by RMSE.
"""

from .baselines import (
    interp_linear,
    interp_nearest,
    interp_pchip,
    interp_zoh,
)
from .bench import (
    METHODS,
    ExperimentConfig,
    ExperimentMode,
    emit_report,
    generate_synthetic_corpus,
    load_ucr_dataset,
    run_benchmark,
    run_experiment,
)
from .core import (
    DatasetBundle,
    InfeasibleBudgetError,
    InvalidInputError,
    ParseError,
    ReconstructionParams,
    SampledSeries,
    TimeSeries,
    normalize_unit_interval,
)
from .metrics import (
    DatasetResult,
    MethodReport,
    MethodScore,
    abruptness,
    aggregate_report,
    rmse,
)
from .sampling import (
    SampleBudget,
    lebesgue_sample,
    riemann_sample,
    tune_threshold,
)
from .zelic import (
    reconstruct_zechip,
    reconstruct_zechipc,
    reconstruct_zeli,
    reconstruct_zelic,
)

__version__ = "0.1.0"

__all__ = [
    "DatasetBundle",
    "DatasetResult",
    "ExperimentConfig",
    "ExperimentMode",
    "InfeasibleBudgetError",
    "InvalidInputError",
    "METHODS",
    "MethodReport",
    "MethodScore",
    "ParseError",
    "ReconstructionParams",
    "SampleBudget",
    "SampledSeries",
    "TimeSeries",
    "abruptness",
    "aggregate_report",
    "emit_report",
    "generate_synthetic_corpus",
    "interp_linear",
    "interp_nearest",
    "interp_pchip",
    "interp_zoh",
    "lebesgue_sample",
    "load_ucr_dataset",
    "normalize_unit_interval",
    "reconstruct_zechip",
    "reconstruct_zechipc",
    "reconstruct_zeli",
    "reconstruct_zelic",
    "riemann_sample",
    "rmse",
    "run_benchmark",
    "run_experiment",
    "tune_threshold",
]
