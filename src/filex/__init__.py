"""Finite-lexicon self-reinforcing stochastic process and its experiment harness."""

from .core import (
    Distribution,
    ProcessParams,
    RandomStream,
    TraceResult,
    WeightState,
    init_weights,
    make_stream,
    run,
    run_traced,
    step,
    step_fast,
)
from .errors import (
    ConfigError,
    CsvFormatError,
    FilexError,
    InvalidInputError,
    InvalidParameterError,
    UndefinedCorrelationError,
)
from .stats import CorrelationResult, PairedSeries, kendall_tau, shannon_entropy_bits
from .sweep import (
    ALPHA_PER_SYMBOL_COUPLING,
    REDUCED_STRIDE,
    ExperimentSpec,
    RunRecord,
    SweepSpec,
    canonical_experiments,
    correlate,
    derive_run_seed,
    log_sweep,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_PER_SYMBOL_COUPLING",
    "ConfigError",
    "CorrelationResult",
    "CsvFormatError",
    "Distribution",
    "ExperimentSpec",
    "FilexError",
    "InvalidInputError",
    "InvalidParameterError",
    "PairedSeries",
    "ProcessParams",
    "REDUCED_STRIDE",
    "RandomStream",
    "RunRecord",
    "SweepSpec",
    "TraceResult",
    "UndefinedCorrelationError",
    "WeightState",
    "canonical_experiments",
    "correlate",
    "derive_run_seed",
    "init_weights",
    "kendall_tau",
    "log_sweep",
    "make_stream",
    "run",
    "run_experiment",
    "run_traced",
    "shannon_entropy_bits",
    "step",
    "step_fast",
    "__version__",
]
