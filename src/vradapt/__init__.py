"""Variance-reduced stochastic optimization bench: estimators with
registered error-recursion constants, theoretical and parameter-free
adaptive step sizes, an empirical recursion verifier, and an experiment
engine with CSV traces."""

from .compressors import (
    CompressedVector,
    IdentityCompressor,
    RandK,
    TopK,
    bits_cost,
    check_biased_contract,
    check_unbiased_contract,
    dense_bits_cost,
    make_compressor,
    rand_k,
    top_k,
)
from .data import (
    Dataset,
    LibsvmParseError,
    dense_row,
    load_libsvm,
    parse_libsvm,
    synthetic_dataset,
    write_libsvm,
)
from .engine import (
    ExperimentConfig,
    RunResult,
    Trace,
    TraceRow,
    iterations_to_tolerance,
    load_config,
    parse_trace_csv,
    run,
    sweep,
    trace_to_csv,
)
from .estimators import (
    METHODS,
    VRConstants,
    constants,
    make_estimator,
)
from .problems import (
    LogisticProblem,
    Problem,
    QuadraticProblem,
    QuadraticSpec,
    estimate_smoothness,
    logistic_problem,
    make_quadratic,
    partition_problem,
    quadratic_problem,
)
from .schedulers import (
    AdamState,
    AdaptiveAccumulator,
    adam_baseline_step,
    adaptive_step_size,
    corollary_step_size,
    nu_of,
    theoretical_gamma_nonconvex,
    theoretical_gamma_pl,
    tuned_gamma,
)
from .verify import (
    assumption_margin,
    grad_fd_check,
    margins_to_csv,
    pl_decay_check,
    rate_slope,
    standard_margin_setup,
)

__version__ = "0.1.0"
