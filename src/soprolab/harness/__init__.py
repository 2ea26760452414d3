"""Experiment orchestration: reference oracle, metrics, tuning, CLI."""

from .experiment import (
    CONFIG_SCHEMA,
    ExperimentConfig,
    ExperimentResult,
    build_certificate,
    build_problem,
    build_topology,
    config_from_mapping,
    parse_config_file,
    run_experiment,
)
from .metrics import (
    BITS_PER_SCALAR,
    MetricRow,
    MetricsTrace,
    accuracy,
    aggregate_traces,
    optimality_error,
    write_aggregate_csv,
)
from .reference import ReferenceSolution, estimate_sigma_sq, probe_points, solve_reference
from .synthetic import gaussian_blob_samples
from .tuning import TunePoint, TuneResult, parse_grid_file, tune_baseline

__all__ = [
    "CONFIG_SCHEMA",
    "ExperimentConfig",
    "ExperimentResult",
    "build_certificate",
    "build_problem",
    "build_topology",
    "config_from_mapping",
    "parse_config_file",
    "run_experiment",
    "BITS_PER_SCALAR",
    "MetricRow",
    "MetricsTrace",
    "accuracy",
    "aggregate_traces",
    "optimality_error",
    "write_aggregate_csv",
    "ReferenceSolution",
    "estimate_sigma_sq",
    "probe_points",
    "solve_reference",
    "gaussian_blob_samples",
    "TunePoint",
    "TuneResult",
    "parse_grid_file",
    "tune_baseline",
]
