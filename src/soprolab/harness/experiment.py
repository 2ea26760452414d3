"""Experiment orchestration: config schema, problem assembly, trace output.

A flat key-value config file (every key doubles as a CLI flag) describes
the dataset, the network, and the run parameters.  One experiment builds a
pinned topology and data split, solves the centralized reference problem,
certifies the proximal method when applicable, and runs each seed to a
JSONL trace plus one seed-averaged CSV.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .. import baselines, certificate as cert, optimizer
from ..errors import ConfigurationError, DivergenceError
from ..loss import SmoothnessBounds, TestSet, parse_libsvm, partition
from ..topology import (
    MatrixP,
    build_random_connected_graph,
    laplacian_weights,
    read_edge_list,
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
from .reference import (
    ReferenceSolution,
    estimate_sigma_sq,
    local_gradients,
    solve_reference,
)
from .synthetic import gaussian_blob_samples

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "CONFIG_SCHEMA",
    "parse_config_file",
    "config_from_mapping",
    "build_topology",
    "build_problem",
    "build_certificate",
    "run_experiment",
]


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment end to end."""

    dataset: str = "synthetic"
    dim: int = 10
    n_agents: int = 5
    avg_degree: float = 2.0
    per_agent: int = 50
    test_size: int = 200
    separation: float = 1.0
    noise: float = 1.0
    lambda_reg: float = 0.01
    beta: float = 1.0
    eta_s: float = 0.5
    mu: float | None = None
    c1: float = 1.0
    batch_g: int = 10
    batch_s: int = 10
    max_iters: int = 500
    algorithm: str = "st_sopro"
    x0_mode: str = "uniform"
    step_size: float | None = None
    step_schedule: str = "constant"
    seeds: int = 1
    master_seed: int = 0
    topology_seed: int | None = None
    data_seed: int | None = None
    topology_file: str | None = None
    target_error: float | None = None
    out: str | None = None

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        coerced = _coerce_mapping(overrides)
        return replace(self, **coerced)

    def to_run_config(self, seed: int) -> optimizer.RunConfig:
        full = self.algorithm == "sopro"
        return optimizer.RunConfig(
            batch_g=self.per_agent if full else self.batch_g,
            batch_s=self.per_agent if full else self.batch_s,
            max_iters=self.max_iters,
            seed=seed,
            beta=self.beta,
            eta_s=self.eta_s,
            mu=self.mu,
            algorithm=self.algorithm,
            x0_mode=self.x0_mode,
            step_size=self.step_size,
            step_schedule=self.step_schedule,
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(ExperimentConfig)}


_OPTIONAL_FLOATS = {"mu", "step_size", "target_error"}
_OPTIONAL_INTS = {"topology_seed", "data_seed"}
_OPTIONAL_STRS = {"topology_file", "out"}

CONFIG_SCHEMA: dict[str, type] = {
    "dataset": str,
    "dim": int,
    "n_agents": int,
    "avg_degree": float,
    "per_agent": int,
    "test_size": int,
    "separation": float,
    "noise": float,
    "lambda_reg": float,
    "beta": float,
    "eta_s": float,
    "mu": float,
    "c1": float,
    "batch_g": int,
    "batch_s": int,
    "max_iters": int,
    "algorithm": str,
    "x0_mode": str,
    "step_size": float,
    "step_schedule": str,
    "seeds": int,
    "master_seed": int,
    "topology_seed": int,
    "data_seed": int,
    "topology_file": str,
    "target_error": float,
    "out": str,
}


def _coerce_one(key: str, value):
    if key not in CONFIG_SCHEMA:
        raise ConfigurationError(f"unknown config key {key!r}")
    if value is None:
        return None
    if isinstance(value, str):
        v = value.strip()
        if v.lower() in ("none", "auto", ""):
            return None
        try:
            return CONFIG_SCHEMA[key](v)
        except ValueError:
            raise ConfigurationError(f"bad value {value!r} for key {key!r}")
    return CONFIG_SCHEMA[key](value)


def _coerce_mapping(mapping: dict) -> dict:
    out = {}
    for k, v in mapping.items():
        key = k.replace("-", "_")
        coerced = _coerce_one(key, v)
        if coerced is None and key not in (
            _OPTIONAL_FLOATS | _OPTIONAL_INTS | _OPTIONAL_STRS
        ):
            raise ConfigurationError(f"key {key!r} cannot be unset")
        out[key] = coerced
    return out


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    mapping = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            continue
        if "=" in ln:
            key, _, value = ln.partition("=")
        else:
            parts = ln.split(None, 1)
            if len(parts) != 2:
                raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = parts
        mapping[key.strip()] = value.strip()
    return mapping


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    return ExperimentConfig().with_overrides(mapping)


def build_topology(config: ExperimentConfig) -> MatrixP:
    if config.topology_file:
        return read_edge_list(config.topology_file)
    seed = config.topology_seed if config.topology_seed is not None else config.master_seed
    g = build_random_connected_graph(config.n_agents, config.avg_degree, seed)
    return laplacian_weights(g, 1.0)


def _load_data(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The whole data set as ``(features, labels)`` arrays."""
    if config.dataset == "synthetic":
        total = config.n_agents * config.per_agent + config.test_size
        seed = config.data_seed if config.data_seed is not None else config.master_seed
        return gaussian_blob_samples(
            total, config.dim, seed, separation=config.separation, noise=config.noise
        )
    with open(config.dataset, "rb") as f:
        return parse_libsvm(f, dim=config.dim)


@dataclass
class Problem:
    P: MatrixP
    datasets: list
    test: TestSet
    bounds: SmoothnessBounds
    reference: ReferenceSolution
    # Wall seconds of the set-up phases: load_s (topology, data, split and
    # curvature bounds) and reference_s.
    timings: dict = field(default_factory=dict)


def build_problem(config: ExperimentConfig) -> Problem:
    start = time.perf_counter()
    P = build_topology(config)
    seed = config.data_seed if config.data_seed is not None else config.master_seed
    # The loaded arrays are not bound to a name: partition copies what it
    # keeps, so they are freed before the reference solve.
    datasets, test = partition(
        _load_data(config), config.n_agents, config.per_agent, seed, config.lambda_reg
    )
    bounds = SmoothnessBounds.from_datasets(datasets)
    loaded = time.perf_counter()
    ref = solve_reference(datasets)
    timings = {"load_s": loaded - start, "reference_s": time.perf_counter() - loaded}
    return Problem(P=P, datasets=datasets, test=test, bounds=bounds, reference=ref,
                   timings=timings)


def build_certificate(config: ExperimentConfig, problem: Problem):
    """Certificate plus the matching proximal blocks and Q-norm evaluator.

    Only the proximal methods are certified; the full-batch variant gets
    ``tau = 0`` and hence a zero steady-state bound.
    """
    if config.algorithm not in ("st_sopro", "sopro"):
        return None, None, None
    sigma_sq = estimate_sigma_sq(problem.datasets, problem.reference.x)
    G = config.per_agent if config.algorithm == "sopro" else config.batch_g
    tau_value = cert.tau(config.per_agent, G)
    mu = config.mu
    if mu is None:
        mu = optimizer._auto_mu(problem.bounds, config.beta, config.eta_s, problem.P)
    d = optimizer.choose_D(problem.bounds, config.beta, mu, problem.P, config.eta_s)
    rate = cert.certify(
        problem.bounds,
        problem.P,
        config.beta,
        d,
        config.eta_s,
        sigma_sq,
        tau_value,
        c1=config.c1,
    )
    q_star = -local_gradients(problem.datasets, problem.reference.x)
    q_err = cert.QNormError(
        problem.P, rate.r_diag, config.beta, problem.reference.x, q_star
    )
    return rate, d, q_err


def _run_seed_value(master_seed: int, run_idx: int) -> int:
    return int(np.random.SeedSequence(entropy=(master_seed, run_idx)).generate_state(1)[0])


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    problem: Problem
    certificate: cert.RateCertificate | None
    traces: list[MetricsTrace]
    trace_paths: list[Path]
    aggregate_path: Path | None
    aggregate: dict


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every seed, write traces, and aggregate.

    The topology, data split, reference solution, and certificate are pinned
    by ``topology_seed``/``data_seed`` (default: the master seed); individual
    runs vary only in their own seed, so seed-averaged statistics measure
    sampling noise alone.  Each trace's summary line holds the wall-clock
    values: ``wall_s_total`` and the set-up phases ``load_s``,
    ``reference_s`` and ``certificate_s``.

    A run whose iterate, optimality error or Q-norm error stops being
    finite raises :class:`~soprolab.errors.DivergenceError`.  With ``out``
    set, its trace is written first: the rows so far and a summary that
    adds ``status: "diverged"``, the ``round`` and the ``message``.
    """
    problem = build_problem(config)
    certifying = time.perf_counter()
    rate, d_blocks, q_err = build_certificate(config, problem)
    timings = {**problem.timings, "certificate_s": time.perf_counter() - certifying}
    mu_resolved = config.mu
    if mu_resolved is None and d_blocks is not None:
        lam_max = problem.P.spectral.lambda_max
        mu_resolved = float(d_blocks.alphas[0]) - (0.5 + lam_max) * config.beta

    out_dir = Path(config.out) if config.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    header = {
        "config": {**config.to_dict(), "mu": mu_resolved},
        "certificate": rate.to_dict() if rate is not None else None,
        "topology": {
            "n_agents": problem.P.n_agents,
            "n_edges": problem.P.graph.n_edges,
            "lambda_w": problem.P.spectral.lambda_w,
            "lambda_max": problem.P.spectral.lambda_max,
        },
        "reference": {
            "grad_norm": problem.reference.grad_norm,
            "iterations": problem.reference.iterations,
        },
    }

    traces = []
    paths = []
    for run_idx in range(config.seeds):
        seed = _run_seed_value(config.master_seed, run_idx)
        rc = config.to_run_config(seed)
        if mu_resolved is not None:
            rc.mu = mu_resolved
        trace = MetricsTrace()
        t0 = time.perf_counter()

        def on_round(k, state, _trace=trace, _t0=t0):
            acc = (
                accuracy(state.x.mean(axis=0), problem.test)
                if len(problem.test)
                else None
            )
            row = MetricRow(
                round=k,
                opt_err=optimality_error(state.x, problem.reference.x),
                comm_bits=BITS_PER_SCALAR * state.comm_scalars,
                q_err=q_err(state.x, state.q) if q_err is not None else None,
                test_acc=acc,
                wall_s=time.perf_counter() - _t0,
            )
            # Finite iterates far enough out overflow the squared errors.
            for name in ("opt_err", "q_err"):
                value = getattr(row, name)
                if value is not None and not math.isfinite(value):
                    raise DivergenceError(
                        f"round {k}: {name} is not finite; the run diverged", round=k
                    )
            _trace.append(row)

        path = out_dir / f"{config.algorithm}_seed{run_idx:03d}.jsonl" if out_dir else None
        run_header = {**header, "run_index": run_idx, "run_seed": seed}
        try:
            if config.algorithm in ("st_sopro", "sopro"):
                optimizer.run(problem.P, problem.datasets, rc, [on_round])
            else:
                baselines.run_baseline(problem.P, problem.datasets, rc, [on_round])
        except DivergenceError as exc:
            if path is not None:
                trace.write_jsonl(
                    path, run_header, wall_s_total=time.perf_counter() - t0,
                    summary={**timings, "status": "diverged", "round": exc.round,
                             "message": str(exc)},
                )
            raise
        traces.append(trace)

        if path is not None:
            trace.write_jsonl(
                path, run_header, wall_s_total=time.perf_counter() - t0, summary=timings
            )
            paths.append(path)

    agg = aggregate_traces(traces)
    agg_path = None
    if out_dir is not None:
        agg_path = out_dir / f"{config.algorithm}_mean.csv"
        write_aggregate_csv(agg_path, agg)

    return ExperimentResult(
        config=config,
        problem=problem,
        certificate=rate,
        traces=traces,
        trace_paths=paths,
        aggregate_path=agg_path,
        aggregate=agg,
    )
