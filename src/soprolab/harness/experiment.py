"""Experiment orchestration: config schema, problem assembly, trace output.

A flat key-value config file describes the dataset, the network, and the
run parameters.  :class:`ExperimentConfig` is the engine's ``RunConfig``
plus the harness's keys.  Every field but ``seed``, which each run sets, is
a key of its field's type: a ``T | None`` field takes a ``T`` or may be
unset.  Every key doubles as a CLI flag.  Before any set-up work,
:meth:`ExperimentConfig.check` refuses a bad ``RunConfig`` key
(``algorithm``, ``beta``, ``step_size``, ``step_schedule``, ``max_iters``,
``x0_mode``, ``batch_g``, ``batch_s``) and, for the proximal methods, a bad
``eta_s``, ``mu`` or ``c1``.  One experiment builds a
pinned topology and data split, solves the centralized reference problem,
certifies the proximal method when applicable, and runs each seed to a
JSONL trace plus one seed-averaged CSV.  The proximal alphas are chosen
once, with the certificate, and every seed runs with them.
"""

from __future__ import annotations

import math
import time
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .. import certificate as cert, optimizer
from ..errors import ConfigurationError, DivergenceError
from ..loss import SmoothnessBounds, StackedSets, TestSet, parse_libsvm, partition
from ..sparse import Csr
from ..topology import MatrixP, build_random_connected_graph, read_edge_list
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
    "PROBLEM_KEYS",
    "build_problem",
    "build_certificate",
    "run_experiment",
]


@dataclass
class ExperimentConfig(optimizer.RunConfig):
    """Everything needed to reproduce one experiment end to end: the
    engine's ``RunConfig`` plus the harness's keys."""

    dataset: str = "synthetic"
    dim: int = 10
    n_agents: int = 5
    avg_degree: float = 2.0
    per_agent: int = 50
    test_size: int = 200
    separation: float = 1.0
    noise: float = 1.0
    lambda_reg: float = 0.01
    eta_s: float = 0.5
    mu: float | None = None
    c1: float = 1.0
    seeds: int = 1
    master_seed: int = 0
    topology_seed: int | None = None
    data_seed: int | None = None
    topology_file: str | None = None
    target_error: float | None = None
    out: str | None = None

    def __post_init__(self):
        for key, least in _LEAST.items():
            value = getattr(self, key)
            if value is not None and value < least:
                raise ConfigurationError(f"key {key!r} needs at least {least}, got {value}")
        if not self.lambda_reg > 0:
            raise ConfigurationError(
                f"key 'lambda_reg' needs a positive value, got {self.lambda_reg}")

    def check(self) -> None:
        """Refuse a bad run parameter, as the module docstring says."""
        self.validate(n_samples=self.per_agent)
        if self.algorithm in optimizer.PROXIMAL:
            cert.check_parameters(self.eta_s, self.mu, self.c1)

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        return replace(self, **_coerce_mapping(overrides))

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in CONFIG_SCHEMA}


# Checked whenever a config is made, by coercion, replace() or directly,
# as is a positive lambda_reg; an unset key is not checked.
_LEAST = {"seeds": 1, "per_agent": 1, "test_size": 0, "master_seed": 0, "topology_seed": 0,
          "data_seed": 0}


def _schema() -> tuple[dict[str, type], frozenset[str]]:
    """Each field's type, and the fields that may be unset (``T | None``)."""
    hints = typing.get_type_hints(ExperimentConfig)
    schema, optional = {}, set()
    for f in fields(ExperimentConfig):
        if f.name == "seed":
            continue
        hint = hints[f.name]
        args = typing.get_args(hint)
        if type(None) in args:
            (hint,) = [t for t in args if t is not type(None)]
            optional.add(f.name)
        schema[f.name] = hint
    return schema, frozenset(optional)


CONFIG_SCHEMA, _UNSETTABLE = _schema()


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
            out = CONFIG_SCHEMA[key](v)
        except ValueError:
            raise ConfigurationError(f"bad value {value!r} for key {key!r}")
    else:
        try:
            out = CONFIG_SCHEMA[key](value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(f"bad value {value!r} for key {key!r}")
        if isinstance(out, int) and out != value:
            raise ConfigurationError(f"key {key!r} needs an integer, got {value!r}")
    if isinstance(out, float) and not math.isfinite(out):
        raise ConfigurationError(f"key {key!r} needs a finite value, got {value!r}")
    return out


def _coerce_mapping(mapping: dict) -> dict:
    out = {}
    for k, v in mapping.items():
        key = k.replace("-", "_")
        coerced = _coerce_one(key, v)
        if coerced is None and key not in _UNSETTABLE:
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
    """``P`` read from ``topology_file``, which must hold ``n_agents``
    agents, or else the seeded random network of unit weights."""
    if config.topology_file:
        P = read_edge_list(config.topology_file)
        if P.n_agents != config.n_agents:
            raise ConfigurationError(
                f"topology file {config.topology_file!r} has {P.n_agents} agents,"
                f" but n_agents is {config.n_agents}"
            )
        return P
    seed = config.topology_seed if config.topology_seed is not None else config.master_seed
    return build_random_connected_graph(config.n_agents, config.avg_degree, seed)


def _load_data(config: ExperimentConfig, seed: int):
    """The whole data set as ``(rows, labels)``, the rows as the CSR
    matrix (:class:`~soprolab.sparse.Csr`) that :func:`partition` takes: a
    parsed file's rows, or the nonzero entries of the dense synthetic rows
    (drawn from ``seed``)."""
    if config.dataset == "synthetic":
        total = config.n_agents * config.per_agent + config.test_size
        rows, labels = gaussian_blob_samples(
            total, config.dim, seed, separation=config.separation, noise=config.noise
        )
        return Csr.from_dense(rows), labels
    with open(config.dataset, "rb") as f:
        return parse_libsvm(f, dim=config.dim)


@dataclass
class Problem:
    P: MatrixP
    local: StackedSets
    test: TestSet
    bounds: SmoothnessBounds
    reference: ReferenceSolution
    # Wall seconds of the set-up phases: data_s (parsing or generating the
    # data), load_s (topology, split and curvature bounds) and reference_s.
    timings: dict = field(default_factory=dict)


# The keys build_problem reads: configs that agree on them build the same
# problem.
PROBLEM_KEYS = ("dataset", "dim", "n_agents", "avg_degree", "per_agent", "test_size",
                "separation", "noise", "lambda_reg", "master_seed", "topology_seed",
                "data_seed", "topology_file")


def build_problem(config: ExperimentConfig) -> Problem:
    start = time.perf_counter()
    P = build_topology(config)
    seed = config.data_seed if config.data_seed is not None else config.master_seed
    data_start = time.perf_counter()
    data = _load_data(config, seed)
    data_end = time.perf_counter()
    # partition copies each row once into the local sets or the test set,
    # and keeps nothing of the loaded rows, so they are freed here, before
    # the reference solve.
    local, test = partition(data, config.n_agents, config.per_agent, seed, config.lambda_reg)
    del data
    bounds = SmoothnessBounds.from_sets(local)
    loaded = time.perf_counter()
    ref = solve_reference(local)
    timings = {
        "data_s": data_end - data_start,
        "load_s": (data_start - start) + (loaded - data_end),
        "reference_s": time.perf_counter() - loaded,
    }
    return Problem(P=P, local=local, test=test, bounds=bounds, reference=ref,
                   timings=timings)


def build_certificate(config: ExperimentConfig, problem: Problem):
    """Certificate, the proximal alphas, the resolved ``mu`` and the
    Q-norm evaluator.

    Only the proximal methods are certified; the full-batch variant gets
    ``tau = 0`` and hence a zero steady-state bound.  The baselines get no
    certificate, no alphas and no evaluator, and ``mu`` as configured.
    """
    if config.algorithm not in optimizer.PROXIMAL:
        return None, None, config.mu, None
    sigma_sq = estimate_sigma_sq(problem.local, problem.reference.x)
    G, _ = config.batches(config.per_agent)
    tau_value = cert.tau(config.per_agent, G)
    alphas, mu = cert.proximal_alphas(
        problem.bounds, problem.P, config.beta, config.eta_s, config.mu
    )
    rate = cert.certify(
        problem.bounds,
        problem.P,
        config.beta,
        alphas,
        config.eta_s,
        sigma_sq,
        tau_value,
        c1=config.c1,
    )
    q_star = -problem.reference.local_grads
    q_err = cert.QNormError(
        problem.P, rate.r_diag, config.beta, problem.reference.x, q_star
    )
    return rate, alphas, mu, q_err


# A run whose opt_err passes BLOW_UP max(opt_err at round 0, 1) has
# diverged with finite iterates.  St-SoPro on 200 agents of 40 rows at
# (alpha, beta) = (0.2, 0.0217) goes from 53 to 5.6e4 by round 50.
BLOW_UP = 1e3


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


def run_experiment(config: ExperimentConfig, problem: Problem | None = None) -> ExperimentResult:
    """Run every seed, write traces, and aggregate.

    ``problem`` is built from ``config`` unless given: one that
    :func:`build_problem` made from a config that agrees with ``config`` on
    ``PROBLEM_KEYS``.

    The topology, data split, reference solution, and certificate are pinned
    by ``topology_seed``/``data_seed`` (default: the master seed); individual
    runs vary only in their own seed, so seed-averaged statistics measure
    sampling noise alone.  Each trace's summary line holds the wall-clock
    values: ``wall_s_total`` and the set-up phases ``data_s``, ``load_s``,
    ``reference_s`` and ``certificate_s``.  A proximal run's header records
    how its step solves under ``engine``, as ``{solve, terms, rho_bound}``
    (see :func:`~soprolab.optimizer.proximal_engine`); a baseline's is
    ``None``.
    Its ``topology`` block records the form of the exchange,
    ``"exchange": "csr"`` or ``"dense"`` (see
    :attr:`~soprolab.topology.MatrixP.operator`), for the proximal ``P``
    and the baselines' Metropolis matrix alike.  Every run, on parsed or
    synthetic rows, reads the local sets through their CSR operator.

    Each run hands ``optimizer.run`` the config with its own ``seed``.
    A run parameter that :meth:`ExperimentConfig.check` refuses (the
    engine's keys; ``eta_s``, ``mu`` and ``c1`` of a proximal run) raises
    :class:`~soprolab.errors.ConfigurationError` before any set-up work,
    and before ``out`` is created.  So does a ``topology_file`` whose agent
    count is not ``n_agents``, found by :func:`build_topology` before any
    data is loaded.

    A run whose iterate, optimality error or Q-norm error stops being
    finite, or whose optimality error passes ``BLOW_UP`` max(opt_err at
    round 0, 1), raises :class:`~soprolab.errors.DivergenceError` naming
    the round.  With ``out`` set, its trace is written first: the rows so
    far and a summary that adds ``status: "diverged"``, the ``round`` and
    the ``message``.
    """
    # Seeds differ only in ``seed``, so one check covers every run.
    config.check()
    if problem is None:
        problem = build_problem(config)
    certifying = time.perf_counter()
    rate, alphas, mu_resolved, q_err = build_certificate(config, problem)
    timings = {**problem.timings, "certificate_s": time.perf_counter() - certifying}

    out_dir = Path(config.out) if config.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    header = {
        "config": {**config.to_dict(), "mu": mu_resolved},
        "certificate": rate.to_dict() if rate is not None else None,
        "topology": {
            "n_agents": problem.P.n_agents,
            "n_edges": problem.P.n_edges,
            "lambda_w": problem.P.spectral.lambda_w,
            "lambda_max": problem.P.spectral.lambda_max,
            # The baselines' Metropolis matrix is a MatrixP with the
            # nonzeros of P, so MatrixP.operator gives it the form of P.
            "exchange": "dense" if isinstance(problem.P.operator, np.ndarray) else "csr",
        },
        "reference": {
            "grad_norm": problem.reference.grad_norm,
            "iterations": problem.reference.iterations,
            "factorizations": problem.reference.factorizations,
        },
    }

    traces = []
    paths = []
    for run_idx in range(config.seeds):
        seed = _run_seed_value(config.master_seed, run_idx)
        trace = MetricsTrace()
        path = out_dir / f"{config.algorithm}_seed{run_idx:03d}.jsonl" if out_dir else None
        run_header = {**header, "engine": None, "run_index": run_idx, "run_seed": seed}
        t0 = time.perf_counter()

        def on_round(k, state, _trace=trace, _t0=t0, _header=run_header):
            if k == 0 and state.engine is not None:
                # The solve the run chose at set-up.
                _header["engine"] = asdict(state.engine)
            # Finite iterates far enough out overflow the metrics; the
            # check below reports that.
            with np.errstate(over="ignore", invalid="ignore"):
                acc = accuracy(state.x.mean(axis=0), problem.test) if len(problem.test) else None
                row = MetricRow(
                    round=k,
                    opt_err=optimality_error(state.x, problem.reference.x),
                    comm_bits=BITS_PER_SCALAR * state.comm_scalars,
                    q_err=q_err(state.x, state.q) if q_err is not None else None,
                    test_acc=acc,
                    wall_s=time.perf_counter() - _t0,
                )
            for name in ("opt_err", "q_err"):
                value = getattr(row, name)
                if value is not None and not math.isfinite(value):
                    raise DivergenceError(
                        f"round {k}: {name} is not finite; the run diverged", round=k
                    )
            limit = BLOW_UP * max(_trace.rows[0].opt_err if _trace.rows else row.opt_err, 1.0)
            if not row.opt_err <= limit:
                raise DivergenceError(
                    f"round {k}: opt_err {row.opt_err:.6g} exceeds {limit:.6g}, {BLOW_UP:g}"
                    " times max(opt_err at round 0, 1); the run diverged", round=k)
            _trace.append(row)

        try:
            optimizer.run(problem.P, problem.local, replace(config, seed=seed), alphas,
                          [on_round])
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

    return ExperimentResult(config=config, problem=problem, certificate=rate, traces=traces,
                            trace_paths=paths, aggregate_path=agg_path, aggregate=agg)
