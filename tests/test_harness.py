import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soprolab
from oracles import agent_datasets, edge_list_text, newton_per_agent, stack_sets
from soprolab import certificate, optimizer
from soprolab.errors import (
    ConfigurationError,
    DivergenceError,
    InvariantViolation,
    ParameterError,
    ParseError,
    SoprolabError,
)
from soprolab.harness import cli, experiment, reference
from soprolab.harness.cli import main
from soprolab.harness.experiment import (
    CONFIG_SCHEMA,
    ExperimentConfig,
    build_certificate,
    build_problem,
    build_topology,
    config_from_mapping,
    parse_config_file,
    run_experiment,
)
from soprolab.harness.metrics import MetricRow, MetricsTrace, aggregate_traces
from soprolab.harness.tuning import parse_grid_file, tune_baseline
from soprolab.loss import full_grad


def one_hot_problem(n_agents, per_agent, d, active, seed, lam=0.01):
    """Rows with ``active`` ones among ``d`` columns and planted logistic labels."""
    rng = np.random.default_rng(seed)
    rows = n_agents * per_agent
    cols = np.sort(rng.choice(d, size=(rows, active)), axis=1)
    feats = np.zeros((rows, d))
    feats[np.arange(rows)[:, None], cols] = 1.0
    w = rng.standard_normal(d)
    labels = np.where(rng.random(rows) < 1.0 / (1.0 + np.exp(-feats @ w)), 1, -1)
    return stack_sets(
        feats.reshape(n_agents, per_agent, d), labels.reshape(n_agents, per_agent), lam
    )


def test_solve_reference_passes_the_rounding_level_of_the_objective():
    # Near the optimum of this problem the Newton decrement g.step falls
    # below the rounding level of F, where an Armijo test on F sees only
    # noise; the solve must still reach its gradient tolerance.
    local = one_hot_problem(10, 40, 60, 8, seed=13)
    sol = reference.solve_reference(local)
    assert sol.grad_norm <= 1e-12
    assert sol.iterations <= 10
    datasets = agent_datasets(local)
    # The gradient at x* is rounding noise of O(1) terms, which the
    # operator's sparse products sum in another order than full_grad.
    g = sum(full_grad(sol.x, ds) for ds in datasets)
    assert abs(np.linalg.norm(g) - sol.grad_norm) <= 1e-15
    want = newton_per_agent(datasets)
    assert np.linalg.norm(sol.x - want) <= 1e-12 * np.linalg.norm(want)


def test_solve_reference_reuses_its_factor_at_the_a4a_shape():
    # d = 123, N = 20, C = 239 with 14 active columns a row, as in a4a:
    # plain Newton factors the Hessian at every one of its 5 steps.
    local = one_hot_problem(20, 239, 123, 14, seed=0)
    sol = reference.solve_reference(local)
    assert sol.grad_norm <= 1e-12
    assert sol.hessians <= 3


def test_certificate_reads_q_star_from_the_reference_solve():
    config = ExperimentConfig(dim=6, n_agents=5, per_agent=30, test_size=0, batch_g=5,
                              batch_s=5, max_iters=0)
    problem = build_problem(config)
    x_star = problem.reference.x
    q_star = -np.array([full_grad(x_star, ds) for ds in agent_datasets(problem.local)])
    assert np.linalg.norm(-problem.reference.local_grads - q_star) <= (
        1e-12 * np.linalg.norm(q_star)
    )
    *_, q_err = build_certificate(config, problem)
    assert q_err(np.tile(x_star, (5, 1)), -problem.reference.local_grads) == 0.0


def gram_q_errs(config, problem, run_idx):
    """The ``q_err`` of every round of run ``run_idx`` of ``config``,
    rerun through ``optimizer.run`` and evaluated by the Gram form."""
    _, alphas, _, q_err = build_certificate(config, problem)
    seed = experiment._run_seed_value(config.master_seed, run_idx)
    rows = []
    optimizer.run(problem.P, problem.local, dataclasses.replace(config, seed=seed), alphas,
                  [lambda k, s: rows.append(q_err(s.x, s.q))])
    return np.array(rows)


def test_every_seed_q_err_matches_the_gram_form():
    # Each run follows its own duals from its own round 0, so a later
    # seed's rows are held against an independent evaluation too.
    config = ExperimentConfig(dim=6, n_agents=8, per_agent=20, test_size=0, batch_g=5,
                              batch_s=5, max_iters=30, seeds=2)
    result = run_experiment(config)
    for run_idx, trace in enumerate(result.traces):
        got, want = trace.q_errors(), gram_q_errs(config, result.problem, run_idx)
        assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_a_run_makes_no_gram_product_for_q_err(monkeypatch):
    calls = []
    gram = certificate.QNormError.__call__

    def counted(self, x, q):
        calls.append(1)
        return gram(self, x, q)

    monkeypatch.setattr(certificate.QNormError, "__call__", counted)
    config = ExperimentConfig(dim=6, n_agents=8, per_agent=20, test_size=0, batch_g=5,
                              batch_s=5, max_iters=10, seeds=2)
    result = run_experiment(config)
    assert all(np.isfinite(t.q_errors()).all() for t in result.traces)
    assert calls == []


def test_q_err_rows_match_the_gram_form_on_200_agents():
    # At the certified alphas the primal part is most of q_err; the same
    # rounds with r = 0 hold the dual part alone against the Gram form.
    config = ExperimentConfig(dim=8, n_agents=200, avg_degree=4, per_agent=10, test_size=0,
                              batch_g=4, batch_s=4, max_iters=100)
    problem = build_problem(config)
    _, alphas, _, q_err = build_certificate(config, problem)
    dual = certificate.QNormError(problem.P, np.zeros(200), config.beta, problem.reference.x,
                                  -problem.reference.local_grads)
    pairs = [(q_err, q_err.running()), (dual, dual.running())]
    rows = []
    optimizer.run(problem.P, problem.local, dataclasses.replace(config, seed=3), alphas,
                  [lambda k, s: rows.append([(f(s.x, s.q), t(k, s.x, s.q)) for f, t in pairs])])
    want, got = np.moveaxis(np.array(rows), 2, 0)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


@pytest.mark.parametrize(
    "grid, target, message",
    [([], 1e-2, "^empty tuning grid$"),
     ([{"step_size": 0.1}], None,
      r"^no target error given \(config.target_error is unset\)$")],
    ids=["empty_grid", "no_target"],
)
def test_tuning_refuses_an_empty_grid_or_no_target_before_set_up(
        grid, target, message, monkeypatch):
    monkeypatch.setattr(experiment, "build_problem", _refuse_set_up)
    config = ExperimentConfig(dim=4, n_agents=3, per_agent=10, test_size=5, algorithm="dsgd",
                              batch_g=2, max_iters=2, target_error=target)
    with pytest.raises(ParameterError, match=message):
        tune_baseline(config, grid)


def test_tuning_scores_a_diverging_point_as_never_reaching_the_target():
    config = ExperimentConfig(
        dim=5, n_agents=4, per_agent=20, test_size=20, algorithm="dsgd",
        batch_g=5, max_iters=300, target_error=1e-2,
    )
    result = tune_baseline(config, [{"step_size": 0.1}, {"step_size": 1e3}])
    stable, diverged = result.table
    assert math.isinf(diverged.mean_rounds) and math.isinf(diverged.mean_final_err)
    assert result.best is stable and math.isfinite(stable.mean_final_err)


def test_tune_table_keeps_its_grid_points_when_the_caller_edits_the_grid():
    # One point converges and one diverges: both rows hold a copy.
    config = ExperimentConfig(dim=4, n_agents=3, per_agent=10, test_size=5, algorithm="dsgd",
                              batch_g=2, max_iters=20, target_error=1e-2)
    grid = [{"step_size": 0.1}, {"step_size": 1e3}]
    result = tune_baseline(config, grid)
    assert math.isfinite(result.table[0].mean_final_err)
    assert math.isinf(result.table[1].mean_final_err)
    for point in grid:
        point["step_size"] = 7.0
    assert [p.overrides for p in result.table] == [{"step_size": 0.1}, {"step_size": 1e3}]


def test_build_problem_reads_the_problem_keys_only():
    class Reading:
        def __init__(self, config):
            self.config, self.read = config, set()

        def __getattr__(self, name):
            self.read.add(name)
            return getattr(self.config, name)

    config = Reading(ExperimentConfig(dim=4, n_agents=3, per_agent=10, test_size=5))
    build_problem(config)
    assert config.read == set(experiment.PROBLEM_KEYS)


@pytest.mark.parametrize(
    "grid, built",
    [([{"step_size": 0.1}, {"step_size": 0.5}, {"step_size": 0.3}], [3]),
     ([{"step_size": 0.1}, {"step_size": 0.5, "n_agents": 4}, {"step_size": 0.3}], [3, 4])],
    ids=["step", "step-and-n_agents"],
)
def test_tune_builds_one_problem_for_the_points_that_share_it(grid, built, monkeypatch):
    # A step grid changes no key build_problem reads: one problem serves
    # every point, and each point scores as a run of its own problem.
    config = ExperimentConfig(dim=4, n_agents=3, per_agent=10, test_size=5, batch_g=2,
                              algorithm="dsgt", max_iters=30, seeds=2, target_error=3.0)
    alone = [(p.mean_rounds, p.mean_final_err) for p in
             (tune_baseline(config, [point]).best for point in grid)]
    calls, real = [], experiment.build_problem
    monkeypatch.setattr(experiment, "build_problem",
                        lambda config: calls.append(config.n_agents) or real(config))
    result = tune_baseline(config, grid)
    assert calls == built
    assert [(p.mean_rounds, p.mean_final_err) for p in result.table] == alone
    assert [p.overrides for p in result.table] == grid


def test_trace_with_a_non_finite_value_is_refused_and_not_written(tmp_path):
    trace = MetricsTrace()
    trace.append(MetricRow(round=0, opt_err=1.0, comm_bits=32))
    trace.append(MetricRow(round=1, opt_err=float("nan"), comm_bits=64))
    out = tmp_path / "trace.jsonl"
    with pytest.raises(ValueError):
        trace.write_jsonl(out, {"config": {}}, wall_s_total=0.5)
    assert not out.exists()


SETUP_PHASES = ("data_s", "load_s", "reference_s", "certificate_s")


def trace_lines(path):
    """A trace's header, without its output directory, and its row lines;
    the summary holds only wall-clock values: the total and the set-up phases."""
    header, *rows, summary = path.read_text().splitlines()
    assert json.loads(summary).keys() == {"type", "wall_s_total", *SETUP_PHASES}
    header = json.loads(header)
    assert header["config"].pop("out") == str(path.parent)
    return header, rows


def test_rerun_writes_identical_trace_apart_from_out_dir(tmp_path):
    config = ExperimentConfig(
        dim=6, n_agents=4, per_agent=30, test_size=20, batch_g=5, batch_s=5,
        max_iters=10, seeds=2,
    )
    first = run_experiment(config.with_overrides({"out": str(tmp_path / "a")}))
    second = run_experiment(config.with_overrides({"out": str(tmp_path / "b")}))
    assert len(first.trace_paths) == 2
    for a, b in zip(first.trace_paths, second.trace_paths):
        assert a.name == b.name
        assert trace_lines(a) == trace_lines(b)


# st_sopro_one_hot reads a LIBSVM file whose rows set 4 of 20 columns.
@pytest.mark.parametrize("algorithm", ["st_sopro", "sopro", "dsgd", "dsgt", "st_sopro_one_hot"])
def test_trace_header_names_the_proximal_engine(tmp_path, algorithm):
    dataset = "synthetic"
    if algorithm == "st_sopro_one_hot":
        algorithm, dataset = "st_sopro", str(tmp_path / "one_hot.svm")
        Path(dataset).write_text("".join(
            f"{(-1) ** k} " + " ".join(f"{5 * a + (k * (a + 1)) % 5 + 1}:1" for a in range(4))
            + "\n" for k in range(140)))
    config = ExperimentConfig(
        dataset=dataset, dim=20, n_agents=4, per_agent=30, test_size=20, batch_g=5,
        batch_s=5, max_iters=3, algorithm=algorithm,
        step_size=0.5 if algorithm in ("dsgd", "dsgt") else None, out=str(tmp_path),
    )
    result = run_experiment(config)
    # Every row holds Python numbers: a numpy scalar would still be written
    # as a JSON number, and so pass every check of the file.
    for row in result.traces[0].rows:
        for f in dataclasses.fields(row):
            assert type(getattr(row, f.name)) in (int, float, type(None)), f.name
    assert type(result.traces[0].rows[-1].test_acc) is float
    header, _ = trace_lines(result.trace_paths[0])
    if algorithm in ("dsgd", "dsgt"):
        assert header["engine"] is None
        return
    _, alphas, _, _ = build_certificate(config, result.problem)
    engine = optimizer.proximal_engine(result.problem.local, config, alphas)
    assert engine.solve == "series"
    assert header["engine"] == dataclasses.asdict(engine) == {
        "solve": "series", "terms": engine.terms, "rho_bound": engine.rho_bound}


# At the default average degree 2, P stores 3 N entries: CSR from N = 36 on.
@pytest.mark.parametrize(
    "algorithm, n_agents, exchange", [("st_sopro", 4, "dense"), ("dsgd", 60, "csr")]
)
def test_trace_header_names_the_exchange_form(tmp_path, algorithm, n_agents, exchange):
    config = ExperimentConfig(
        dim=4, n_agents=n_agents, per_agent=5, test_size=5, batch_g=2, batch_s=2,
        max_iters=1, algorithm=algorithm, step_size=0.1 if algorithm == "dsgd" else None,
        out=str(tmp_path),
    )
    result = run_experiment(config)
    header, _ = trace_lines(result.trace_paths[0])
    assert header["topology"]["exchange"] == exchange


def test_diverged_run_writes_its_rows_and_a_diverged_summary_then_raises(tmp_path):
    # The step-1e3 DSGD set-up of the baseline divergence tests: its
    # iterates stay finite for 300 rounds while the optimality error
    # passes 1e3 times its round-0 value.
    config = ExperimentConfig(
        dim=15, n_agents=6, per_agent=40, test_size=20, batch_g=10, max_iters=300,
        algorithm="dsgd", step_size=1e3, out=str(tmp_path),
    )
    with pytest.raises(DivergenceError, match=r"round \d+: opt_err \S+ exceeds \S+, 1000 times"
                       r" max\(opt_err at round 0, 1\); the run diverged") as e:
        run_experiment(config)
    k = e.value.round
    assert 0 < k < config.max_iters
    header, *rows, summary = (tmp_path / "dsgd_seed000.jsonl").read_text().splitlines()
    assert json.loads(header)["type"] == "header"
    assert [json.loads(r)["round"] for r in rows] == list(range(k))
    summary = json.loads(summary)
    assert summary.keys() == {
        "type", "status", "round", "message", "wall_s_total", *SETUP_PHASES
    }
    assert summary["type"] == "summary" and summary["status"] == "diverged"
    assert summary["round"] == k and summary["message"] == str(e.value)
    assert not (tmp_path / "dsgd_mean.csv").exists()


def test_aggregate_traces_rejects_different_round_grids():
    def trace(rounds):
        t = MetricsTrace()
        for k in rounds:
            t.append(MetricRow(round=k, opt_err=1.0, comm_bits=32 * (k + 1)))
        return t

    assert list(aggregate_traces([trace([0, 1, 2])] * 2)["round"]) == [0, 1, 2]
    for other in ([0, 1], [0, 1, 3], [0, 1, 2, 3]):
        with pytest.raises(InvariantViolation, match="round grid"):
            aggregate_traces([trace([0, 1, 2]), trace(other)])


@pytest.mark.parametrize("algorithm, test_size, blank", [
    ("dsgd", 5, "mean_q_err"),  # a baseline has no Q-norm error
    ("st_sopro", 0, "mean_test_acc"),  # no test set, no accuracy
])
def test_aggregate_csv_leaves_a_missing_column_blank(algorithm, test_size, blank, tmp_path):
    config = ExperimentConfig(dim=4, n_agents=3, per_agent=10, test_size=test_size,
                              batch_g=2, batch_s=2, max_iters=3, algorithm=algorithm,
                              step_size=0.1, seeds=2, out=str(tmp_path))
    result = run_experiment(config)
    assert result.aggregate_path == tmp_path / f"{algorithm}_mean.csv"
    with open(result.aggregate_path, newline="") as f:
        rows = list(csv.DictReader(f))
    agg = result.aggregate
    assert [int(r["round"]) for r in rows] == agg["round"].tolist() == [0, 1, 2, 3]
    assert [int(r["comm_bits"]) for r in rows] == agg["comm_bits"].tolist()
    columns = {"mean_opt_err": "opt_err", "mean_q_err": "q_err", "mean_test_acc": "test_acc"}
    for column, key in columns.items():
        if column == blank:
            assert all(r[column] == "" for r in rows) and np.isnan(agg[key]).all()
        else:
            # Each value is written as a plain float, which reads back exactly.
            assert [float(r[column]) for r in rows] == agg[key].tolist()


def test_metrics_trace_refuses_a_row_whose_round_or_bits_do_not_increase():
    trace = MetricsTrace()
    trace.append(MetricRow(round=0, opt_err=1.0, comm_bits=0))
    trace.append(MetricRow(round=2, opt_err=0.5, comm_bits=64))
    for round_, bits in ((2, 128), (1, 128), (3, 64), (3, 32)):
        with pytest.raises(InvariantViolation, match="^trace must be strictly increasing"):
            trace.append(MetricRow(round=round_, opt_err=0.4, comm_bits=bits))
    assert [r.round for r in trace.rows] == [0, 2]
    trace.append(MetricRow(round=3, opt_err=0.4, comm_bits=96))
    assert len(trace) == 3


SMALL = ["--dim", "4", "--n-agents", "3", "--per-agent", "10", "--test-size", "5",
         "--batch-g", "2", "--batch-s", "2", "--max-iters", "2"]


@pytest.mark.parametrize("command", ["certify", "reference", "tune"])
def test_cli_reports_an_unknown_config_key(command, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("dim = 4\nno_such_key = 1\n")
    grid = tmp_path / "grid.txt"
    grid.write_text("step_size=0.1\n")
    argv = [command, "--config", str(config), *SMALL]
    if command == "tune":
        argv += ["--grid", str(grid)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown config key 'no_such_key'" in err


@pytest.mark.parametrize(
    "grid_text, message",
    [
        ("step_size=0.1\nstep_size 0.2\n", "grid line 2: expected key=value"),
        ("# only a comment\n\n", "empty tuning grid file"),
        ("no_such_key=1\n", "unknown config key 'no_such_key'"),
        ("step_size=fast\n", "bad value 'fast' for key 'step_size'"),
    ],
)
def test_cli_tune_reports_a_malformed_grid_file(grid_text, message, tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text(grid_text)
    argv = ["tune", *SMALL, "--algorithm", "dsgd", "--target-error", "0.1",
            "--grid", str(grid)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_cli_certify_refuses_a_baseline(capsys):
    assert main(["certify", *SMALL, "--algorithm", "dsgd"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: algorithm 'dsgd' has no certificate\n" and captured.out == ""


def test_cli_reference_prints_a_gradient_norm_within_the_tolerance(capsys):
    assert main(["reference", *SMALL]) == 0
    lines = dict(ln.split(" = ", 1) for ln in capsys.readouterr().out.splitlines())
    assert lines["dim"] == "4" and int(lines["newton_iterations"]) >= 1
    assert float(lines["grad_norm"]) <= 1e-12


def test_cli_run_without_out_writes_under_the_environments_directory(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "env_out"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", *SMALL]) == 0
    trace = tmp_path / "env_out" / "st_sopro_seed000.jsonl"
    assert f"wrote {trace}" in capsys.readouterr().out.splitlines()
    assert json.loads(trace.read_text().splitlines()[0])["type"] == "header"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("out", [[], ["--out", ""]])
def test_cli_run_with_an_empty_environment_directory_writes_under_runs(
    out, tmp_path, monkeypatch, capsys
):
    # An empty SOPROLAB_OUT is unset, as an empty --out is.
    monkeypatch.setenv(cli.OUT_ENV_VAR, "")
    monkeypatch.chdir(tmp_path)
    assert main(["run", *SMALL, *out]) == 0
    trace = Path("runs") / "st_sopro_seed000.jsonl"
    assert f"wrote {trace}" in capsys.readouterr().out.splitlines()
    assert json.loads((tmp_path / trace).read_text().splitlines()[0])["type"] == "header"
    assert (tmp_path / "runs" / "st_sopro_mean.csv").exists()


@pytest.mark.parametrize(
    "flag, value", [("--mu", "nan"), ("--mu", "inf"), ("--beta", "inf")]
)
def test_cli_rejects_a_non_finite_value(flag, value, capsys):
    assert main(["certify", *SMALL, flag, value]) == 1
    err = capsys.readouterr().err
    key = flag[2:]
    assert err.startswith("error: ") and f"key {key!r} needs a finite value" in err


@pytest.mark.parametrize("value", ["inf", " NaN ", math.nan, -math.inf])
def test_config_rejects_a_non_finite_value(value):
    with pytest.raises(ConfigurationError, match="key 'beta' needs a finite value"):
        config_from_mapping({"beta": value})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seeds", math.inf, "bad value inf for key 'seeds'"),
        ("seeds", math.nan, "bad value nan for key 'seeds'"),
        ("dim", 4.7, "key 'dim' needs an integer, got 4.7"),
        ("max_iters", -0.5, "key 'max_iters' needs an integer, got -0.5"),
    ],
)
def test_config_rejects_a_non_integral_value_for_an_integer_key(key, value, message):
    with pytest.raises(ConfigurationError, match=message):
        config_from_mapping({key: value})


def test_config_keeps_integral_values():
    config = config_from_mapping({"dim": 4.0, "seeds": 3, "beta": 2})
    assert (config.dim, config.seeds, config.beta) == (4, 3, 2.0)
    assert type(config.dim) is int and type(config.beta) is float


def test_experiment_chooses_the_proximal_alphas_once(monkeypatch):
    calls = []
    real = certificate.proximal_alphas

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(certificate, "proximal_alphas", counted)
    config = ExperimentConfig(
        dim=6, n_agents=4, per_agent=30, test_size=20, batch_g=5, batch_s=5,
        max_iters=3, seeds=2,
    )
    result = run_experiment(config)
    assert len(result.traces) == 2
    assert len(calls) == 1


def test_package_and_cli_import_no_optimizer_or_sparse_scipy():
    # scipy.optimize pulls in scipy.sparse, scipy.spatial and more: about
    # 17 MB of resident memory that no step of an experiment needs.
    # No run imports scipy.sparse either: soprolab.sparse loads its
    # compiled kernels alone, on first use.  scipy.sparse is not small:
    # with numpy 2.4.6 and scipy 1.17.1, importing it after numpy raised
    # the resident set from 26.9 to 48.9 MB in 0.14 s.  scipy's vendored array_api_compat.numpy
    # copies numpy's namespace (``from numpy import *`` and a getattr of
    # every public name), which loads numpy.f2py (and with it
    # charset_normalizer), numpy.testing, numpy.ma and numpy.polynomial.
    # The package imports no harness submodule, and the harness package
    # holds its submodules only, so no name has a second import path.
    code = (
        "import sys, types, soprolab; "
        "print(*[m for m in sys.modules if m.startswith('soprolab.harness.')]); "
        "import soprolab.harness.cli; "
        "print(*[m for m in ('scipy.optimize', 'scipy.sparse', 'scipy.spatial')"
        " if m in sys.modules]); "
        "print(*[n for n, v in vars(soprolab.harness).items()"
        " if not n.startswith('__') and not isinstance(v, types.ModuleType)])"
    )
    src = str(Path(soprolab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    # One line each: harness submodules, scipy modules, harness names.
    assert out.stdout.splitlines() == ["", "", ""]


# Run in a fresh process: a synthetic experiment, then one on a one-hot
# LIBSVM file (3 of 12 columns set in every row), then one round by CG,
# then one Gram-path step held against its dense-inverse oracle.  It prints
# the scipy modules loaded after each stage.
@pytest.mark.parametrize("algorithm", ["st_sopro", "sopro"])
def test_a_finite_blow_up_raises_at_a_named_round(algorithm, monkeypatch, tmp_path):
    # Every run gets alpha = 1 in place of its certified alphas; the
    # certificate and the Q-norm error are kept.  This shape then converges
    # at beta = 0.1 and diverges at beta = 0.3, with finite iterates all
    # the way.
    certified = experiment.build_certificate

    def fixed(config, problem):
        rate, alphas, mu, q_err = certified(config, problem)
        return rate, np.ones_like(alphas), mu, q_err

    monkeypatch.setattr(experiment, "build_certificate", fixed)
    small = dict(dim=6, n_agents=8, per_agent=12, test_size=0, batch_g=4, batch_s=4,
                 max_iters=100, algorithm=algorithm, out=str(tmp_path))
    errors = run_experiment(ExperimentConfig(**small, beta=0.1)).traces[0].opt_errors()
    assert errors.max() == errors[0] and errors[-1] < 0.1 * errors[0]
    with pytest.raises(DivergenceError, match=r"^round \d+: opt_err \S+ exceeds") as e:
        run_experiment(ExperimentConfig(**small, beta=0.3))
    k = e.value.round
    assert str(e.value).startswith(f"round {k}: ") and 10 < k < 100
    _, *rows, _ = (tmp_path / f"{algorithm}_seed000.jsonl").read_text().splitlines()
    errors = [json.loads(row)["opt_err"] for row in rows]
    assert len(errors) == k and max(errors) <= 1e3 * errors[0]


def test_a_non_finite_opt_err_keeps_its_message(monkeypatch):
    # A value that jumps from below the blow-up limit to NaN in one round.
    opt_err, rounds = experiment.optimality_error, iter(range(6))
    monkeypatch.setattr(experiment, "optimality_error",
                        lambda x, x_star: math.nan if next(rounds) == 3 else opt_err(x, x_star))
    config = ExperimentConfig(dim=4, n_agents=3, per_agent=10, test_size=5, batch_g=2,
                              batch_s=2, max_iters=5)
    with pytest.raises(DivergenceError, match=r"^round 3: opt_err is not finite; the run diverged$"):
        run_experiment(config)


FRESH_RUNS = """
import sys
import numpy as np
from soprolab import optimizer
from soprolab.harness.experiment import ExperimentConfig, run_experiment
from soprolab.loss import StackedSets, _block_diagonal
from soprolab.sparse import Csr
from soprolab.topology import build_random_connected_graph

def loaded():
    # The scipy modules loaded, each named by its package: "scipy" for
    # scipy's top-level modules, "scipy.linalg" for scipy.linalg's.
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules if m.split(".")[0] == "scipy"})

def subpackages():
    # The public scipy subpackages loaded.
    return [m for m in loaded() if m.count(".") and not m.split(".")[1].startswith("_")
            and hasattr(sys.modules[m], "__path__")]

def sets(feats, lam):
    n, C, d = feats.shape
    labels = rng.choice((-1.0, 1.0), (n, C))
    return StackedSets(_block_diagonal(Csr.from_dense(feats.reshape(-1, d)), n), labels, np.full(n, lam))

small = dict(n_agents=3, per_agent=10, test_size=5, batch_g=2, batch_s=2, max_iters=3)
for algorithm in ("st_sopro", "dsgt"):
    run_experiment(ExperimentConfig(dim=4, algorithm=algorithm, step_size=0.1, **small))
print(*loaded(), sep=",")
with open(sys.argv[1], "w") as f:
    for k in range(40):
        f.write(f"{(-1) ** k:+d} {1 + k % 4}:1 {5 + 3 * k % 4}:1 {9 + 7 * k % 4}:1\\n")
result = run_experiment(ExperimentConfig(dataset=sys.argv[1], dim=12, **small))
assert len(result.problem.test) == 10  # 40 rows, 30 in the local sets
# 200 agents at average degree 2: the exchange is the CSR product.
result = run_experiment(ExperimentConfig(dim=4, **{**small, "n_agents": 200, "per_agent": 5}))
assert isinstance(result.problem.P.operator, Csr)
print(*loaded(), sep=",")

# S = 3 < d = 4 < C = 6 at rho = 2: one round by CG.
rng = np.random.default_rng(8)
n, lam = 4, 0.1
local = sets((rng.random((n, 6, 4)) < 0.5).astype(float), lam)
P = build_random_connected_graph(n, 2.0, 0)
config = optimizer.RunConfig(batch_g=3, batch_s=3, max_iters=1, seed=0)
alphas = np.full(n, 0.125 * local.row_sq.max() - lam)
assert optimizer.run(P, local, config, alphas).engine.solve == "cg"
print(*loaded(), sep=",")

# S = 3 < C = 6 < d = 9 at rho = 2: the Gram step.
C, d = 6, 9
feats = (rng.random((n, C, d)) < 0.4).astype(float)
local = sets(feats, lam)
config = optimizer.RunConfig(batch_g=3, batch_s=3, max_iters=1, seed=0)
c = np.full(n, 0.125 * local.row_sq.max())
assert optimizer.proximal_engine(local, config, c - lam).solve == "cholesky"
gram = optimizer.gram_stack(local)
print(*loaded(), sep=",")
x, rhs = rng.standard_normal((n, d)), rng.standard_normal((n, d))
s_idx = optimizer.batch_positions(local, 3, 0, 0, optimizer.PURPOSE_HESS)
w = np.zeros((n, C))
w.ravel()[s_idx] = rng.uniform(0.0, 0.25 / 3, s_idx.size)
out = optimizer.gram_step(x, rhs, local.csr.take(s_idx), w.ravel()[s_idx], c, gram, s_idx)
err = 0.0
for i in range(n):
    A = feats[i].T @ (w[i, :, None] * feats[i]) + c[i] * np.eye(d)
    want = x[i] - np.linalg.inv(A) @ rhs[i]
    err = max(err, np.linalg.norm(out[i] - want) / np.linalg.norm(want))
print(*subpackages(), sep=",")
print(err)
"""


def test_row_path_runs_load_no_scipy_module_and_the_gram_path_scipy_linalg_only(tmp_path):
    # scipy.special and scipy.linalg cost about 12 MB resident together,
    # and scipy.sparse about 14.5 MB more.  The sigmoid is numpy's, every
    # CSR product runs in scipy's compiled kernels loaded from their file
    # (soprolab.sparse), and only the Gram path and local_step call
    # LAPACK.  So runs on the row path, by the series or by CG, synthetic
    # or parsed, with their local sets, test set and exchange, load no
    # scipy module at all; the Gram path loads scipy.linalg alone of
    # scipy's subpackages.
    src = str(Path(soprolab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", FRESH_RUNS, str(tmp_path / "one_hot.svm")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[:5] == [""] * 4 + ["scipy.linalg"]
    assert float(out[5]) <= 1e-10


def test_cli_certify_rejects_a_mu_below_the_recipe_bound(capsys):
    assert main(["certify", *SMALL, "--mu", "1e-9"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "mu=1e-09 " in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("run", "--seeds", "0"),
        ("run", "--seeds", "-1"),
        ("tune", "--seeds", "0"),
        ("run", "--test-size", "-5"),
        ("run", "--master-seed", "-1"),
        ("run", "--topology-seed", "-1"),
        ("tune", "--data-seed", "-1"),
    ],
)
def test_cli_refuses_no_seeds_and_a_negative_test_size(command, flag, value, tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("step_size=0.1\n")
    argv = [command, *SMALL, "--out", str(tmp_path / "out"), flag, value]
    if command == "tune":
        argv += ["--algorithm", "dsgd", "--target-error", "0.1", "--grid", str(grid)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    key = flag[2:].replace("-", "_")
    least = 1 if key == "seeds" else 0
    assert err.startswith("error: ") and f"key {key!r} needs at least {least}, got {value}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, algorithm", [("0", "st_sopro"), ("-1", "st_sopro"),
                                              ("0", "sopro")])
def test_cli_refuses_a_non_positive_per_agent_under_its_own_key(value, algorithm, tmp_path,
                                                                capsys):
    # Not as a batch size outside 1..per_agent, which the run check would name.
    argv = ["run", *SMALL, "--per-agent", value, "--algorithm", algorithm,
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: key 'per_agent' needs at least 1, got {value}\n"
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigurationError, match=f"key 'per_agent' needs at least 1, got {value}"):
        ExperimentConfig(per_agent=int(value))


def test_config_schema_is_the_fields_of_experiment_config():
    # All but seed, which run_experiment sets per run.
    hints = typing.get_type_hints(ExperimentConfig)
    assert list(CONFIG_SCHEMA) == [
        f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "seed"]
    for key, kind in CONFIG_SCHEMA.items():
        assert hints[key] in (kind, kind | None), key


def test_config_keys_types_and_defaults_are_pinned(tmp_path):
    assert CONFIG_SCHEMA == {
        "dataset": str, "dim": int, "n_agents": int, "avg_degree": float, "per_agent": int,
        "test_size": int, "lambda_reg": float, "beta": float, "eta_s": float, "mu": float,
        "c1": float, "batch_g": int, "batch_s": int, "max_iters": int, "algorithm": str,
        "x0_mode": str,
        "step_size": float, "seeds": int, "master_seed": int,
        "topology_seed": int, "data_seed": int, "topology_file": str, "target_error": float,
        "out": str,
    }
    assert experiment._UNSETTABLE == {
        "mu", "step_size", "topology_seed", "data_seed", "topology_file", "target_error", "out"}
    config = ExperimentConfig()
    assert config.to_dict() == {
        "dataset": "synthetic", "dim": 10, "n_agents": 5, "avg_degree": 2.0, "per_agent": 50,
        "test_size": 200, "lambda_reg": 0.01, "beta": 1.0,
        "eta_s": 0.5, "mu": None, "c1": 1.0, "batch_g": 10, "batch_s": 10, "max_iters": 500,
        "algorithm": "st_sopro", "x0_mode": "uniform", "step_size": None,
        "seeds": 1, "master_seed": 0, "topology_seed": None,
        "data_seed": None, "topology_file": None, "target_error": None, "out": None,
    }
    assert isinstance(config, optimizer.RunConfig) and config.seed == 0
    with pytest.raises(ConfigurationError, match="unknown config key 'seed'"):
        config_from_mapping({"seed": "3"})
    # The synthetic data's class separation and noise are not keys: every
    # run draws them at gaussian_blob_samples' defaults.
    path = tmp_path / "blobs.cfg"
    for key in ("separation", "noise"):
        path.write_text(f"{key} = 2\n")
        with pytest.raises(ConfigurationError, match=f"unknown config key '{key}'"):
            config_from_mapping(parse_config_file(path))


# A config or grid file is UTF-8: its values may be paths that are not
# ASCII.  The first byte that does not decode is named with its line.
@pytest.mark.parametrize(
    "read, good, bad, value",
    [(parse_config_file, "dataset = {}\n", b"dim = 4\n# caf\xe9\n",
      {"dataset": "caf\u00e9.txt"}),
     (parse_grid_file, "topology_file={}\n", b"step_size=0.1\nstep_size=\xff\n",
      [{"topology_file": "caf\u00e9.txt"}])],
    ids=["config", "grid"],
)
def test_config_and_grid_files_are_utf8_and_name_the_line_of_a_byte_that_is_not(
        read, good, bad, value, tmp_path):
    path = tmp_path / "file.txt"
    path.write_bytes(good.format("caf\u00e9.txt").encode())
    assert read(path) == value
    path.write_bytes(bad)
    with pytest.raises(ParseError, match=rf"^line 2: invalid UTF-8 byte 0x{bad[-2]:02x}$") as e:
        read(path)
    assert e.value.line == 2


def test_the_keys_that_may_be_unset_are_the_optional_fields():
    hints = typing.get_type_hints(ExperimentConfig)
    unsettable = set()
    for key in CONFIG_SCHEMA:
        try:
            config = config_from_mapping({key: "none"})
        except ConfigurationError as exc:
            assert f"key {key!r} cannot be unset" in str(exc)
            continue
        assert getattr(config, key) is None
        unsettable.add(key)
    assert unsettable == {k for k, hint in hints.items() if type(None) in typing.get_args(hint)}
    assert unsettable >= {"mu", "step_size", "target_error", "out"}


@pytest.mark.parametrize("command", ["run", "certify", "reference", "tune"])
def test_every_config_key_is_a_flag_of_every_subcommand(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    missing = [key for key in CONFIG_SCHEMA
               if f"--{key.replace('_', '-')} {key.upper()}" not in usage]
    assert missing == []
    with pytest.raises(SystemExit):
        main(["--help"])
    top = capsys.readouterr().out
    for text in (usage, top):
        assert "OPENBLAS_NUM_THREADS=1" in " ".join(text.split())


def _refuse_set_up(config):
    raise AssertionError("set-up ran for a run that should have been refused")


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"algorithm": "foo"}, "unknown algorithm 'foo'"),
        ({"x0_mode": "bogus"}, "unknown x0_mode 'bogus'"),
        ({"beta": -1}, "beta must be positive"),
        ({"algorithm": "dsgd"}, "baselines need a positive step_size"),
        ({"batch_g": 11}, "batch_g=11 outside 1..10"),
        ({"max_iters": -1}, "max_iters must be nonnegative"),
    ],
    ids=["algorithm", "x0_mode", "beta", "no_step_size", "batch_g", "max_iters"],
)
def test_run_parameters_are_refused_before_set_up(overrides, message, monkeypatch, tmp_path):
    monkeypatch.setattr(experiment, "build_problem", _refuse_set_up)
    small = dict(dim=4, n_agents=3, per_agent=10, test_size=5, batch_g=2, batch_s=2, max_iters=2)
    config = ExperimentConfig(**{**small, **overrides, "out": str(tmp_path / "out")})
    with pytest.raises(ConfigurationError, match=message):
        run_experiment(config)
    assert not (tmp_path / "out").exists()


def test_sopro_runs_on_whole_sets_whatever_its_batch_keys():
    # SoPro's batches are the whole local sets (RunConfig.batches), so
    # batch keys outside 1..C are not refused and change nothing.
    small = dict(dim=4, n_agents=3, per_agent=10, test_size=5, max_iters=3, algorithm="sopro")
    assert optimizer.RunConfig(batch_g=11, batch_s=0, max_iters=3, seed=0,
                               algorithm="sopro").batches(10) == (10, 10)
    rows = [
        [(r.opt_err, r.q_err, r.comm_bits, r.test_acc)
         for r in run_experiment(ExperimentConfig(**small, batch_g=g, batch_s=s)).traces[0].rows]
        for g, s in ((10, 10), (11, 0), (50, 50))
    ]
    assert rows[1] == rows[0] and rows[2] == rows[0]


@pytest.mark.parametrize("algorithm", ["dsgd", "dsgt"])
def test_baselines_refuse_only_the_batch_size_they_read(algorithm, tmp_path, capsys):
    # A baseline draws no Hessian batch and has no dual step, so neither
    # batch_s nor beta is checked for it; batch_g still is.  At 5 samples
    # an agent the default batch_s = 10 is outside 1..5.
    argv = ["run", "--dim", "4", "--n-agents", "3", "--per-agent", "5", "--test-size", "5",
            "--max-iters", "2", "--algorithm", algorithm, "--step-size", "0.1"]
    assert main([*argv, "--batch-g", "2", "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / f"{algorithm}_seed000.jsonl").exists()
    assert main([*argv, "--batch-g", "2", "--beta", "0", "--out", str(tmp_path / "beta")]) == 0
    assert (tmp_path / "beta" / f"{algorithm}_seed000.jsonl").exists()
    capsys.readouterr()
    assert main([*argv, "--batch-g", "6", "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == "error: batch_g=6 outside 1..5\n"
    assert not (tmp_path / "bad").exists()
    config = optimizer.RunConfig(batch_g=2, batch_s=99, algorithm=algorithm, step_size=0.1)
    assert config.batches(5) == (2, None)
    config.validate(5)
    with pytest.raises(ConfigurationError, match="batch_g=6 outside 1..5"):
        dataclasses.replace(config, batch_g=6).validate(5)
    with pytest.raises(ConfigurationError, match="batch_s=99 outside 1..5"):
        dataclasses.replace(config, algorithm="st_sopro").validate(5)
    dataclasses.replace(config, beta=0.0).validate(5)
    with pytest.raises(ConfigurationError, match="beta must be positive, got 0.0"):
        dataclasses.replace(config, algorithm="st_sopro", batch_s=2, beta=0.0).validate(5)


@pytest.mark.parametrize("command", ["run", "tune"])
def test_cli_refuses_a_bad_run_parameter_before_set_up(command, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(experiment, "build_problem", _refuse_set_up)
    grid = tmp_path / "grid.txt"
    grid.write_text("step_size=0.1\n")
    argv = [command, *SMALL, "--x0-mode", "bogus", "--out", str(tmp_path / "out")]
    if command == "tune":
        argv += ["--algorithm", "dsgd", "--target-error", "0.1", "--grid", str(grid)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: unknown x0_mode 'bogus'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--batch-g", "0"], "batch_g=0 outside 1..10"),
        (["--beta", "-1"], "beta must be positive, got -1.0"),
        (["--x0-mode", "bogus"], "unknown x0_mode 'bogus'"),
    ],
    ids=["batch_g", "beta", "x0_mode"],
)
def test_cli_certify_refuses_a_bad_run_parameter_before_set_up(flags, message, monkeypatch,
                                                               capsys):
    monkeypatch.setattr(experiment, "build_problem", _refuse_set_up)
    monkeypatch.setattr(cli, "build_problem", _refuse_set_up)
    assert main(["certify", *SMALL, *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


BAD_CERTIFICATE_KEYS = [
    (["--eta-s", "0"], "eta_s must lie in (0,1), got 0.0"),
    (["--eta-s", "1"], "eta_s must lie in (0,1), got 1.0"),
    (["--eta-s", "2"], "eta_s must lie in (0,1), got 2.0"),
    (["--mu", "0"], "mu must be positive, got 0.0"),
    (["--mu", "-1"], "mu must be positive, got -1.0"),
    (["--c1", "0"], "c1 must be positive, got 0.0"),
    (["--c1", "-1"], "c1 must be positive, got -1.0"),
]


@pytest.mark.parametrize("command", ["run", "certify", "tune"])
@pytest.mark.parametrize("flags, message", BAD_CERTIFICATE_KEYS,
                         ids=[" ".join(f) for f, _ in BAD_CERTIFICATE_KEYS])
@pytest.mark.parametrize("algorithm", ["st_sopro", "sopro"])
def test_cli_refuses_a_bad_certificate_key_before_set_up(command, flags, message, algorithm,
                                                         monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(experiment, "build_problem", _refuse_set_up)
    monkeypatch.setattr(cli, "build_problem", _refuse_set_up)
    grid = tmp_path / "grid.txt"
    grid.write_text("beta=0.5\n")
    argv = [command, *SMALL, "--algorithm", algorithm, *flags, "--out", str(tmp_path / "out")]
    if command == "tune":
        argv += ["--target-error", "0.1", "--grid", str(grid)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("algorithm", ["dsgd", "dsgt"])
def test_baselines_run_whatever_their_certificate_keys(algorithm):
    small = dict(dim=4, n_agents=3, per_agent=10, test_size=5, batch_g=2, max_iters=3,
                 algorithm=algorithm, step_size=0.1)
    rows = [
        [(r.opt_err, r.comm_bits, r.test_acc)
         for r in run_experiment(ExperimentConfig(**small, **keys)).traces[0].rows]
        for keys in ({}, {"eta_s": 2.0, "mu": -1.0, "c1": 0.0}, {"eta_s": 0.0, "mu": 0.0})
    ]
    assert rows[1] == rows[0] and rows[2] == rows[0]


@pytest.mark.parametrize("flag", ["--config", "--grid", "--dataset", "--topology-file"])
def test_cli_reports_a_missing_file(flag, tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    grid = tmp_path / "grid.txt"
    grid.write_text("step_size=0.1\n")
    argv = ["tune", *SMALL, "--algorithm", "dsgd", "--target-error", "0.1",
            "--grid", str(grid), flag, str(missing)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert str(missing) in err


@pytest.mark.parametrize("algorithm", ["st_sopro", "dsgt"])
def test_cli_run_refuses_a_one_agent_topology_file_before_any_output(algorithm, tmp_path,
                                                                     capsys):
    topology = tmp_path / "one.txt"
    topology.write_text("1 0\n")
    out = tmp_path / "out"
    argv = ["run", *SMALL, "--algorithm", algorithm, "--step-size", "0.1",
            "--topology-file", str(topology), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: line 1: need n >= 2 agents, got 1\n"
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["st_sopro", "dsgt"])
def test_cli_run_refuses_a_topology_file_of_another_agent_count_before_loading_data(
        algorithm, monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("the data were loaded")

    monkeypatch.setattr(experiment, "_load_data", refuse)
    topology = tmp_path / "path4.txt"
    topology.write_text("4 3\n0 1 1.0\n1 2 1.0\n2 3 1.0\n")
    out = tmp_path / "out"
    argv = ["run", *SMALL, "--algorithm", algorithm, "--step-size", "0.1",
            "--topology-file", str(topology), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: topology file {str(topology)!r} has 4 agents, but n_agents is 3\n")
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["st_sopro", "dsgt"])
def test_a_run_from_a_topology_file_writes_the_seeded_run(algorithm, tmp_path):
    config = ExperimentConfig(
        dim=6, n_agents=7, avg_degree=2.6, per_agent=20, test_size=10, batch_g=4, batch_s=4,
        max_iters=5, topology_seed=3, algorithm=algorithm,
        step_size=0.1 if algorithm == "dsgt" else None,
    )
    network = tmp_path / "network.txt"
    network.write_text(edge_list_text(build_topology(config)))
    seeded = run_experiment(config.with_overrides({"out": str(tmp_path / "seeded")}))
    from_file = run_experiment(config.with_overrides(
        {"topology_file": str(network), "out": str(tmp_path / "file")}))
    (want_header, want_rows), (header, rows) = (
        trace_lines(r.trace_paths[0]) for r in (seeded, from_file))
    assert len(rows) == 6 and rows == want_rows
    assert header["topology"] == want_header["topology"]
    assert header["topology"]["n_edges"] == 10


@pytest.mark.parametrize("key", ["master_seed", "topology_seed", "data_seed"])
def test_a_negative_seed_is_refused_when_the_config_is_made(key):
    message = f"key {key!r} needs at least 0, got -1"
    with pytest.raises(ConfigurationError, match=message):
        ExperimentConfig(**{key: -1})
    with pytest.raises(ConfigurationError, match=message):
        config_from_mapping({key: "-1"})
    with pytest.raises(ConfigurationError, match=message):
        ExperimentConfig().with_overrides({key: -1})
    assert getattr(ExperimentConfig(**{key: 0}), key) == 0


@pytest.mark.parametrize("value", [0, -0.5])
def test_a_non_positive_lambda_reg_is_refused_when_the_config_is_made(value):
    message = f"key 'lambda_reg' needs a positive value, got {float(value)}"
    with pytest.raises(ConfigurationError, match=message):
        config_from_mapping({"lambda_reg": str(value)})
    with pytest.raises(ConfigurationError, match=message):
        ExperimentConfig().with_overrides({"lambda_reg": value})


@pytest.mark.parametrize(
    "data, message",
    [
        (b"+1 1:1\n-1 2:1 \xff\n", "line 2: non-ASCII byte 0xff"),
        (b"+1 1:1\n-1 2:1 99999999999999999999:1\n",
         "line 2: feature token '99999999999999999999:1' has an index past int64"),
    ],
    ids=["utf8", "int64"],
)
def test_cli_refuses_a_dataset_the_parser_refuses_with_one_error_line(
        data, message, tmp_path, capsys):
    dataset = tmp_path / "bad.svm"
    dataset.write_bytes(data)
    out = tmp_path / "out"
    assert main(["run", *SMALL, "--dataset", str(dataset), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "certify", "reference"])
def test_cli_refuses_a_non_positive_lambda_reg_before_loading_data(
        command, monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("the data were loaded")

    monkeypatch.setattr(experiment, "_load_data", refuse)
    out = tmp_path / "out"
    assert main([command, *SMALL, "--lambda-reg", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: key 'lambda_reg' needs a positive value, got 0.0\n"
    assert not out.exists()


# Config text: lines of schema keys, junk keys and arbitrary values, with
# and without '='.
_CONFIG_KEYS = st.one_of(st.sampled_from(sorted(CONFIG_SCHEMA)), st.text(max_size=6))
_CONFIG_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "3", "2.5", "1e3", "nan", "inf", "none", "auto", "", "st_sopro"]),
    st.text(max_size=8),
)
_CONFIG_LINES = st.lists(
    st.tuples(_CONFIG_KEYS, st.sampled_from([" = ", "=", " ", ""]), _CONFIG_VALUES).map("".join),
    max_size=8,
)


@given(st.one_of(st.text(max_size=200), _CONFIG_LINES.map("\n".join)))
@settings(max_examples=200, deadline=None, database=None)
def test_config_text_parses_or_raises_a_package_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            config = config_from_mapping(parse_config_file(path))
        except SoprolabError:
            return
    assert isinstance(config, ExperimentConfig)
    assert config.seeds >= 1 and config.test_size >= 0
