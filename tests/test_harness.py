import io
import json
import math

import numpy as np
import pytest

from soprolab.errors import DivergenceError, InvariantViolation
from soprolab.harness import reference
from soprolab.harness.cli import main
from soprolab.harness.experiment import ExperimentConfig, run_experiment
from soprolab.harness.metrics import MetricRow, MetricsTrace, aggregate_traces
from soprolab.harness.tuning import tune_baseline
from soprolab.loss import LocalDataset


def one_hot_problem(n_agents, per_agent, d, active, seed, lam=0.01):
    """Rows with ``active`` ones among ``d`` columns and planted logistic labels."""
    rng = np.random.default_rng(seed)
    rows = n_agents * per_agent
    cols = np.sort(rng.choice(d, size=(rows, active)), axis=1)
    feats = np.zeros((rows, d))
    feats[np.arange(rows)[:, None], cols] = 1.0
    w = rng.standard_normal(d)
    labels = np.where(rng.random(rows) < 1.0 / (1.0 + np.exp(-feats @ w)), 1, -1)
    return [
        LocalDataset(feats[rows_i].copy(), labels[rows_i].copy(), lam)
        for rows_i in np.split(np.arange(rows), n_agents)
    ]


def test_solve_reference_passes_the_rounding_level_of_the_objective():
    # Near the optimum of this problem the Newton decrement g.step falls
    # below the rounding level of F, where an Armijo test on F sees only
    # noise; the solve must still reach its gradient tolerance.
    datasets = one_hot_problem(10, 40, 60, 8, seed=13)
    reference._cache.clear()
    sol = reference.solve_reference(datasets)
    assert sol.grad_norm <= 1e-12
    assert sol.iterations <= 10
    g = sum(reference.full_grad(sol.x, ds) for ds in datasets)
    assert np.linalg.norm(g) == sol.grad_norm


def test_tuning_scores_a_diverging_point_as_never_reaching_the_target():
    config = ExperimentConfig(
        dim=5, n_agents=4, per_agent=20, test_size=20, algorithm="dsgd",
        batch_g=5, max_iters=300, target_error=1e-2,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        result = tune_baseline(config, [{"step_size": 0.1}, {"step_size": 1e3}])
    stable, diverged = result.table
    assert math.isinf(diverged.mean_rounds) and math.isinf(diverged.mean_final_err)
    assert result.best is stable and math.isfinite(stable.mean_final_err)


def test_trace_with_a_non_finite_value_is_refused_and_not_written():
    trace = MetricsTrace()
    trace.append(MetricRow(round=0, opt_err=1.0, comm_bits=32))
    trace.append(MetricRow(round=1, opt_err=float("nan"), comm_bits=64))
    out = io.StringIO()
    with pytest.raises(ValueError):
        trace.write_jsonl(out, {"config": {}}, wall_s_total=0.5)
    assert out.getvalue() == ""


SETUP_PHASES = ("load_s", "reference_s", "certificate_s")


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


def test_diverged_run_writes_its_rows_and_a_diverged_summary_then_raises(tmp_path):
    # The step-1e3 DSGD set-up of the baseline divergence tests: its
    # iterates stay finite for 300 rounds while the optimality error
    # overflows.
    config = ExperimentConfig(
        dim=15, n_agents=6, per_agent=40, test_size=20, batch_g=10, max_iters=300,
        algorithm="dsgd", step_size=1e3, out=str(tmp_path),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match=r"round \d+: opt_err is not finite") as e:
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
