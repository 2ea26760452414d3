import io
import json
import math

import numpy as np
import pytest

from soprolab.harness import reference
from soprolab.harness.experiment import ExperimentConfig, run_experiment
from soprolab.harness.metrics import MetricRow, MetricsTrace
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
