import math

import numpy as np

from soprolab.harness import reference
from soprolab.harness.experiment import ExperimentConfig
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
