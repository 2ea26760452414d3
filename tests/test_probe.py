"""The probe problem: working points where the methods converge, pinned.

The data is the benchmark's synthetic a4a-shaped file (``bench/synth.py``,
read, not changed): 4781 one-hot rows over 123 columns, split over 20
agents of 239 rows on a network of average degree 5.  At the tuned
points below SoPro and full-batch DSGT reach an opt_err of 1e-6, and
St-SoPro at a sampled batch stalls on its noise floor.  The counts are
exact round numbers, so a change that moves a method's convergence
shows here.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest

from soprolab.certificate import QNormError
from soprolab.harness.experiment import ExperimentConfig, build_problem
from soprolab.harness.metrics import optimality_error
from soprolab.optimizer import RunConfig, run

SYNTH = Path(__file__).resolve().parents[1] / "bench" / "synth.py"
ALPHA, BETA = 0.197, 0.0217


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    synth = runpy.run_path(str(SYNTH))
    path = tmp_path_factory.mktemp("probe") / "a4a.svm"
    synth["write_libsvm"](path, synth["SHAPES"]["a4a"], 4781, seed=1)
    return build_problem(ExperimentConfig(
        dataset=str(path), dim=123, n_agents=20, avg_degree=5, per_agent=239, test_size=1,
        lambda_reg=0.01, topology_seed=0, data_seed=1,
    ))


def opt_errs(problem, config, alphas=None):
    """The run's opt_err after every round, round 0 first, and its final state."""
    errs = []
    state = run(problem.P, problem.local, config, alphas,
                callbacks=[lambda k, s: errs.append(optimality_error(s.x, problem.reference.x))])
    return errs, state


def rounds_to(errs, target):
    return next(k for k, e in enumerate(errs) if e <= target)


def test_probe_problem_is_the_a4a_shape_with_its_optimum(probe):
    assert probe.local.shape == (20, 239, 123)
    assert probe.P.n_edges == 50
    assert np.linalg.norm(probe.reference.x) == pytest.approx(3.386660063554041, rel=1e-13)


def test_sopro_at_its_tuned_point_takes_45_and_131_rounds(probe):
    config = RunConfig(algorithm="sopro", beta=BETA, seed=7, max_iters=131)
    errs, state = opt_errs(probe, config, np.full(20, ALPHA))
    assert (rounds_to(errs, 1e-2), rounds_to(errs, 1e-6)) == (45, 131)
    assert (state.engine.solve, state.engine.terms) == ("cg", 67)
    assert state.engine.rho_bound == pytest.approx(16.90821256038647, rel=1e-12)


def test_full_batch_dsgt_at_step_half_takes_438_and_1287_rounds(probe):
    config = RunConfig(algorithm="dsgt", batch_g=239, step_size=0.5, seed=7, max_iters=1287)
    errs, _ = opt_errs(probe, config)
    assert (rounds_to(errs, 1e-2), rounds_to(errs, 1e-6)) == (438, 1287)


def test_st_sopro_at_a_sampled_batch_stalls_above_its_noise_floor(probe):
    config = RunConfig(algorithm="st_sopro", batch_g=80, batch_s=80, beta=BETA, seed=7,
                       max_iters=400)
    errs, _ = opt_errs(probe, config, np.full(20, ALPHA))
    assert errs[-1] > 0.3


def test_q_norm_tracker_follows_sopro_down_to_its_rounding_level(probe):
    # Over 400 rounds q_err falls by about 19 orders; the running evaluator
    # adds beta (x - mean x) to P^+ dq every round, and stays within 1e-9 of
    # the Gram form at every round, down to where dq = q - q* itself has
    # lost those digits.
    n = probe.P.n_agents
    r = 0.5 * (probe.bounds.m + probe.bounds.M) + ALPHA
    q_err = QNormError(probe.P, r, BETA, probe.reference.x, -probe.reference.local_grads)
    track = q_err.running()
    rows = []
    config = RunConfig(algorithm="sopro", beta=BETA, seed=7, max_iters=400)
    run(probe.P, probe.local, config, np.full(n, ALPHA),
        callbacks=[lambda k, s: rows.append((track(k, s.x, s.q), q_err(s.x, s.q)))])
    got, want = np.array(rows).T
    assert want[-1] < 1e-15 * want[0]
    assert np.all(np.abs(got - want) <= 1e-9 * want)
