from dataclasses import replace

import numpy as np
import pytest

from soprolab import optimizer, topology
from soprolab.baselines import metropolis_weights, run_baseline
from soprolab.errors import ConfigurationError, DivergenceError
from soprolab.harness.synthetic import gaussian_blob_samples
from soprolab.loss import LocalDataset, LowRankHessian
from soprolab.optimizer import (
    RunConfig,
    agent_batch_stats,
    dense_step,
    init_network,
    local_step,
    run,
    woodbury_step,
)
from soprolab.topology import build_random_connected_graph, laplacian_weights


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# ------------------------------------------------------------- batched step


def test_woodbury_step_matches_dense_inverse_oracle():
    rng = np.random.default_rng(4)
    n, S, d, lam = 7, 6, 15, 0.1
    alphas = np.geomspace(0.5, 800.0, n)
    weights = rng.uniform(0.0, 0.25, (n, S)) / S
    feats = (rng.random((n, S, d)) < 0.3).astype(float)
    x = rng.standard_normal((n, d))
    rhs = rng.standard_normal((n, d))
    B = np.sqrt(weights)[:, :, None] * feats
    expected = np.empty((n, d))
    for i in range(n):
        h = LowRankHessian(lam=lam, weights=weights[i], feats=feats[i])
        expected[i] = x[i] - np.linalg.inv(h.dense() + alphas[i] * np.eye(d)) @ rhs[i]

    out = woodbury_step(x, rhs, B, lam + alphas)
    # Trailing zero rows stand for agents with smaller Hessian batches.
    padded = np.concatenate([B, np.zeros((n, 3, d))], axis=1)
    out_padded = woodbury_step(x, rhs, padded, lam + alphas)
    for i in range(n):
        assert rel_err(out[i], expected[i]) <= 1e-10
        assert rel_err(out_padded[i], expected[i]) <= 1e-10


def test_woodbury_step_rejects_nonpositive_shift():
    n, S, d = 4, 2, 5
    B = np.ones((n, S, d))
    c = np.array([1.0, 2.0, 0.0, -1.0])
    with pytest.raises(ConfigurationError) as e:
        woodbury_step(np.zeros((n, d)), np.ones((n, d)), B, c)
    assert "agent 2" in str(e.value)


def test_woodbury_step_rejects_nonpositive_shift_with_a_definite_small_system():
    # c I_S + B B^T = 3 I_S is positive definite, yet c I + B^T B has the
    # eigenvalue c = -1 on the d - S directions B does not reach.
    n, S, d = 3, 2, 5
    B = np.zeros((n, S, d))
    B[:, [0, 1], [0, 1]] = 2.0
    c = np.array([1.0, 1.0, -1.0])
    with pytest.raises(ConfigurationError) as e:
        woodbury_step(np.zeros((n, d)), np.ones((n, d)), B, c)
    assert "agent 2" in str(e.value)


def spd_blocks(rng, n, d, scale):
    """``n`` random symmetric positive semidefinite ``d x d`` blocks."""
    R = rng.standard_normal((n, d, d))
    return scale * R @ R.transpose(0, 2, 1) / d


@pytest.mark.parametrize("blocks", [False, True])
def test_dense_step_matches_dense_inverse_oracle(blocks):
    rng = np.random.default_rng(5)
    n, S, d, lam = 7, 20, 15, 0.1
    alphas = np.geomspace(0.5, 800.0, n)
    weights = rng.uniform(0.0, 0.25, (n, S)) / S
    feats = (rng.random((n, S, d)) < 0.3).astype(float)
    x = rng.standard_normal((n, d))
    rhs = rng.standard_normal((n, d))
    B = np.sqrt(weights)[:, :, None] * feats
    D = alphas[:, None, None] * np.eye(d)
    if blocks:
        D = D + spd_blocks(rng, n, d, 2.0)
        shift = lam * np.eye(d) + D
    else:
        shift = lam + alphas
    expected = np.empty((n, d))
    for i in range(n):
        h = LowRankHessian(lam=lam, weights=weights[i], feats=feats[i])
        expected[i] = x[i] - np.linalg.inv(h.dense() + D[i]) @ rhs[i]

    out = dense_step(x, rhs, B, shift)
    # Trailing zero rows stand for agents with smaller Hessian batches.
    padded = np.concatenate([B, np.zeros((n, 3, d))], axis=1)
    out_padded = dense_step(x, rhs, padded, shift)
    for i in range(n):
        assert rel_err(out[i], expected[i]) <= 1e-10
        assert rel_err(out_padded[i], expected[i]) <= 1e-10


def test_dense_step_rejects_nonpositive_shift():
    n, S, d = 4, 6, 5
    B = np.ones((n, S, d))
    c = np.array([1.0, 2.0, 0.0, -1.0])
    with pytest.raises(ConfigurationError) as e:
        dense_step(np.zeros((n, d)), np.ones((n, d)), B, c)
    assert "agent 2" in str(e.value)


def test_dense_step_takes_a_negative_shift_that_leaves_the_system_definite():
    # With S >= d the Gram can be positive definite on its own; the
    # factorisation, not the sign of c_i, decides.
    rng = np.random.default_rng(7)
    n, S, d = 4, 20, 6
    B = rng.standard_normal((n, S, d))
    x = rng.standard_normal((n, d))
    rhs = rng.standard_normal((n, d))
    H = B.transpose(0, 2, 1) @ B
    c = -0.5 * np.linalg.eigvalsh(H)[:, 0]
    out = dense_step(x, rhs, B, c)
    for i in range(n):
        expected = x[i] - np.linalg.inv(H[i] + c[i] * np.eye(d)) @ rhs[i]
        assert rel_err(out[i], expected) <= 1e-10


def test_cholesky_solve_factors_and_solves_in_place():
    rng = np.random.default_rng(6)
    n, d = 5, 9
    A = spd_blocks(rng, n, d, 1.0) + np.eye(d)
    b = rng.standard_normal((n, d))
    A0, b0 = A.copy(), b.copy()
    out = optimizer._cholesky_solve(A, b)
    assert np.shares_memory(out, b)
    for i in range(n):
        assert rel_err(out[i], np.linalg.solve(A0[i], b0[i])) <= 1e-10
        # The upper triangle of A[i] now holds the transposed Cholesky factor.
        assert rel_err(np.triu(A[i]), np.linalg.cholesky(A0[i]).T) <= 1e-12


@pytest.mark.parametrize("blocks", [False, True])
def test_dense_step_names_the_last_agent_when_only_its_system_is_indefinite(blocks):
    n, S, d = 4, 6, 5
    B = np.zeros((n, S, d))
    if blocks:
        shift = np.stack([np.eye(d)] * n)
        shift[n - 1, 3, 3] = -1.0
    else:
        shift = np.array([1.0, 2.0, 3.0, -1.0])
    with pytest.raises(ConfigurationError) as e:
        dense_step(np.zeros((n, d)), np.ones((n, d)), B, shift)
    assert f"agent {n - 1}" in str(e.value)


def test_dense_step_rejects_indefinite_block():
    n, S, d = 4, 6, 5
    B = np.zeros((n, S, d))
    shift = np.stack([np.eye(d)] * n)
    shift[1, 0, 0] = shift[3, 2, 2] = -1.0
    with pytest.raises(ConfigurationError) as e:
        dense_step(np.zeros((n, d)), np.ones((n, d)), B, shift)
    assert "agent 1" in str(e.value)


# ------------------------------------------------------------- full runs


def make_problem(sizes, d, seed=0, lam=0.1):
    n = len(sizes)
    P = laplacian_weights(build_random_connected_graph(n, 2.0, seed=seed), 1.0)
    feats, labels = gaussian_blob_samples(sum(sizes), d, seed, separation=1.0, noise=0.5)
    bounds = np.cumsum([0, *sizes])
    datasets = [
        LocalDataset(feats[a:b], labels[a:b], lam) for a, b in zip(bounds, bounds[1:])
    ]
    return P, datasets


def neighbor_disagreement(P, x):
    y = np.zeros_like(x)
    for i in range(P.n_agents):
        for j in P.graph.neighbors[i]:
            y[i] += P.weights[(min(i, j), max(i, j))] * (x[i] - x[j])
    return y


def reference_run(P, datasets, config):
    """Per-agent rounds: fresh substreams, dense Cholesky steps, neighbor sums."""
    state = init_network(P, datasets, config)
    state.y = neighbor_disagreement(P, state.x)
    full = config.algorithm == "sopro"
    width = max(ds.n_samples for ds in datasets)  # the batched draw's key rows
    history = [(state.x.copy(), state.q.copy())]
    for k in range(config.max_iters):
        for i, ds in enumerate(datasets):
            C = ds.n_samples
            G = C if full else config.batch_g
            S = C if full else config.batch_s
            g, h = agent_batch_stats(state.x[i], ds, G, S, config.seed, i, k, width=width)
            d_i = state.d.alphas[i] if state.d.is_scalar else state.d.blocks[i]
            state.x[i] = local_step(
                state.x[i], state.y[i], state.q[i], h, g, d_i, config.beta, agent=i,
            )
        state.y = neighbor_disagreement(P, state.x)
        state.q = state.q + config.beta * state.y
        history.append((state.x.copy(), state.q.copy()))
    return history


def engine_history(P, datasets, config, monkeypatch, expect_woodbury):
    """The engine's iterates and duals after every round; each round must
    make one batched step, by Woodbury or dense solve as expected, and
    factor by Cholesky rather than by a general LU solve."""
    calls = {"woodbury": 0, "dense": 0, "local": 0, "lu": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(optimizer, "woodbury_step", counted("woodbury", woodbury_step))
    monkeypatch.setattr(optimizer, "dense_step", counted("dense", dense_step))
    monkeypatch.setattr(optimizer, "local_step", counted("local", local_step))
    monkeypatch.setattr(np.linalg, "solve", counted("lu", np.linalg.solve))
    history = []
    run(P, datasets, config,
        callbacks=[lambda k, s: history.append((s.x.copy(), s.q.copy()))])
    rounds = config.max_iters
    if expect_woodbury:
        assert calls == {"woodbury": rounds, "dense": 0, "local": 0, "lu": 0}
    else:
        assert calls == {"woodbury": 0, "dense": rounds, "local": 0, "lu": 0}
    return history


def assert_histories_match(got, want):
    assert len(got) == len(want)
    for (x, q), (x_ref, q_ref) in zip(got, want):
        assert rel_err(x, x_ref) <= 1e-10
        assert rel_err(q, q_ref) <= 1e-10


@pytest.mark.parametrize(
    "algorithm, batch_s, d, woodbury",
    [
        ("st_sopro", 5, 15, True),  # S < d: Woodbury
        ("st_sopro", 20, 15, False),  # S >= d: dense
        ("sopro", None, 60, True),  # full batch, C = 40 < d
        ("sopro", None, 15, False),  # full batch, C = 40 >= d
    ],
)
def test_run_matches_per_agent_reference(algorithm, batch_s, d, woodbury, monkeypatch):
    P, datasets = make_problem([40] * 6, d)
    config = RunConfig(
        batch_g=10, batch_s=batch_s or 40, max_iters=20, seed=5, algorithm=algorithm
    )
    want = reference_run(P, datasets, config)
    got = engine_history(P, datasets, config, monkeypatch, expect_woodbury=woodbury)
    assert_histories_match(got, want)


@pytest.mark.parametrize(
    "algorithm, d, woodbury",
    [
        ("st_sopro", 50, True),
        ("sopro", 50, True),  # Hessian batches of 20..45 rows, padded to 45
        ("sopro", 30, False),  # some local sets have more rows than d
    ],
)
def test_run_accepts_unequal_local_datasets(algorithm, d, woodbury, monkeypatch):
    P, datasets = make_problem([20, 30, 45, 25, 35], d, seed=1)
    config = RunConfig(batch_g=8, batch_s=6, max_iters=20, seed=2, algorithm=algorithm)
    want = reference_run(P, datasets, config)
    got = engine_history(P, datasets, config, monkeypatch, expect_woodbury=woodbury)
    assert_histories_match(got, want)
    assert np.all(np.isfinite(got[-1][0]))


def explicit_config(P, datasets, config, perturb):
    """``config`` with the scalar run's ``alpha_i I`` as explicit blocks,
    plus ``perturb`` (positive semidefinite, so the blocks stay admissible)."""
    alphas = init_network(P, datasets, config).d.alphas
    d = datasets[0].dim
    blocks = alphas[:, None, None] * np.eye(d) + perturb
    return replace(config, d_mode="explicit", d_blocks=blocks)


@pytest.mark.parametrize("batch_s, woodbury", [(5, True), (20, False)])
def test_explicit_alpha_blocks_match_scalar_run(batch_s, woodbury, monkeypatch):
    P, datasets = make_problem([40] * 6, 15)
    config = RunConfig(batch_g=10, batch_s=batch_s, max_iters=20, seed=5)
    want = engine_history(P, datasets, config, monkeypatch, expect_woodbury=woodbury)
    explicit = explicit_config(P, datasets, config, 0.0)
    got = engine_history(P, datasets, explicit, monkeypatch, expect_woodbury=False)
    assert_histories_match(got, want)


def test_explicit_blocks_match_per_agent_reference(monkeypatch):
    P, datasets = make_problem([40] * 6, 15)
    config = RunConfig(batch_g=10, batch_s=5, max_iters=20, seed=5)
    perturb = spd_blocks(np.random.default_rng(8), 6, 15, 50.0)
    explicit = explicit_config(P, datasets, config, perturb)
    want = reference_run(P, datasets, explicit)
    got = engine_history(P, datasets, explicit, monkeypatch, expect_woodbury=False)
    assert_histories_match(got, want)


# ------------------------------------------------------------- shared parts


def test_spectral_summary_computed_once_per_matrix(monkeypatch):
    calls = []
    real = topology.spectral_summary
    monkeypatch.setattr(topology, "spectral_summary", lambda p: calls.append(p) or real(p))
    P, datasets = make_problem([40] * 6, 15)
    run(P, datasets, RunConfig(batch_g=10, batch_s=5, max_iters=2, seed=0))
    assert P.spectral == real(P)
    assert len(calls) == 1 and calls[0] is P


@pytest.mark.parametrize("algorithm, per_edge", [("dsgd", 2), ("dsgt", 4)])
def test_baselines_share_draws_and_count_edges(algorithm, per_edge):
    P, datasets = make_problem([40] * 6, 15)
    config = RunConfig(
        batch_g=10, batch_s=10, max_iters=3, seed=7, algorithm=algorithm, step_size=0.5
    )
    states, comm = [], []

    def record(k, s):
        states.append(s.x.copy())
        comm.append(s.comm_scalars)

    run_baseline(P, datasets, config, callbacks=[record])
    assert len(states) == 4
    d = datasets[0].dim
    assert comm == [k * per_edge * P.graph.n_edges * d for k in range(4)]
    final = run_baseline(P, datasets, config)
    assert final.comm_scalars == 3 * per_edge * P.graph.n_edges * d
    if algorithm == "dsgd":
        # Round 0 steps along the gradients of the engine's own G-draws.
        grads = np.stack([
            agent_batch_stats(states[0][i], ds, 10, 10, 7, i, 0)[0]
            for i, ds in enumerate(datasets)
        ])
        W = metropolis_weights(P.graph).matrix
        assert np.array_equal(states[1], W @ states[0] - 0.5 * grads)


def test_dsgt_tracker_sum_equals_last_gradient_sum():
    P, datasets = make_problem([40] * 6, 15)
    config = RunConfig(
        batch_g=10, batch_s=10, max_iters=30, seed=7, algorithm="dsgt", step_size=0.5
    )
    gaps = []

    def record(k, s):
        want = s._last_grads.sum(axis=0)
        gaps.append(np.linalg.norm(s.tracker.sum(axis=0) - want) / np.linalg.norm(want))

    run_baseline(P, datasets, config, callbacks=[record])
    assert len(gaps) == 31
    assert max(gaps) <= 1e-12


def test_one_over_k_schedule_divides_the_step_by_one_plus_the_round():
    P, datasets = make_problem([40] * 6, 15)
    config = RunConfig(
        batch_g=10, batch_s=10, max_iters=3, seed=7, algorithm="dsgd", step_size=0.5,
        step_schedule="one_over_k",
    )
    states = []
    run_baseline(P, datasets, config, callbacks=[lambda k, s: states.append(s.x.copy())])
    W = metropolis_weights(P.graph).matrix
    for k in range(3):
        grads = np.stack([
            agent_batch_stats(states[k][i], ds, 10, 10, 7, i, k)[0]
            for i, ds in enumerate(datasets)
        ])
        assert np.array_equal(states[k + 1], W @ states[k] - 0.5 / (1 + k) * grads)


@pytest.mark.parametrize("algorithm", ["dsgd", "dsgt"])
def test_baselines_fail_loudly_on_divergence(algorithm):
    P, datasets = make_problem([40] * 6, 15)
    config = RunConfig(
        batch_g=10, batch_s=10, max_iters=300, seed=7, algorithm=algorithm, step_size=1e3
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match=r"round \d+: agent \d+ has a non-finite"):
            run_baseline(P, datasets, config)


def test_check_finite_names_round_and_agent():
    x = np.zeros((4, 3))
    optimizer.check_finite(x, 5)
    x[2, 1] = np.nan
    x[3, 0] = np.inf
    with pytest.raises(DivergenceError, match="round 5: agent 2 "):
        optimizer.check_finite(x, 5)


def test_run_fails_loudly_on_divergence(monkeypatch):
    # The certified parameters do not diverge, so a step is made to.
    def poisoned(x, rhs, B, c):
        out = woodbury_step(x, rhs, B, c)
        if len(calls) == 2:
            out[3] = np.nan
        calls.append(1)
        return out

    calls = []
    monkeypatch.setattr(optimizer, "woodbury_step", poisoned)
    P, datasets = make_problem([40] * 6, 15)
    with pytest.raises(DivergenceError, match="round 3: agent 3 "):
        run(P, datasets, RunConfig(batch_g=10, batch_s=5, max_iters=5, seed=0))
    assert len(calls) == 3
