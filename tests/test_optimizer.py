import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    agent_datasets, densify, draw_batches, draw_batches_argpartition, flat_positions,
    stack_sets,
)
from soprolab import optimizer
from soprolab.certificate import proximal_alphas
from soprolab.errors import ConfigurationError, InvariantViolation, ParameterError
from soprolab.loss import (
    LowRankHessian,
    SmoothnessBounds,
    StackedSets,
    full_grad,
)
from soprolab.optimizer import (
    PURPOSE_GRAD,
    PURPOSE_HESS,
    PURPOSE_INIT,
    RunConfig,
    batch_positions,
    draw_positions,
    exchange_and_dual_update,
    init_network,
    local_step,
    run,
    sample_batches,
    substream,
)
from soprolab.harness.reference import solve_reference
from soprolab.harness.synthetic import gaussian_blob_samples
from soprolab.loss import partition
from soprolab.sparse import Csr
from soprolab.topology import build_random_connected_graph, laplacian_weights


def make_problem(n=5, d=10, C=50, lam=0.1, seed=0, noise=0.5, avg_degree=2.0):
    P = build_random_connected_graph(n, avg_degree, seed=seed)
    samples = gaussian_blob_samples(n * C, d, seed, separation=1.0, noise=noise)
    local, _ = partition(samples, n, C, seed, lam)
    return P, local


def base_config(**kw):
    defaults = dict(
        batch_g=10, batch_s=10, max_iters=50, seed=3, beta=1.0, algorithm="st_sopro",
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def certified_alphas(P, local):
    return proximal_alphas(SmoothnessBounds.from_sets(local), P, 1.0, 0.5)[0]


# ------------------------------------------------------------- substreams


def test_substream_deterministic_and_labelled():
    a = substream(7, 1, 2, PURPOSE_GRAD).uniform(size=4)
    b = substream(7, 1, 2, PURPOSE_GRAD).uniform(size=4)
    assert np.array_equal(a, b)
    for other in [(8, 1, 2, 1), (7, 2, 2, 1), (7, 1, 3, 1), (7, 1, 2, 2)]:
        assert not np.array_equal(a, substream(*other).uniform(size=4))


# numpy reads a list of words with one at or above 2^63 through float64,
# which rounds it, so the labels stay below that.
words = st.integers(0, 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(seed=words, agent=words, round_idx=words, purpose=words)
def test_substream_is_the_philox_keyed_by_the_seed(seed, agent, round_idx, purpose):
    # The key-only seed sequence gives Philox the key it would take from
    # key=[seed, 0], so the raw outputs are that generator's.
    got = substream(seed, agent, round_idx, purpose).bit_generator
    want = np.random.Philox(key=[seed, 0], counter=[0, agent, round_idx, purpose])
    assert np.array_equal(got.random_raw(9), want.random_raw(9))
    assert np.array_equal(got.state["state"]["key"], want.state["state"]["key"])


def test_sample_batches_sizes_and_full_batch():
    g_idx, s_idx = sample_batches(239, 80, 10, seed=0, agent=0, round_idx=0)
    assert g_idx.size == 80 and s_idx.size == 10
    assert np.all(np.diff(g_idx) > 0)  # sorted, no repeats
    g_idx, s_idx = sample_batches(30, 30, 30, seed=0, agent=0, round_idx=0)
    assert np.array_equal(g_idx, np.arange(30))
    assert np.array_equal(s_idx, np.arange(30))


def test_sample_batches_deterministic_and_independent():
    a = sample_batches(50, 10, 5, seed=5, agent=2, round_idx=9)
    b = sample_batches(50, 10, 5, seed=5, agent=2, round_idx=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = sample_batches(50, 10, 5, seed=5, agent=2, round_idx=10)
    assert not np.array_equal(a[0], c[0])


def test_sample_batches_inclusion_frequency():
    # Monte Carlo frequency oracle: every index appears with probability G/C.
    C, G, n_draws = 10, 3, 100_000
    idx = draw_batches(n_draws, C, G, seed=11, round_idx=0, purpose=PURPOSE_GRAD)
    assert idx.shape == (n_draws, G)
    freq = np.bincount(idx.ravel(), minlength=C) / n_draws
    p = G / C
    sigma = np.sqrt(p * (1 - p) / n_draws)
    assert np.all(np.abs(freq - p) <= 3 * sigma + 1e-12)


@pytest.mark.parametrize("sizes", [(6, 40), (5, 45)])  # (N, C)
def test_sample_batches_is_a_row_of_the_batched_draw(sizes):
    n, C = sizes
    for round_idx in (0, 7):
        g_all = draw_batches(n, C, 8, 3, round_idx, PURPOSE_GRAD)
        s_all = draw_batches(n, C, 6, 3, round_idx, PURPOSE_HESS)
        for agent in range(n):
            g_idx, s_idx = sample_batches(C, 8, 6, 3, agent, round_idx)
            assert np.array_equal(g_idx, g_all[agent])
            assert np.array_equal(s_idx, s_all[agent])


def test_sample_batches_range_errors():
    with pytest.raises(ParameterError):
        sample_batches(10, 0, 5, seed=0, agent=0, round_idx=0)
    with pytest.raises(ParameterError):
        sample_batches(10, 5, 11, seed=0, agent=0, round_idx=0)
    with pytest.raises(ParameterError, match=r"batch size 21 outside 1\.\.20"):
        draw_positions(3, 20, 21, seed=0, round_idx=0, purpose=PURPOSE_GRAD)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 7),
    C=st.integers(1, 40),
    seed=st.integers(0, 2**63),
    round_idx=st.integers(0, 10**6),
    purpose=st.sampled_from([PURPOSE_GRAD, PURPOSE_HESS]),
    data=st.data(),
)
def test_flat_draw_equals_the_argpartition_draw(n, C, seed, round_idx, purpose, data):
    # The flat draw reads the same keys as integers and takes the same
    # rows in the same order.
    size = data.draw(st.integers(1, C), label="size")
    expected = draw_batches_argpartition(n, C, size, seed, round_idx, purpose)
    flat = draw_positions(n, C, size, seed, round_idx, purpose)
    assert np.array_equal(flat, flat_positions(expected, C))
    assert np.array_equal(draw_batches(n, C, size, seed, round_idx, purpose), expected)


def test_keys_tied_at_the_threshold_fill_the_batch_from_the_lowest_positions(monkeypatch):
    # Agent 0: keys 1 and 3 are below the threshold 7, which four keys
    # share; agent 1: all eight keys tie; agent 2: no tie.
    keys = np.array([[7, 3, 7, 7, 1, 7, 9, 8],
                     [5, 5, 5, 5, 5, 5, 5, 5],
                     [4, 3, 2, 1, 0, 6, 9, 5]], dtype=np.uint64)
    monkeypatch.setattr(optimizer, "_batch_keys", lambda *args: keys.ravel().copy())
    assert np.array_equal(draw_batches(3, 8, 3, 0, 0, PURPOSE_GRAD),
                          [[0, 1, 4], [0, 1, 2], [2, 3, 4]])
    local = stack_sets([np.ones((8, 2))] * 3, [np.ones(8)] * 3, 0.1)
    flat = batch_positions(local, 3, 0, 0, PURPOSE_GRAD)
    assert np.array_equal(flat, [0, 1, 4, 8, 9, 10, 18, 19, 20])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda flat, C: flat[:-1], "drew 8 rows, not 3 x 3"),
        # Agent 0's batch is flat[:3]: -1 would wrap to the last row.
        (lambda flat, C: np.r_[-1, flat[1:]], "drawn index outside a local set"),
        (lambda flat, C: np.r_[flat[:2], C, flat[3:]], "drawn index outside a local set"),
        # Agent 2's batch is flat[6:]: 3 C is past the last row.
        (lambda flat, C: np.r_[flat[:-1], 3 * C], "drawn index outside a local set"),
    ],
    ids=["short", "negative", "next-agent", "past-the-end"],
)
def test_batch_positions_refuses_a_corrupted_draw(corrupt, message, monkeypatch):
    def corrupted(n, C, size, seed, round_idx, purpose):
        return corrupt(draw_positions(n, C, size, seed, round_idx, purpose), C)

    monkeypatch.setattr(optimizer, "draw_positions", corrupted)
    local = stack_sets([np.ones((8, 2))] * 3, [np.ones(8)] * 3, 0.1)
    with pytest.raises(InvariantViolation, match=f"round 4: {message}"):
        batch_positions(local, 3, 0, 4, PURPOSE_GRAD)


# ------------------------------------------------------------- init


def test_init_zeros_mode_gives_zero_disagreement():
    P, local = make_problem()
    state = init_network(P, local, base_config(x0_mode="zeros"))
    assert np.all(state.x == 0.0)
    assert np.all(state.y == 0.0)
    assert np.all(state.q == 0.0)


def test_init_two_agents_disagreement():
    P = laplacian_weights(2, {(0, 1): 1.0})
    lam = 0.5
    feats = np.array([[0.3, 0.1]])
    local = stack_sets([feats, feats], [np.array([1])] * 2, lam)
    state = init_network(P, local, base_config(batch_g=1, batch_s=1))
    e1 = state.x[0] - state.x[1]
    assert np.allclose(state.y[0], e1)
    assert np.allclose(state.y[1], -e1)


def test_init_dual_sum_zero_and_comm_charge():
    P, local = make_problem()
    state = init_network(P, local, base_config())
    assert np.all(state.q == 0.0)
    # run() charges the initial exchange.
    state = run(P, local, base_config(max_iters=0), certified_alphas(P, local))
    assert state.comm_scalars == 2 * P.n_edges * local.dim


def test_init_size_mismatch():
    P, local = make_problem()
    _, C, d = local.shape
    fewer = StackedSets(Csr.from_dense(densify(local.csr)[:-C, :-d]), local.labels[:-1],
                        local.lam[:-1])
    with pytest.raises(ConfigurationError, match="4 local sets for 5 agents"):
        init_network(P, fewer, base_config())


# ------------------------------------------------------------- local step


def test_local_step_zero_rhs_is_fixed_point():
    rng = np.random.default_rng(0)
    d = 4
    x = rng.standard_normal(d)
    h = LowRankHessian(lam=0.3, weights=np.array([0.2]), feats=rng.standard_normal((1, d)))
    g = rng.standard_normal(d)
    # choose q so the right-hand side vanishes
    y = rng.standard_normal(d)
    q = -(g + 1.5 * y)
    out = local_step(x, y, q, h, g, 2.0, beta=1.5)
    assert np.array_equal(out, x)


def test_local_step_scalar_arithmetic():
    h = LowRankHessian(lam=1.0, weights=np.array([0.0]), feats=np.zeros((1, 1)))
    x = np.array([5.0])
    out = local_step(x, np.zeros(1), np.zeros(1), h, np.array([8.0]), 3.0, beta=1.0)
    assert np.allclose(out, np.array([3.0]))  # step of 8 / (1 + 3) = 2


def test_local_step_matches_dense_inverse_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = 6
        A0 = rng.standard_normal((d, d))
        weights = rng.uniform(0.05, 0.3, size=3)
        h = LowRankHessian(lam=0.2, weights=weights, feats=rng.standard_normal((3, d)))
        alpha = 1.7
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        q = rng.standard_normal(d)
        g = rng.standard_normal(d)
        beta = 0.9
        out = local_step(x, y, q, h, g, alpha, beta=beta)
        dense = h.dense() + alpha * np.eye(d)
        expected = x - np.linalg.inv(dense) @ (g + beta * y + q)
        assert np.linalg.norm(out - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected))


def test_local_step_rejects_indefinite_system():
    h = LowRankHessian(lam=0.1, weights=np.array([0.0]), feats=np.zeros((1, 2)))
    with pytest.raises(ConfigurationError) as e:
        local_step(
            np.zeros(2), np.zeros(2), np.zeros(2), h, np.ones(2), -5.0, beta=1.0, agent=3
        )
    assert "agent 3" in str(e.value)


# ------------------------------------------------------------- exchange


def test_exchange_consensus_leaves_duals():
    P, local = make_problem()
    state = init_network(P, local, base_config(x0_mode="zeros"))
    q_before = state.q.copy()
    exchange_and_dual_update(state, P, beta=2.0)
    assert np.all(state.y == 0.0)
    assert np.array_equal(state.q, q_before)


def test_exchange_dual_sum_preserved():
    rng = np.random.default_rng(2)
    P, local = make_problem()
    state = init_network(P, local, base_config())
    state.x = rng.standard_normal(state.x.shape)
    exchange_and_dual_update(state, P, beta=1.3)
    scale = max(np.abs(state.q).max(), 1.0)
    assert np.abs(state.y.sum(axis=0)).max() <= 1e-12 * scale * state.n_agents
    assert np.abs(state.q.sum(axis=0)).max() <= 1e-12 * scale * state.n_agents


def test_exchange_two_agents_antisymmetric_update():
    P = laplacian_weights(2, {(0, 1): 1.0})
    lam = 0.5
    feats = np.array([[0.3, 0.1]])
    local = stack_sets([feats, feats], [np.array([1])] * 2, lam)
    state = init_network(P, local, base_config(batch_g=1, batch_s=1, x0_mode="zeros"))
    v = np.array([0.4, -0.2])
    state.x[0] = v
    state.x[1] = 0.0
    beta = 1.7
    exchange_and_dual_update(state, P, beta)
    assert np.allclose(state.q[0], beta * v)
    assert np.allclose(state.q[1], -beta * v)


def test_exchange_communication_accounting():
    P, local = make_problem()
    d = local.dim
    cfg = base_config(max_iters=7)
    state = run(P, local, cfg, certified_alphas(P, local))
    per_round = 2 * P.n_edges * d
    assert state.comm_scalars == 7 * per_round + per_round


# ------------------------------------------------------------- full runs


def test_run_deterministic_per_seed():
    P, local = make_problem()
    alphas = certified_alphas(P, local)
    s1 = run(P, local, base_config(max_iters=20, seed=13), alphas)
    s2 = run(P, local, base_config(max_iters=20, seed=13), alphas)
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.q, s2.q)
    s3 = run(P, local, base_config(max_iters=20, seed=14), alphas)
    assert not np.array_equal(s1.x, s3.x)


def test_full_batch_stochastic_equals_deterministic():
    P, local = make_problem()
    C = local.shape[1]
    alphas = certified_alphas(P, local)
    hist = {"st": [], "so": []}
    run(P, local, base_config(batch_g=C, batch_s=C, max_iters=15, algorithm="st_sopro"),
        alphas, callbacks=[lambda k, s: hist["st"].append(s.x.copy())])
    run(P, local, base_config(batch_g=C, batch_s=C, max_iters=15, algorithm="sopro"),
        alphas, callbacks=[lambda k, s: hist["so"].append(s.x.copy())])
    for a, b in zip(hist["st"], hist["so"]):
        assert np.array_equal(a, b)


def test_dual_conservation_over_long_run():
    P, local = make_problem()
    cfg = base_config(max_iters=2000, batch_g=5, batch_s=5)
    scales = []
    drifts = []

    def watch(k, state):
        scales.append(np.linalg.norm(state.q))
        drifts.append(float(np.abs(state.q.sum(axis=0)).max()))

    run(P, local, cfg, certified_alphas(P, local), callbacks=[watch])
    assert max(drifts) <= 1e-10 * max(max(scales), 1.0)


def test_fixed_point_of_full_batch_dynamics():
    P, local = make_problem()
    ref = solve_reference(local, tol=1e-12)
    n = P.n_agents
    cfg = base_config(batch_g=50, batch_s=50, max_iters=5, x0_mode="zeros")
    alphas = certified_alphas(P, local)
    state = init_network(P, local, cfg)
    state.x[:] = ref.x
    views = agent_datasets(local)
    state.q[:] = np.stack([-full_grad(ref.x, ds) for ds in views])
    state.y = P.disagreement(state.x)
    moves = []

    def watch(k, s):
        moves.append(float(np.abs(s.x - ref.x[None, :]).max()))

    # drive the already-initialized state manually through rounds
    from soprolab.loss import batch_grad, batch_hess

    for k in range(5):
        for i in range(n):
            g_idx = np.arange(50)
            g = batch_grad(state.x[i], views[i], g_idx)
            h = batch_hess(state.x[i], views[i], g_idx)
            state.x[i] = local_step(
                state.x[i], state.y[i], state.q[i], h, g,
                alphas[i], cfg.beta, agent=i,
            )
        exchange_and_dual_update(state, P, cfg.beta)
        watch(k, state)
    assert max(moves) <= 1e-12


def test_h_plus_d_stays_positive_definite():
    P, local = make_problem()
    bounds = SmoothnessBounds.from_sets(local)
    alphas = certified_alphas(P, local)
    rng = np.random.default_rng(0)
    from soprolab.loss import batch_hess

    views = agent_datasets(local)
    for _ in range(100):
        i = int(rng.integers(0, P.n_agents))
        x = rng.standard_normal(views[i].dim) * rng.choice((0.1, 1.0, 5.0))
        s_idx = np.sort(rng.choice(50, 3, replace=False))
        H = batch_hess(x, views[i], s_idx).dense() + alphas[i] * np.eye(views[i].dim)
        assert np.linalg.eigvalsh(H)[0] >= alphas[i] + bounds.m[i] - 1e-10


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        base_config(algorithm="nope").validate(50)
    with pytest.raises(ConfigurationError):
        base_config(beta=-1.0).validate(50)
    base_config().validate(50)
    with pytest.raises(ConfigurationError):
        base_config(batch_g=100).validate(n_samples=50)
    rounds = []
    with pytest.raises(ConfigurationError, match="'dsgd' takes no alphas"):
        run(*make_problem()[:2], base_config(algorithm="dsgd", step_size=0.5), np.ones(5),
            callbacks=[lambda k, s: rounds.append(k)])
    assert rounds == []


@pytest.mark.parametrize(
    "alphas, message",
    [
        (np.ones(4), r"alphas must have shape \(5,\), got \(4,\)"),
        (np.ones((5, 1)), r"alphas must have shape \(5,\), got \(5, 1\)"),
        (3.0, r"alphas must have shape \(5,\), got \(\)"),
        (np.array([1.0, 1.0, np.nan, 1.0, 1.0]), "alphas must be finite"),
        (np.full(5, np.inf), "alphas must be finite"),
        (None, r"alphas must have shape \(5,\), got None"),
    ],
    ids=["short", "column", "scalar", "nan", "inf", "none"],
)
def test_run_rejects_alphas_that_are_not_a_finite_vector_per_agent(alphas, message):
    P, local = make_problem()
    rounds = []
    with pytest.raises(ConfigurationError, match=message):
        run(P, local, base_config(), alphas, callbacks=[lambda k, s: rounds.append(k)])
    assert rounds == []
