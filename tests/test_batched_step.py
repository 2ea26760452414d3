import math
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    agent_batch_stats, agent_datasets, block_of, certified_alphas, choice_by_counts, count_to,
    csr_rows, dense_block, dense_step_stacked, densify, draw_batches, flat_positions,
    one_hot_block, rel_err, stack_sets, whole_set_history,
)
from soprolab import baselines, optimizer, topology
from soprolab.baselines import dsgd_round, dsgt_round, metropolis_matrix
from soprolab.certificate import QNormError
from soprolab.errors import ConfigurationError, DivergenceError, InvariantViolation
from soprolab.harness.metrics import optimality_error
from soprolab.harness.reference import solve_reference
from soprolab.harness.synthetic import gaussian_blob_samples
from soprolab.loss import (
    LowRankHessian,
    SmoothnessBounds,
    StackedSets,
    partition,
    sets_grad,
)
from soprolab.optimizer import (
    PURPOSE_GRAD,
    PURPOSE_HESS,
    RunConfig,
    batch_positions,
    draw_positions,
    gram_step,
    init_network,
    local_step,
    row_step,
    run,
)
from soprolab.sparse import Csr
from soprolab.topology import build_random_connected_graph


def rho_bound(feats, c):
    """The engine's bound on every ``||B_i^T B_i|| / c_i``: a quarter of the
    largest squared row norm over the shift, at the worst agent."""
    return float(np.max(0.25 * np.einsum("nsd,nsd->ns", feats, feats).max(axis=1) / c))


# Neumann series targets: each oracle test scales its rows until the
# bound is each of these, then steps with the term count the engine runs
# below its bound on rho, which 0.3 is past.
SERIES_RHOS = (1e-6, 1e-3, 0.3)


def run_terms(rho):
    """The series' term count at ``rho < 1``: the least ``k`` with ``(1 +
    rho) rho^(k+1) <= CG_TOL``, as :func:`optimizer._series_terms` gives
    it below ``SERIES_BELOW``."""
    return count_to(rho, optimizer.CG_TOL / (1.0 + rho))


def tight_first_agent(feats, weights):
    """Copies in which agent 0 repeats its longest row at the largest
    curvature weight ``1 / (4 S)``: its ``||B^T B||`` then equals the bound,
    so the series' error there is as large as the bound allows."""
    feats, weights = feats.copy(), weights.copy()
    feats[0] = feats[0, np.argmax(np.einsum("sd,sd->s", feats[0], feats[0]))]
    weights[0] = 0.25 / weights.shape[1]
    return feats, weights


# ------------------------------------------------------------- batched step


def rows(F):
    """The ``(N, S, d)`` rows ``F`` as a batch for ``row_step``: the
    ``(N S, N d)`` block-diagonal operator of local sets in which every
    row is a sample."""
    n, S, _ = F.shape
    return stack_sets(F, np.ones((n, S)), 1.0).csr


# S < d ("woodbury") and S >= d ("dense"): CG at rho >= 1 and the series
# at rho < 1 take the same products for both.
@pytest.mark.parametrize("S", [6, 20], ids=["woodbury", "dense"])
def test_row_step_matches_dense_inverse_oracle(S):
    rng = np.random.default_rng(S)
    n, d, lam = 7, 15, 0.1
    alphas = np.geomspace(0.5, 800.0, n)
    weights = rng.uniform(0.0, 0.25, (n, S)) / S
    feats = (rng.random((n, S, d)) < 0.3).astype(float)
    x = rng.standard_normal((n, d))
    rhs = rng.standard_normal((n, d))
    expected = np.empty((n, d))
    for i in range(n):
        h = LowRankHessian(lam=lam, weights=weights[i], feats=feats[i])
        expected[i] = x[i] - np.linalg.inv(h.dense() + alphas[i] * np.eye(d)) @ rhs[i]

    def step(F, w, c, solve, terms):
        """``row_step`` on ``F`` and ``w``, which it must leave as they were."""
        F_in, w_in = F.copy(), w.copy()
        out = row_step(x, rhs, rows(F), w.ravel(), c, solve, terms)
        assert np.array_equal(F, F_in) and np.array_equal(w, w_in)
        return out

    # Trailing zero rows, at any weight, add nothing.
    def with_zero_rows(F, w):
        return (np.concatenate([F, np.zeros((n, 3, d))], axis=1),
                np.concatenate([w, np.ones((n, 3))], axis=1))

    c = lam + alphas
    rho = rho_bound(feats, c)
    assert rho >= 1.0
    iterations = optimizer._cg_iterations(rho)
    for F, w in ((feats, weights), with_zero_rows(feats, weights)):
        out = step(F, w, c, "cg", iterations)
        oracle = dense_step_stacked(x, rhs, F, w, c)
        for i in range(n):
            assert rel_err(out[i], expected[i]) <= 1e-10
            assert rel_err(out[i], oracle[i]) <= 1e-10

    feats, weights = tight_first_agent(feats, weights)
    assert rho_bound(feats[:1], c[:1]) == rho_bound(feats, c)
    for rho in SERIES_RHOS:
        Fs = feats * np.sqrt(rho / rho_bound(feats, c))
        terms = run_terms(rho)
        for F, w in ((Fs, weights), with_zero_rows(Fs, weights)):
            out = step(F, w, c, "series", terms)
            for i in range(n):
                A = Fs[i].T @ (weights[i, :, None] * Fs[i]) + c[i] * np.eye(d)
                assert rel_err(out[i], x[i] - np.linalg.inv(A) @ rhs[i]) <= 1e-12


@pytest.mark.parametrize("rho", SERIES_RHOS)
def test_the_series_runs_to_cg_tolerance_and_no_further(rho):
    # Agent 0's right-hand side lies along its one curvature direction,
    # whose eigenvalue is the bound rho c_0: there the series' residual and
    # relative error after k terms are both rho^(k+1), the most the bound
    # allows.  The count the engine runs takes both to CG_TOL against the
    # dense solve; one term fewer has a bound above it.
    rng = np.random.default_rng(3)
    n, S, d = 4, 20, 15
    feats, weights = tight_first_agent(rng.standard_normal((n, S, d)),
                                       rng.uniform(0.0, 0.25, (n, S)) / S)
    c = np.geomspace(0.5, 2.0, n)
    feats *= np.sqrt(rho / rho_bound(feats, c))
    rhs = rng.standard_normal((n, d))
    rhs[0] = feats[0, 0]
    terms = run_terms(rho)
    s = -row_step(np.zeros((n, d)), rhs, rows(feats), weights.ravel(), c, "series", terms)
    for i in range(n):
        A = feats[i].T @ (weights[i, :, None] * feats[i]) + c[i] * np.eye(d)
        assert rel_err(s[i], np.linalg.solve(A, rhs[i])) <= optimizer.CG_TOL
        assert rel_err(A @ s[i], rhs[i]) <= optimizer.CG_TOL
    assert rel_err(s[0], rhs[0] / (c[0] * (1.0 + rho))) == pytest.approx(
        rho ** (terms + 1), rel=0.01, abs=1e-15)
    assert (1.0 + rho) * rho ** (terms + 1) <= optimizer.CG_TOL
    assert (1.0 + rho) * rho**terms > optimizer.CG_TOL


def definite_small_systems(n, S, d):
    """Rows ``2 e_j``: every ``c I_S + B B^T`` is ``(4 + c) I_S``, positive
    definite for ``c > -4``, yet with ``S < d`` the system ``c I + B^T B``
    has the eigenvalue ``c`` on the ``d - S`` directions the rows do not
    reach."""
    F = np.zeros((n, S, d))
    F[:, np.arange(S), np.arange(S)] = 2.0
    return F


@pytest.mark.parametrize(
    "F, c",
    [
        (np.ones((4, 2, 5)), [1.0, 2.0, 0.0, -1.0]),  # S < d
        (definite_small_systems(4, 2, 5), [1.0, 1.0, -1.0, 1.0]),
        (np.ones((4, 6, 5)), [1.0, 2.0, 0.0, -1.0]),  # S >= d
    ],
    ids=["woodbury", "woodbury-definite-small-system", "dense"],
)
@pytest.mark.parametrize("solve, terms", [("cg", 8), ("series", 2)], ids=["cg", "series"])
def test_row_step_rejects_nonpositive_shift(F, c, solve, terms):
    n, S, d = F.shape
    with pytest.raises(ConfigurationError) as e:
        row_step(np.zeros((n, d)), np.ones((n, d)), rows(F), np.ones(n * S), np.array(c),
                 solve, terms)
    assert "agent 2" in str(e.value)


def test_gram_step_matches_dense_inverse_oracle():
    # A round at rho >= 1 hands its solve the right-hand sides, the
    # operator of the Hessian batch rows and their curvature weights.  The
    # Gram step and the CG row step, given the same (rhs, batch, w), must
    # each apply every (c_i I + F_i^T diag(w_i) F_i)^{-1} to rhs_i, where w
    # is zero off the batch.
    rng = np.random.default_rng(8)
    n, C, d, lam = 5, 12, 14, 0.1
    feats = (rng.random((n, C, d)) < 0.3).astype(float)
    local = stack_sets(feats, rng.choice((-1, 1), (n, C)), lam)
    c = lam + np.geomspace(0.5, 800.0, n)
    x, rhs = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    block = block_of(local)
    gram = block @ block.transpose(0, 2, 1)
    iterations = optimizer._cg_iterations(rho_bound(feats, c))
    # A drawn batch, and the whole sets given as positions.
    for s_idx in (draw_batches(n, C, 4, 3, 0, PURPOSE_HESS), np.tile(np.arange(C), (n, 1))):
        w = rng.uniform(0.0, 0.25 / s_idx.shape[1], (n, C))  # the logistic weights' range
        s_flat = flat_positions(s_idx, C)
        on_batch = np.zeros(n * C, dtype=bool)
        on_batch[s_flat] = True
        w[~on_batch.reshape(n, C)] = 0.0
        batch, w_batch = local.csr.take(s_flat), w.ravel()[s_flat]
        w_in = w_batch.copy()
        for out in (gram_step(x, rhs, batch, w_batch, c, gram, s_flat),
                    row_step(x, rhs, batch, w_batch, c, "cg", iterations)):
            assert np.array_equal(w_batch, w_in)
            for i in range(n):
                A = feats[i].T @ (w[i, :, None] * feats[i]) + c[i] * np.eye(d)
                assert rel_err(out[i], x[i] - np.linalg.inv(A) @ rhs[i]) <= 1e-12


def test_gram_step_rejects_nonpositive_shift_with_definite_small_systems():
    # Orthogonal rows of norm 2 at the curvature weight 1 / (4 S) of x = 0:
    # every c I_S + B B^T is (0.2 + c) I_S, positive definite for these c,
    # yet c I + B^T B has the eigenvalue c on the d - S directions the rows
    # do not reach.
    n, S, d = 4, 5, 8
    local = stack_sets([2.0 * np.eye(S, d)] * n, [np.ones(S)] * n, 0.1)
    block = block_of(local)
    gram = block @ block.transpose(0, 2, 1)
    c = np.array([1.0, 2.0, 0.0, -0.1])
    with pytest.raises(ConfigurationError) as e:
        gram_step(np.zeros((n, d)), np.ones((n, d)), local.csr, np.full(n * S, 0.25 / S), c,
                  gram, np.arange(n * S))
    assert "agent 2" in str(e.value)


def test_cholesky_solve_factors_and_solves_in_place():
    rng = np.random.default_rng(6)
    n, d = 5, 9
    R = rng.standard_normal((n, d, d))
    A = R @ R.transpose(0, 2, 1) / d + np.eye(d)
    b = rng.standard_normal((n, d))
    A0, b0 = A.copy(), b.copy()
    out = optimizer._cholesky_solve(A, b)
    assert np.shares_memory(out, b)
    for i in range(n):
        assert rel_err(out[i], np.linalg.solve(A0[i], b0[i])) <= 1e-10
        # The upper triangle of A[i] now holds the transposed Cholesky factor.
        assert rel_err(np.triu(A[i]), np.linalg.cholesky(A0[i]).T) <= 1e-12


# With S >= d the curvature can make c_i I + B_i^T B_i definite on its
# own, yet a shift that is not positive is refused.


def test_row_step_refuses_a_negative_shift_that_leaves_the_system_definite():
    rng = np.random.default_rng(7)
    n, S, d = 4, 20, 6
    B = rng.standard_normal((n, S, d))
    H = B.transpose(0, 2, 1) @ B
    c = np.ones(n)
    c[2] = -0.5 * np.linalg.eigvalsh(H[2])[0]
    assert np.all(np.linalg.eigvalsh(H[2] + c[2] * np.eye(d)) > 0)
    for solve, terms in (("cg", 8), ("series", 2)):
        with pytest.raises(ConfigurationError, match="agent 2: the shift"):
            row_step(np.zeros((n, d)), np.ones((n, d)), rows(B), np.ones(n * S), c,
                     solve, terms)


def test_dense_step_names_the_last_agent_when_only_its_system_is_indefinite():
    n, S, d = 4, 6, 5
    B = np.zeros((n, S, d))
    c = np.array([1.0, 2.0, 3.0, -1.0])
    with pytest.raises(ConfigurationError) as e:
        row_step(np.zeros((n, d)), np.ones((n, d)), rows(B), np.ones(n * S), c, "cg", 4)
    assert f"agent {n - 1}" in str(e.value)


def test_cg_passes_a_non_finite_right_hand_side_to_the_iterate(monkeypatch):
    # An agent whose right-hand side is NaN or inf must not count as
    # converged: its step is NaN, and the run raises a divergence.  The
    # other agents' right-hand sides are zero, so they are converged from
    # the start and only the non-finite one can keep CG going.
    rng = np.random.default_rng(3)
    n, S, d = 4, 6, 5
    F = rng.standard_normal((n, S, d))
    w = np.full((n, S), 0.25)
    x = rng.standard_normal((n, d))
    c = np.full(n, 0.1)
    for bad in (np.nan, np.inf):
        rhs = np.zeros((n, d))
        rhs[2, 1] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            out = row_step(x, rhs, rows(F), w.ravel(), c, "cg",
                           optimizer._cg_iterations(rho_bound(F, c)))
        assert np.isnan(out[2]).all()
        assert np.array_equal(out[[0, 1, 3]], x[[0, 1, 3]])

    def poisoned(*args):
        grads = real_grad(*args)
        if len(calls) == 2:
            grads[3, 0] = np.nan
        calls.append(1)
        return grads

    calls, real_grad = [], optimizer.sets_grad
    monkeypatch.setattr(optimizer, "sets_grad", poisoned)
    P, local = make_problem(6, 40, 15)
    config = RunConfig(batch_g=10, batch_s=5, max_iters=5, seed=0)
    assert optimizer.proximal_engine(local, config, factorising_alphas(local)).solve == "cg"
    with pytest.raises(DivergenceError, match="round 3: agent 3 "):
        run(P, local, config, factorising_alphas(local))
    assert len(calls) == 3


# ------------------------------------------------------------- full runs


def make_problem(n, C, d, seed=0, lam=0.1, sparse=False):
    """A network of ``n`` agents and Gaussian local sets of ``C`` rows;
    ``sparse`` zeroes about two thirds of the entries, so the operator
    stores a third."""
    P = build_random_connected_graph(n, 2.0, seed=seed)
    feats, labels = gaussian_blob_samples(n * C, d, seed, separation=1.0, noise=0.5)
    if sparse:
        feats[np.random.default_rng(seed).random(feats.shape) >= 0.35] = 0.0
    return P, stack_sets(np.split(feats, n), np.split(labels, n), lam)


def factorising_alphas(local):
    """Positive alphas whose shifts put the engine's bound at rho = 2, so
    that a run factors on the Gram path and takes CG on the row path."""
    return np.full(len(local.lam), 0.125 * local.row_sq.max()) - local.lam


def neighbor_disagreement(P, x):
    y = np.zeros_like(x)
    for i, j in P.edges:
        w = -P.matrix[i, j]
        y[i] += w * (x[i] - x[j])
        y[j] += w * (x[j] - x[i])
    return y


def reference_run(P, local, config, alphas):
    """Per-agent rounds: fresh substreams, dense Cholesky steps, neighbor sums."""
    state = init_network(P, local, config)
    state.y = neighbor_disagreement(P, state.x)
    G, S = config.batches(local.shape[1])
    history = [(state.x.copy(), state.q.copy())]
    for k in range(config.max_iters):
        for i, ds in enumerate(agent_datasets(local)):
            g, h = agent_batch_stats(state.x[i], ds, G, S, config.seed, i, k)
            state.x[i] = local_step(
                state.x[i], state.y[i], state.q[i], h, g, alphas[i], config.beta,
                agent=i,
            )
        state.y = neighbor_disagreement(P, state.x)
        state.q = state.q + config.beta * state.y
        history.append((state.x.copy(), state.q.copy()))
    return history


def engine_history(P, local, config, alphas, monkeypatch, path, solve):
    """The engine's iterates and duals after every round; each round must
    form its right-hand sides by one ``sets_grad``, whichever the path, and
    make one batched step along ``path`` ("row" or "gram"), solved by
    ``solve``: by Cholesky rather than by a general LU solve, or by one
    Neumann series or one CG solve."""
    calls = {"grad": 0, "row": 0, "gram": 0, "local": 0, "lu": 0, "series": 0, "cg": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(optimizer, "sets_grad", counted("grad", sets_grad))
    monkeypatch.setattr(optimizer, "row_step", counted("row", row_step))
    monkeypatch.setattr(optimizer, "gram_step", counted("gram", gram_step))
    monkeypatch.setattr(optimizer, "local_step", counted("local", local_step))
    monkeypatch.setattr(np.linalg, "solve", counted("lu", np.linalg.solve))
    monkeypatch.setattr(optimizer, "_series_solve", counted("series", optimizer._series_solve))
    monkeypatch.setattr(optimizer, "_cg_solve", counted("cg", optimizer._cg_solve))
    history = []
    run(P, local, config, alphas,
        callbacks=[lambda k, s: history.append((s.x.copy(), s.q.copy()))])
    expected = {"grad": 0, "row": 0, "gram": 0, "local": 0, "lu": 0, "series": 0, "cg": 0}
    expected["grad"] = expected[path] = config.max_iters
    if solve != "cholesky":
        expected[solve] = config.max_iters
    assert calls == expected
    return history


def low_rank_path(S, C, d):
    """The step a run takes at rho >= 1: Gram when the Hessian batch has
    fewer rows than the local sets and they no more than d, else the row
    step.  At rho < 1 every run takes the row step."""
    return "gram" if S < C <= d else "row"


# The solve each path takes at rho >= 1.
FACTORISING_SOLVE = {"row": "cg", "gram": "cholesky"}


def assert_histories_match(got, want):
    assert len(got) == len(want)
    for (x, q), (x_ref, q_ref) in zip(got, want):
        assert rel_err(x, x_ref) <= 1e-10
        assert rel_err(q, q_ref) <= 1e-10


# (algorithm, S, d, whether S < d); every local set has C = 40 rows.
RUN_SHAPES = [
    ("st_sopro", 5, 15, True),  # S < d < C = 40: rows
    ("st_sopro", 20, 15, False),  # S >= d: rows
    ("st_sopro", 5, 60, True),  # S < C = 40 <= d: Gram at rho >= 1
    ("sopro", None, 60, True),  # full batch, S = C = 40 < d: rows
    ("sopro", None, 15, False),  # full batch, C = 40 >= d: rows
]


# Certified alphas take the Neumann series on the row path for every
# shape; alphas at rho = 2 (ids ending in "-cholesky") factor on the Gram
# path and take CG on the row path.  The same runs on sparse rows (ids
# ending in "-csr"), whose operator stores about a third of the entries,
# must match the per-agent reference too.
@pytest.mark.parametrize(
    "algorithm, batch_s, d, low_rank, certified, sparse",
    [pytest.param(*shape, certified, sparse,
                  id="-".join(map(str, shape)) + suffix + ("-csr" if sparse else ""))
     for sparse in (False, True)
     for certified, suffix in ((True, ""), (False, "-cholesky"))
     for shape in RUN_SHAPES],
)
def test_run_matches_per_agent_reference(
    algorithm, batch_s, d, low_rank, certified, sparse, monkeypatch
):
    P, local = make_problem(6, 40, d, sparse=sparse)
    config = RunConfig(
        batch_g=10, batch_s=batch_s or 40, max_iters=20, seed=5, algorithm=algorithm
    )
    assert low_rank == (config.batches(40)[1] < d)
    if certified:
        alphas, path, solve = certified_alphas(P, local), "row", "series"
    else:
        alphas, path = factorising_alphas(local), low_rank_path(config.batches(40)[1], 40, d)
        solve = FACTORISING_SOLVE[path]
    assert optimizer.proximal_engine(local, config, alphas).solve == solve
    want = reference_run(P, local, config, alphas)
    got = engine_history(P, local, config, alphas, monkeypatch, path, solve)
    assert_histories_match(got, want)


@pytest.mark.parametrize(
    "algorithm, batch_s, d, solve",
    [("st_sopro", 6, 30, "cholesky"), ("st_sopro", 6, 29, "cg"), ("sopro", 6, 30, "cg"),
     ("st_sopro", 30, 30, "cg")],
    ids=["C=d", "C=d+1", "sopro-C=d", "S=C=d"],
)
def test_the_gram_step_takes_local_sets_of_at_most_d_rows(algorithm, batch_s, d, solve,
                                                          monkeypatch):
    # At rho = 2 with S = 6 < d, St-SoPro's Gram step factors while the
    # local sets have at most d rows (C = 30); at one row more, CG takes
    # the row step.  Whole-set batches (S = C, SoPro's always) take CG at
    # C <= d too.  Either matches the per-agent reference.
    P, local = make_problem(5, 30, d, seed=1)
    config = RunConfig(batch_g=8, batch_s=batch_s, max_iters=5, seed=2, algorithm=algorithm)
    alphas = factorising_alphas(local)
    assert optimizer.proximal_engine(local, config, alphas).solve == solve
    want = reference_run(P, local, config, alphas)
    path = low_rank_path(config.batches(30)[1], 30, d)
    got = engine_history(P, local, config, alphas, monkeypatch, path, solve)
    assert_histories_match(got, want)


def one_hot_rows(rows, attributes, columns, seed):
    """``rows`` one-hot rows as a :class:`Csr`, each encoding
    ``attributes`` categories over ``columns`` binary columns, and +-1
    labels."""
    rng = np.random.default_rng(seed)
    edges = np.linspace(0, columns, attributes + 1).astype(int)
    cols = edges[:-1] + (rng.random((rows, attributes)) * np.diff(edges)).astype(int)
    dense = np.zeros((rows, columns))
    np.put_along_axis(dense, cols, 1.0, axis=1)
    return csr_rows(dense, rng.choice((-1, 1), rows))


# (algorithm, columns, batch_s, alphas, the solve the run takes).  Three
# attributes a row: density 1/4 at 12 columns, 3/40 at 40.  A key names
# the algorithm, the step its shape takes at rho >= 1, and the alphas:
# certified ("series") or at rho = 2 ("cholesky", where the row step
# takes CG).
ONE_HOT_RUNS = {
    "st_sopro-row-series": ("st_sopro", 12, 8, "certified", "series"),  # S < d < C
    "sopro-row-series": ("sopro", 12, None, "certified", "series"),
    "st_sopro-gram-series": ("st_sopro", 40, 8, "certified", "series"),  # S < C <= d
    "st_sopro-row-cholesky": ("st_sopro", 12, 8, "factorising", "cg"),
    "st_sopro-gram-cholesky": ("st_sopro", 40, 8, "factorising", "cholesky"),
    "dsgd": ("dsgd", 12, 8, None, None),
    "dsgt": ("dsgt", 12, 8, None, None),
}


@pytest.mark.parametrize("case", list(ONE_HOT_RUNS))
def test_csr_rounds_match_dense_rounds_on_one_hot_sets(case):
    # The rounds through the operator against the same rounds through the
    # dense block of the rows (oracles.DenseBlockSets), which gives the
    # margins and the gradients; both solve on rows gathered from the
    # operator.
    algorithm, columns, batch_s, alpha_mode, solve = ONE_HOT_RUNS[case]
    n, count = 6, 30
    rows, labels = one_hot_rows(n * count + 20, 3, columns, seed=columns)
    sparse, _ = partition((rows, labels), n, count, seed=4, lambda_reg=0.05)
    chosen = np.random.default_rng(4).permutation(n * count + 20)[: n * count]
    dense = dense_block(sparse, densify(rows)[chosen].reshape(n, count, columns))
    P = build_random_connected_graph(n, 2.0, seed=0)
    config = RunConfig(batch_g=10, batch_s=batch_s or count, max_iters=30, seed=9,
                       algorithm=algorithm, step_size=0.5)
    alphas = {"certified": certified_alphas(P, dense), "factorising": factorising_alphas(dense),
              None: None}[alpha_mode]
    if solve is not None:
        assert optimizer.proximal_engine(sparse, config, alphas).solve == solve
    ref = solve_reference(dense)
    q_err = QNormError(P, np.full(n, 2.0), 1.0, ref.x, -ref.local_grads)
    histories = []
    for local in (sparse, dense):
        history = []
        run(P, local, config, alphas,
            callbacks=[lambda k, s: history.append((s.x.copy(), s.q.copy()))])
        histories.append(history)
    assert_histories_match(*histories)
    for (x, q), (x_dense, q_dense) in zip(*histories):
        for got, want in ((optimality_error(x, ref.x), optimality_error(x_dense, ref.x)),
                          (q_err(x, q), q_err(x_dense, q_dense))):
            assert abs(got - want) <= 1e-10 * abs(want)


def spy_on_operators(monkeypatch, log):
    """Append ``(name, operator, result)`` to ``log`` for every product of a
    :class:`Csr` and of its transpose and every row gather, and
    ``("__post_init__", operator, None)`` for every run of the constructor's
    checks."""
    def spy(name):
        real = getattr(Csr, name)

        def wrapper(self, *arg):
            out = real(self, *arg)
            log.append((name, self, out))
            return out

        return wrapper

    for name in ("__matmul__", "rmatvec", "take", "__post_init__"):
        monkeypatch.setattr(Csr, name, spy(name))


def constructor_checks(calls):
    """How many of the logged ``calls`` ran the constructor's checks."""
    return sum(name == "__post_init__" for name, _, _ in calls)


@pytest.mark.parametrize("sets", ["dense", "csr"])
@pytest.mark.parametrize("algorithm", ["sopro", "st_sopro"])  # row step, S >= d
def test_row_rounds_read_batches_through_matvec(algorithm, sets, monkeypatch):
    # At G, S < C a round reads only its batches' rows, of dense or sparse
    # sets: it gathers the gradient batch's rows, makes one product of them
    # for the margins and one of the transpose for the gradient, then
    # gathers the Hessian batch's rows and makes one product of them for
    # the curvature margins.  It makes no product of the local sets'
    # operator.  At S = C (SoPro) nothing is gathered: one product of the
    # operator and one of its transpose serve the margins and the gradient.
    # Each term of the series, or each CG iteration, then makes one product
    # of the Hessian batch's operator and one of its transpose.  No round
    # runs the constructor's checks: a gather's rows hold them by
    # construction.
    n, C, d = 6, 40, 15
    P, local = make_problem(n, C, d, sparse=sets == "csr")
    config = RunConfig(batch_g=10, batch_s=20, max_iters=3, seed=1, algorithm=algorithm)
    G, S = config.batches(C)
    log = []
    spy_on_operators(monkeypatch, log)
    for solve, alphas in (("cg", factorising_alphas(local)),
                          ("series", certified_alphas(P, local))):
        engine = optimizer.proximal_engine(local, config, alphas)
        assert engine.solve == solve
        log.clear()
        run(P, local, config, alphas, callbacks=[lambda k, s: log.append(("round", k, None))])
        # The calls of each round, between the callbacks of two rounds.
        marks = [i for i, (name, _, _) in enumerate(log) if name == "round"]
        assert len(marks) == config.max_iters + 1
        for a, b in zip(marks, marks[1:]):
            calls = log[a + 1 : b]
            assert constructor_checks(calls) == 0
            if S < C:
                (take_g, source_g, grad_batch), *calls = calls
                assert take_g == "take" and source_g is local.csr
                assert grad_batch.shape == (n * G, n * d)
                assert [(name, op) for name, op, _ in calls[:2]] == [
                    ("__matmul__", grad_batch), ("rmatvec", grad_batch)
                ]
                (take_s, source_s, batch), (margins, op_m, _), *rest = calls[2:]
                assert take_s == "take" and source_s is local.csr
                assert batch.shape == (n * S, n * d)
                assert margins == "__matmul__" and op_m is batch
            else:
                (margins, op_m, _), (grad, op_g, _), *rest = calls
                assert (margins, grad) == ("__matmul__", "rmatvec")
                assert op_m is local.csr and op_g is local.csr
                batch = local.csr
            assert [name for name, _, _ in rest] == ["__matmul__", "rmatvec"] * (len(rest) // 2)
            assert all(op is batch for _, op, _ in rest)
            # CG may stop before its cap.
            passes = len(rest) // 2
            if solve == "series":
                assert passes == engine.terms
            else:
                assert 1 <= passes <= engine.terms

    # No gathered operator outlives its use: each is dead before the next
    # gather, the gradient batch's before the Hessian batch's.
    monkeypatch.undo()
    taken, real_take = [], Csr.take

    def take(self, rows):
        assert all(ref() is None for ref in taken)
        out = real_take(self, rows)
        taken.append(weakref.ref(out))
        return out

    monkeypatch.setattr(Csr, "take", take)
    run(P, local, config, certified_alphas(P, local))
    assert len(taken) == (2 * config.max_iters if S < C else 0)


@pytest.mark.parametrize("G", [10, 40], ids=["sampled", "whole"])
@pytest.mark.parametrize("algorithm", ["dsgd", "dsgt"])
def test_baseline_rounds_read_only_their_gradient_batch(algorithm, G, monkeypatch):
    # At G < C a round gathers its gradient batch's rows once from the
    # local sets' operator and makes one product of the gathered operator,
    # for the margins, and one of its transpose, for the gradient: no
    # product reads the whole sets.  At G = C nothing is gathered, and the
    # two products are of the operator itself.  No round runs the
    # constructor's checks.
    n, C, d = 6, 40, 15
    P, local = make_problem(n, C, d, sparse=True)
    config = RunConfig(batch_g=G, batch_s=G, max_iters=3, seed=1, algorithm=algorithm,
                       step_size=0.5)
    log = []
    spy_on_operators(monkeypatch, log)
    run(P, local, config, callbacks=[lambda k, s: log.append(("round", k, None))])
    marks = [i for i, (name, _, _) in enumerate(log) if name == "round"]
    assert len(marks) == config.max_iters + 1
    for a, b in zip(marks, marks[1:]):
        calls = log[a + 1 : b]
        assert constructor_checks(calls) == 0
        if G < C:
            (gather, source, batch), *products = calls
            assert gather == "take" and source is local.csr
            assert batch.shape == (n * G, n * d)
        else:
            batch, products = local.csr, calls
        assert [(name, op) for name, op, _ in products] == [
            ("__matmul__", batch), ("rmatvec", batch)
        ]


@st.composite
def batch_problems(draw, solve, rows, batch):
    """``(P, local, config, alphas)`` whose run takes ``solve``, on local
    sets of ``rows`` ("dense": Gaussian entries of either sign; "one_hot":
    up to three of ``d`` columns set in every row) with a Hessian batch of
    one row (``batch`` "one"), of more than one and fewer than all
    ("some") or of the whole set ("all")."""
    n = draw(st.integers(2, 5))
    C = draw(st.integers(3, 12))
    S = {"one": 1, "some": draw(st.integers(2, C - 1)), "all": C}[batch]
    if solve == "cholesky":  # S < C <= d
        d = draw(st.integers(C, 16))
    elif solve == "cg" and S < C:  # d < C keeps it off the Gram step
        d = draw(st.integers(2, C - 1))
    else:
        d = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if rows == "dense":
        feats = rng.standard_normal((n, C, d))
    else:
        feats = one_hot_block(rng, n, C, d)
    local = stack_sets(feats, rng.choice((-1.0, 1.0), (n, C)), 0.1)
    P = build_random_connected_graph(n, min(2.0, n - 1.0), seed=draw(st.integers(0, 99)))
    # The series at rho < 1; CG or the Gram step at rho = 2.
    rho = draw(st.floats(1e-6, 0.1)) if solve == "series" else 2.0
    alphas = np.full(n, local.curvature_bound.max() / rho) - local.lam
    config = RunConfig(batch_g=draw(st.integers(1, C)), batch_s=S, max_iters=4,
                       seed=draw(st.integers(0, 2**16)), beta=draw(st.sampled_from([0.05, 1.0])))
    return P, local, config, alphas


# The Gram step takes Hessian batches smaller than the local sets only.
@pytest.mark.parametrize(
    "solve, rows, batch",
    [(solve, rows, batch)
     for solve in ("series", "cg", "cholesky")
     for rows in ("dense", "one_hot")
     for batch in ("one", "some", "all")
     if not (solve == "cholesky" and batch == "all")],
)
def test_solves_on_the_batch_rows_equal_the_whole_set_solves_bitwise(solve, rows, batch):
    # The solves read only the Hessian batch's rows, gathered in ascending
    # order; the whole-set solves (oracles.whole_set_history) read every
    # row at a zero weight off the batch.  Every row sum and every column's
    # sum of contributions is the same but for those zero terms, so x and
    # q must be equal after every round, byte for byte: signed zeros too.
    @settings(max_examples=15, deadline=None, database=None)
    @given(batch_problems(solve, rows, batch))
    def check(problem):
        P, local, config, alphas = problem
        assert optimizer.proximal_engine(local, config, alphas).solve == solve
        got = []
        run(P, local, config, alphas,
            callbacks=[lambda k, s: got.append((s.x.copy(), s.q.copy()))])
        want = whole_set_history(P, local, config, alphas)
        assert len(got) == len(want) == config.max_iters + 1
        for (x, q), (x_ref, q_ref) in zip(got, want):
            assert x.tobytes() == x_ref.tobytes() and q.tobytes() == q_ref.tobytes()

    check()


@pytest.mark.parametrize(
    "d, sparse",
    [pytest.param(d, sparse, id=str(d) + ("-csr" if sparse else ""))
     for sparse in (False, True) for d in (15, 60)],  # rows, Gram
)
def test_run_refuses_a_drawn_index_outside_a_local_set(d, sparse, monkeypatch):
    def next_agent(n, C, size, seed, round_idx, purpose):
        flat = draw_positions(n, C, size, seed, round_idx, purpose)
        flat[2 * size - 1] = 2 * C  # agent 2's first row, in agent 1's batch
        return flat

    monkeypatch.setattr(optimizer, "draw_positions", next_agent)
    P, local = make_problem(5, 30, d, seed=1, sparse=sparse)
    config = RunConfig(batch_g=8, batch_s=6, max_iters=3, seed=2)
    alphas = certified_alphas(P, local)
    with pytest.raises(InvariantViolation, match="round 0: drawn index outside a local set"):
        run(P, local, config, alphas)


# ------------------------------------------------------------- engine choice


def engine_at(rho):
    """The engine of one agent whose bound is exactly ``rho``: a curvature
    bound of ``rho`` over a shift of 0 + 1, on 40 rows over 15 columns, so
    that at ``S = 20 >= d`` CG, not the Gram step, is taken from the bound
    on."""
    local = types.SimpleNamespace(shape=(1, 40, 15), lam=0.0, curvature_bound=np.array([rho]))
    return optimizer.proximal_engine(local, RunConfig(batch_g=10, batch_s=20), [1.0])


def least_double_where(holds, lo, hi):
    """The least double in ``(lo, hi]`` at which ``holds``, a predicate
    false at ``lo``, true at ``hi`` and monotone between, is true."""
    a, b = np.float64(lo).view(np.int64), np.float64(hi).view(np.int64)
    while b - a > 1:
        m = (a + b) // 2
        if holds(float(m.view(np.float64))):
            b = m
        else:
            a = m
    return float(b.view(np.float64))


def test_series_terms_are_the_least_that_reach_cg_tolerance():
    below = math.nextafter(optimizer.SERIES_BELOW, 0.0)
    assert optimizer._series_terms(0.0) == 0
    assert optimizer._series_terms(1.6e-6) == 2
    assert optimizer._series_terms(below) == 17
    for rho in (-5e-324, optimizer.SERIES_BELOW, 1.0, np.inf, np.nan):
        with pytest.raises(InvariantViolation, match="the series is not taken at rho"):
            optimizer._series_terms(rho)
    for rho in [5e-324, *np.geomspace(1e-300, below, 300).tolist(), below]:
        k = optimizer._series_terms(rho)
        tol = optimizer.CG_TOL / (1.0 + rho)
        assert rho ** (k + 1) <= tol
        assert k == 0 or rho**k > tol
    # The engine's run count at the bench shapes' bounds.
    assert [optimizer._series_terms(rho) for rho in (1.59e-6, 2.65e-7, 7.84e-7)] == [2, 1, 2]


def test_series_below_is_where_the_series_needs_21_terms_to_roundoff():
    # Past twice CG's a-priori cap of 10 at both neighbours: the term-count
    # rule takes CG from this double on.
    below = math.nextafter(optimizer.SERIES_BELOW, 0.0)
    assert optimizer.SERIES_BELOW == pytest.approx(2.0 ** (-53 / 21), rel=2.0**-52)
    assert optimizer.SERIES_BELOW**21 > 2.0**-53 >= below**21
    assert (count_to(below, 2.0**-53), count_to(optimizer.SERIES_BELOW, 2.0**-53)) == (20, 21)
    assert [optimizer._cg_iterations(rho) for rho in (below, optimizer.SERIES_BELOW)] == [10, 10]
    assert engine_at(below) == optimizer.Engine("series", 17, below)
    assert engine_at(optimizer.SERIES_BELOW) == optimizer.Engine(
        "cg", 10, optimizer.SERIES_BELOW)


def test_the_engine_makes_the_choice_the_term_counts_make():
    # Wherever the term-count rule is defined (rho above about 7.8e-16),
    # the engine takes its solve and its count: on a grid of 200,001
    # bounds, and one float either side of every step of the count to
    # roundoff (2^(-53/(k+1))) and of the series' run count.
    tol = optimizer.CG_TOL
    steps = [least_double_where(lambda r, k=k: count_to(r, tol / (1.0 + r)) > k, 1e-15, 0.99)
             for k in range(40)]
    steps += [2.0 ** (-53 / (k + 1)) for k in range(1, 60)]  # 2^-53 is below 1e-15
    near = [t for step in steps
            for t in (math.nextafter(step, 0.0), step, math.nextafter(step, 1.0))]
    for rho in [*np.geomspace(1e-15, 1.5, 200_001).tolist(), *near]:
        engine = engine_at(rho)
        assert (engine.solve, engine.terms) == choice_by_counts(rho), rho


def test_a_bound_below_where_cgs_cap_is_defined_takes_the_series_with_no_term():
    # sqrt(1 + rho) rounds to 1 at rho <= 7.77e-16, where CG's a-priori cap
    # is not defined; the engine takes the series, x - r / c, there.
    for rho in (0.0, 5e-324, 1e-17, 7.77e-16):
        assert engine_at(rho) == optimizer.Engine("series", 0, rho)


def test_the_step_without_curvature_is_the_right_hand_side_over_the_shift():
    # Zero curvature weights and no series term: x - r / c, whatever the
    # rows, bitwise.
    rng = np.random.default_rng(5)
    n, S, d = 4, 6, 5
    x, rhs = rng.standard_normal((2, n, d))
    c = np.geomspace(0.5, 2.0, n)
    out = row_step(x, rhs, rows(rng.standard_normal((n, S, d))), np.zeros(n * S), c, "series", 0)
    assert np.array_equal(out, x - rhs / c[:, None])


def test_a_run_on_rows_without_features_takes_the_series_with_no_term_and_converges():
    # Every h_i is lam I, so rho = 0, the loss is lam |x|^2 / 2 plus a
    # constant a sample, and the reference is x* = 0.
    n, C, d = 4, 10, 3
    P = build_random_connected_graph(n, 2.0, seed=0)
    local = stack_sets(np.zeros((n, C, d)), np.tile([1.0, -1.0], (n, C // 2)), 0.1)
    config = RunConfig(batch_g=4, batch_s=4, max_iters=200, seed=0)
    alphas = certified_alphas(P, local)
    assert optimizer.proximal_engine(local, config, alphas) == optimizer.Engine("series", 0, 0.0)
    x_star = solve_reference(local).x
    assert np.array_equal(x_star, np.zeros(d))
    errors = []
    run(P, local, config, alphas,
        callbacks=[lambda k, s: errors.append(optimality_error(s.x, x_star))])
    assert errors[-1] < 1e-3 * errors[0]


def one_hot_sets(n, count, attributes, columns, seed=0, lam=0.01):
    """Local sets shaped like categorical LIBSVM files: every row one-hot
    encodes ``attributes`` categories over ``columns`` binary columns."""
    rng = np.random.default_rng(seed)
    edges = np.linspace(0, columns, attributes + 1).astype(int)
    feats = np.zeros((n, count, columns))
    for lo, hi in zip(edges[:-1], edges[1:]):
        np.put_along_axis(feats, rng.integers(lo, hi, (n, count, 1)), 1.0, axis=2)
    labels = rng.choice((-1.0, 1.0), (n, count))
    return stack_sets(feats, labels, lam)


# The series runs the fewest terms that reach CG's tolerance: 2 at the
# a4a- and 200-agent shapes' bounds, 1 at the mushrooms shape's, where
# the bound is below sqrt(CG_TOL).
@pytest.mark.parametrize(
    "n, count, attributes, columns, degree, algorithm, batch, terms",
    [
        pytest.param(20, 239, 14, 123, 5.0, "st_sopro", 80, 2, id="a4a-like"),
        pytest.param(10, 600, 22, 112, 4.0, "sopro", 80, 1, id="mushrooms-like"),
        pytest.param(200, 40, 14, 123, 5.0, "st_sopro", 20, 2, id="200-agents"),
    ],
)
def test_certified_runs_of_benchmark_shapes_take_the_series(
    n, count, attributes, columns, degree, algorithm, batch, terms
):
    local = one_hot_sets(n, count, attributes, columns)
    P = build_random_connected_graph(n, degree, seed=0)
    config = RunConfig(batch_g=batch, batch_s=batch, max_iters=1, seed=0, algorithm=algorithm)
    engine = optimizer.proximal_engine(local, config, certified_alphas(P, local))
    assert (engine.solve, engine.terms) == ("series", terms)
    assert engine.rho_bound < 2e-6
    assert choice_by_counts(engine.rho_bound) == ("series", terms)


def test_the_bounds_and_the_engine_read_one_curvature_bound(monkeypatch):
    # M_i and the engine's rho both take StackedSets.curvature_bound,
    # max_j |a_j|^2 / 4 over agent i's rows.
    P, local = make_problem(3, 30, 8)
    assert np.array_equal(local.curvature_bound, 0.25 * local.row_sq.max(axis=1))
    config = RunConfig(batch_g=10, batch_s=10, max_iters=1, seed=0)
    alphas = np.array([1.0, 2.0, 4.0])
    monkeypatch.setattr(StackedSets, "curvature_bound", property(lambda self: np.full(3, 6.0)))
    assert SmoothnessBounds.from_sets(local).M.tolist() == (local.lam + 6.0).tolist()
    engine = optimizer.proximal_engine(local, config, alphas)
    assert engine.rho_bound == max(6.0 / (local.lam + alphas))


def test_cg_iterations_are_the_least_that_the_a_priori_bound_allows():
    def bound(rho, k):
        root = np.sqrt(1.0 + rho)
        return 2.0 * root * ((root - 1.0) / (root + 1.0)) ** k

    assert optimizer._cg_iterations(16.90821256038647) == 67
    for rho in np.geomspace(1.0, 1e6, 40):
        k = optimizer._cg_iterations(rho)
        assert bound(rho, k) <= optimizer.CG_TOL * (1 + 1e-9)
        assert bound(rho, k - 1) > optimizer.CG_TOL * (1 - 1e-9)


def test_cg_iterations_stay_finite_where_the_contraction_rounds_to_one():
    # Above rho of about 4e32, (sqrt(kappa) - 1) / (sqrt(kappa) + 1) rounds
    # to 1 and its log to 0; the cap must still be a finite count that
    # grows with rho.
    rhos = [1e32, 4e32, 1e34, 1e300, np.finfo(float).max]
    caps = [optimizer._cg_iterations(rho) for rho in rhos]
    assert all(isinstance(k, int) for k in caps)
    assert caps == sorted(caps) and caps[0] > 0


def test_run_steps_at_a_tiny_shift_and_refuses_one_whose_bound_overflows():
    config = RunConfig(batch_g=10, batch_s=10, max_iters=2, seed=1)
    # lam = 1e-34: rho is about 3e33, past where the contraction rounds to
    # 1; CG still converges on the curvature of S >= d rows.
    P, local = make_problem(4, 40, 8, lam=1e-34)
    engine = optimizer.proximal_engine(local, config, np.zeros(4))
    assert (engine.solve, engine.rho_bound > 4e32) == ("cg", True)
    assert np.isfinite(run(P, local, config, np.zeros(4)).x).all()
    # lam = 1e-320: rho overflows to inf, which is refused before round 0
    # with no overflow warning first (warnings are errors here).
    P, local = make_problem(4, 40, 8, lam=1e-320)
    rounds = []
    with pytest.raises(ConfigurationError, match="agent 0: the curvature bound .* not finite"):
        run(P, local, config, np.zeros(4), callbacks=[lambda k, s: rounds.append(k)])
    assert rounds == []


def test_cg_that_misses_its_tolerance_raises_within_its_product_budget(monkeypatch):
    # lam = 1e-34 with S = 4 < d = 8 < C: the shift is all that holds up the
    # d - S directions the Hessian batch does not reach, and CG does not
    # meet its tolerance.  Its a-priori cap is past 1e18 iterations; the
    # engine caps it at CG_SLACK (S + 1) products, and the solve names the
    # agent and the round.
    P, local = make_problem(4, 40, 8, lam=1e-34)
    config = RunConfig(batch_g=10, batch_s=4, max_iters=2, seed=1)
    engine = optimizer.proximal_engine(local, config, np.zeros(4))
    budget = optimizer.CG_SLACK * (4 + 1)
    assert (engine.solve, engine.terms) == ("cg", budget)
    assert optimizer._cg_iterations(engine.rho_bound) > 1e18
    products, real_cg = [], optimizer._cg_solve

    def counted(apply_h, *args):
        def h(v):
            products.append(1)
            assert len(products) <= budget, "CG ran past its cap"
            return apply_h(v)

        return real_cg(h, *args)

    monkeypatch.setattr(optimizer, "_cg_solve", counted)
    with pytest.raises(DivergenceError, match=r"round 1: agent \d: conjugate gradients") as e:
        run(P, local, config, np.zeros(4))
    assert e.value.round == 1
    assert len(products) == budget


def test_cg_names_the_first_agent_it_leaves_above_its_tolerance():
    # Agents 1 and 3 start converged (zero right-hand sides); two
    # iterations cannot solve the d = 6 distinct eigenvalues of agents 0
    # and 2, and only agent 0 is named.
    rng = np.random.default_rng(4)
    n, d = 4, 6
    H = np.zeros((n, d, d))
    H[:, np.arange(d), np.arange(d)] = np.geomspace(1.0, 1e3, d)
    rhs = rng.standard_normal((n, d))
    rhs[[1, 3]] = 0.0
    with pytest.raises(DivergenceError, match="round 7: agent 0: ") as e:
        optimizer._cg_solve(lambda v: (H @ v[:, :, None])[:, :, 0], rhs, np.ones(n), 2, 7)
    assert e.value.round == 7
    # In floating point d + 1 iterations leave about 2e-12 here; the
    # engine's slack covers it.
    z = optimizer._cg_solve(lambda v: (H @ v[:, :, None])[:, :, 0], rhs, np.ones(n),
                            optimizer.CG_SLACK * (d + 1))
    assert rel_err(z, np.linalg.solve(H + np.eye(d), rhs[:, :, None])[:, :, 0]) <= 1e-12


@pytest.mark.parametrize("rho, solve", [(0.873, "cg"), (1.6e-6, "series")])
def test_the_series_is_taken_only_while_it_is_at_most_twice_the_cg_cap(rho, solve):
    # At rho = 0.873 the series needs 270 terms to roundoff against CG's
    # cap of 17, and the bound gives CG; at the certified bench runs' rho
    # it needs 2 against 3, and the series runs 2 to CG's tolerance.  S >=
    # d: no Gram path, so CG takes the row step.
    P, local = make_problem(6, 40, 15)
    config = RunConfig(batch_g=10, batch_s=20, max_iters=2, seed=0)
    shift = np.full(6, 0.25 * local.row_sq.max() / rho)
    engine = optimizer.proximal_engine(local, config, shift - local.lam)
    assert engine.rho_bound == pytest.approx(rho, rel=1e-12)
    rho = engine.rho_bound
    counts = count_to(rho, 2.0**-53), optimizer._cg_iterations(rho)
    assert counts == ((270, 17) if solve == "cg" else (2, 3))
    assert (rho < optimizer.SERIES_BELOW) is (solve == "series")
    assert (engine.solve, engine.terms) == (solve, 17 if solve == "cg" else 2)
    assert (engine.solve, engine.terms) == choice_by_counts(rho)
    assert np.isfinite(run(P, local, config, shift - local.lam).x).all()


@pytest.mark.parametrize("rho, solve, terms", [(0.1738, "series", 17), (0.1739, "cg", 10)])
def test_the_series_ends_at_its_bound_not_where_its_run_count_would_end_it(rho, solve, terms):
    # SERIES_BELOW lies between 0.1738 and 0.1739.  The series taken at
    # 0.1738 runs 17 terms, to CG's tolerance, against CG's cap of 10 at
    # both; comparing that run count with twice the cap would move the
    # boundary to about rho = 0.30, where CG is the faster solve.
    P, local = make_problem(6, 40, 15)
    config = RunConfig(batch_g=10, batch_s=20, max_iters=2, seed=0)
    shift = np.full(6, 0.25 * local.row_sq.max() / rho)
    engine = optimizer.proximal_engine(local, config, shift - local.lam)
    assert engine.rho_bound == pytest.approx(rho, rel=1e-12)
    assert optimizer._cg_iterations(engine.rho_bound) == 10
    assert (engine.solve, engine.terms) == (solve, terms)
    assert (engine.solve, engine.terms) == choice_by_counts(engine.rho_bound)
    assert np.isfinite(run(P, local, config, shift - local.lam).x).all()


@pytest.mark.parametrize("rho", [1.0, 17.0, 1e3])
def test_cg_meets_its_tolerance_before_its_iteration_cap(rho):
    # Agent 0's curvature reaches the bound rho c_0, where the cap is
    # tightest; the residual, not the cap, must stop every agent.
    rng = np.random.default_rng(int(rho))
    n, S, d = 5, 12, 15
    feats, weights = tight_first_agent(rng.standard_normal((n, S, d)),
                                       rng.uniform(0.0, 0.25, (n, S)) / S)
    c = np.geomspace(0.5, 2.0, n)
    feats *= np.sqrt(rho / rho_bound(feats, c))
    F, w = rows(feats), weights.ravel()
    rhs = rng.standard_normal((n, d))
    applied = []

    def apply_h(v):
        applied.append(1)
        return F.rmatvec(w * (F @ v.ravel())).reshape(n, d)

    cap = optimizer._cg_iterations(rho)
    z = optimizer._cg_solve(apply_h, rhs, c, cap)
    assert len(applied) < cap
    residual = rhs - c[:, None] * z - apply_h(z)
    assert np.all(np.linalg.norm(residual, axis=1) <= 1e-12 * np.linalg.norm(rhs, axis=1))


def test_the_factorisation_is_kept_at_rho_of_at_least_one_or_a_nonpositive_shift(monkeypatch):
    # Only the Gram path factors, and only at rho >= 1; a shift that is not
    # positive is refused.
    P, local = make_problem(6, 40, 15)
    config = RunConfig(batch_g=10, batch_s=20, max_iters=1, seed=0)  # S >= d
    edge = np.full(6, 0.25 * local.row_sq.max())  # the shift at which rho = 1
    for c, rho in ((edge, 1.0), (edge / 2, 2.0)):
        engine = optimizer.proximal_engine(local, config, c - local.lam)
        assert engine == optimizer.Engine(
            "cg", optimizer._cg_iterations(engine.rho_bound), engine.rho_bound)
        assert engine.rho_bound == pytest.approx(rho, rel=1e-12)
    c = 1e6 * edge
    assert optimizer.proximal_engine(local, config, c - local.lam).solve == "series"
    for bad in (0.0, -1.0, np.nan):
        c[3] = bad
        with pytest.raises(ConfigurationError, match="agent 3: the shift"):
            optimizer.proximal_engine(local, config, c - local.lam)

    factored, log = [], []
    real_dposv = optimizer.dposv
    monkeypatch.setattr(optimizer, "dposv",
                        lambda a, *args: factored.append(a.shape) or real_dposv(a, *args))
    spy_on_operators(monkeypatch, log)

    def products(sets):
        """The row counts of the operators each product of ``sets``' columns
        multiplied, in call order."""
        return [op.shape[0] for name, op, _ in log
                if name == "__matmul__" and op.shape[1] == sets.csr.shape[1]]

    # S < d < C at rho = 2: CG on the 6 x 5 gathered Hessian batch rows,
    # after one margins product of the 6 x 10 gradient batch rows and one
    # of the Hessian batch rows a round; no factorisation.
    config = RunConfig(batch_g=10, batch_s=5, max_iters=3, seed=0)
    alphas = edge / 2 - local.lam
    engine = optimizer.proximal_engine(local, config, alphas)
    assert engine.solve == "cg"
    run(P, local, config, alphas)
    rows = products(local)
    assert factored == [] and rows.count(60) == config.max_iters
    assert set(rows) == {60, 30} and rows.count(30) >= 2 * config.max_iters
    # S < C <= d at rho = 2: every round factors the Woodbury S x S systems
    # from the Gram stack, and no d x d one, and reads F r from the batch
    # rows by one product, after the margins products of its two batches.
    P, sets = make_problem(6, 40, 60)
    alphas = np.full(6, 0.125 * sets.row_sq.max()) - sets.lam
    assert optimizer.proximal_engine(sets, config, alphas).solve == "cholesky"
    solves = []
    real_solve = optimizer._cholesky_solve
    monkeypatch.setattr(optimizer, "_cholesky_solve",
                        lambda A, b: solves.append(A.shape) or real_solve(A, b))
    log.clear()
    run(P, sets, config, alphas)
    assert solves == [(6, 5, 5)] * config.max_iters
    assert factored == [(5, 5)] * (6 * config.max_iters)
    assert products(sets) == [60, 30, 30] * config.max_iters


def test_run_refuses_a_negative_shift_that_leaves_a_dense_system_definite():
    # At x = 0 every curvature weight is 1/(4 C), so each h_i - lam_i I is
    # F_i^T F_i / (4 C), and half its smallest eigenvalue below zero keeps
    # agent 4's system definite; the run refuses it before round 0.
    P, local = make_problem(6, 40, 15)
    config = RunConfig(batch_g=10, batch_s=40, max_iters=1, seed=5, algorithm="sopro",
                       x0_mode="zeros")
    block = block_of(local)
    gram = block.transpose(0, 2, 1) @ block / (4 * 40)
    alphas = certified_alphas(P, local)
    alphas[4] = -local.lam[4] - 0.5 * np.linalg.eigvalsh(gram[4])[0]
    rounds = []
    with pytest.raises(ConfigurationError, match="agent 4: the shift"):
        run(P, local, config, alphas, callbacks=[lambda k, s: rounds.append(k)])
    assert rounds == []


# ------------------------------------------------------------- shared parts


def test_spectral_summary_computed_once_per_matrix(monkeypatch):
    calls = []
    real = topology.spectral_summary
    monkeypatch.setattr(topology, "spectral_summary", lambda p: calls.append(p) or real(p))
    P, local = make_problem(6, 40, 15)
    run(P, local, RunConfig(batch_g=10, batch_s=5, max_iters=2, seed=0),
        certified_alphas(P, local))
    assert P.spectral == real(P)
    assert len(calls) == 1 and calls[0] is P


@pytest.mark.parametrize(
    "algorithm, per_edge", [("dsgd", 2), ("dsgt", 4), ("st_sopro", 2), ("sopro", 2)]
)
def test_baselines_share_draws_and_count_edges(algorithm, per_edge):
    P, local = make_problem(6, 40, 15)
    config = RunConfig(
        batch_g=10, batch_s=10, max_iters=3, seed=7, algorithm=algorithm, step_size=0.5
    )
    alphas = certified_alphas(P, local) if algorithm in optimizer.PROXIMAL else None
    states, rounds, comm = [], [], []

    def record(k, s):
        states.append(s.x.copy())
        rounds.append(k)
        comm.append(s.comm_scalars)

    run(P, local, config, alphas, callbacks=[record])
    assert rounds == [0, 1, 2, 3]
    d = local.dim
    per_round = per_edge * P.n_edges * d
    # The proximal methods also send their initial exchange.
    setup = per_round if algorithm in optimizer.PROXIMAL else 0
    assert comm == [setup + k * per_round for k in range(4)]
    final = run(P, local, config, alphas)
    assert final.comm_scalars == setup + 3 * per_round
    assert final.round == 3
    if algorithm == "dsgd":
        # Round 0 steps along the gradients of the engine's own G-draws.
        grads = np.stack([
            agent_batch_stats(states[0][i], ds, 10, 10, 7, i, 0)[0]
            for i, ds in enumerate(agent_datasets(local))
        ])
        W = np.eye(P.n_agents) - metropolis_matrix(P).matrix
        # A round sums over the batch's rows alone, gathered from the
        # operator: equal up to summation order.
        assert rel_err(states[1], W @ states[0] - 0.5 * grads) <= 1e-13


@pytest.mark.parametrize("algorithm", ["dsgd", "dsgt"])
def test_baselines_mix_through_csr_as_through_the_dense_weights(algorithm, monkeypatch):
    # The Metropolis matrix stores 480 of the 14400 entries of a 120-agent
    # degree-3 network.
    P = build_random_connected_graph(120, 3.0, seed=2)
    _, local = make_problem(120, 8, 6)
    assert isinstance(metropolis_matrix(P).operator, Csr)
    config = RunConfig(batch_g=4, batch_s=4, max_iters=5, seed=7, algorithm=algorithm,
                       step_size=0.5)

    def history():
        states = []
        run(P, local, config, callbacks=[lambda k, s: states.append(s.x.copy())])
        return states

    sparse = history()
    monkeypatch.setattr(topology, "CSR_FIXED_COST", np.inf)
    assert isinstance(metropolis_matrix(P).operator, np.ndarray)
    dense = history()
    assert len(sparse) == len(dense) == 6
    for a, b in zip(sparse, dense):
        assert rel_err(a, b) <= 1e-13


@pytest.mark.parametrize("n", [6, 120])
def test_baseline_rounds_mix_in_place_bitwise_as_the_whole_expressions(n):
    # The rounds write x - L x - s g and t - L t + g - g_last into the
    # array of each mix, in the order of the whole expressions: the rows
    # are those of the expressions, bitwise, on a dense (N = 6) and a CSR
    # (N = 120) network, and no argument is written.
    P = build_random_connected_graph(n, 3.0, seed=2)
    _, local = make_problem(n, 8, 6)
    L = metropolis_matrix(P)
    assert isinstance(L.operator, np.ndarray if n == 6 else Csr)
    config = RunConfig(batch_g=4, batch_s=4, max_iters=3, seed=7, step_size=0.5)
    grad = optimizer.gradient(local, config)

    def batch_grads(x, k):
        return sets_grad(x, local, batch_positions(local, 4, 7, k, PURPOSE_GRAD))

    rng = np.random.default_rng(n)
    x, tracker, last = rng.standard_normal((3, n, 6))
    for k in range(3):
        args = [a.copy() for a in (x, tracker, last)]
        for a in args:
            a.setflags(write=False)
        got = dsgd_round(args[0], L, grad, config, k)
        want = x - L.disagreement(x) - 0.5 * batch_grads(x, k)
        assert got.tobytes() == want.tobytes()
        got_x, got_t, got_g = dsgt_round(*args, L, grad, config, k)
        want_x = x - L.disagreement(x) - 0.5 * tracker
        grads = batch_grads(want_x, k + 1)
        want_t = tracker - L.disagreement(tracker) + grads - last
        for g, w in ((got_x, want_x), (got_t, want_t), (got_g, grads)):
            assert g.tobytes() == w.tobytes()
        x, tracker, last = want_x, want_t, grads


@pytest.mark.parametrize("n, degree", [(6, 2.0), (20, 5.0), (120, 3.0), (200, 5.0)])
def test_metropolis_matrix_is_i_minus_the_metropolis_weights(n, degree):
    P = build_random_connected_graph(n, degree, seed=n)
    deg = np.bincount(np.ravel(P.edges), minlength=n)
    assert np.array_equal(P.degrees, deg)
    want = np.zeros((n, n))
    for i, j in P.edges:
        want[i, j] = want[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    want[np.diag_indices(n)] = 1.0 - want.sum(axis=1)
    L = metropolis_matrix(P)
    assert L.edges == P.edges
    W = np.eye(n) - L.matrix
    assert np.max(np.abs(W - want)) <= 1e-15
    assert np.array_equal(W, W.T)
    assert np.all(W >= 0.0)
    assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-12


def test_whole_set_gradients_equal_the_per_agent_gradients():
    # At G = C a batch is the whole set, with no zero coefficients; the
    # operator's sparse products sum in another order than batch_grad's.
    P, local = make_problem(6, 40, 15)
    config = RunConfig(batch_g=40, batch_s=40, max_iters=1, seed=7, algorithm="dsgd",
                       step_size=0.5)
    assert batch_positions(local, 40, 7, 0, PURPOSE_GRAD) is None
    states = []
    run(P, local, config, callbacks=[lambda k, s: states.append(s.x.copy())])
    grads = np.stack([
        agent_batch_stats(states[0][i], ds, 40, 40, 7, i, 0)[0]
        for i, ds in enumerate(agent_datasets(local))
    ])
    W = np.eye(6) - metropolis_matrix(P).matrix
    assert rel_err(states[1], W @ states[0] - 0.5 * grads) <= 1e-13


def test_dsgt_tracker_sum_equals_last_gradient_sum():
    P, local = make_problem(6, 40, 15)
    config = RunConfig(
        batch_g=10, batch_s=10, max_iters=30, seed=7, algorithm="dsgt", step_size=0.5
    )
    L = metropolis_matrix(P)
    x = optimizer.initial_iterates(P, local, config)
    grad = optimizer.gradient(local, config)
    tracker = grads = sets_grad(x, local, batch_positions(local, 10, 7, 0, PURPOSE_GRAD))
    gaps = []
    for k in range(config.max_iters + 1):
        want = grads.sum(axis=0)
        gaps.append(np.linalg.norm(tracker.sum(axis=0) - want) / np.linalg.norm(want))
        if k < config.max_iters:
            x, tracker, grads = dsgt_round(x, tracker, grads, L, grad, config, k)
            assert grads.tobytes() == sets_grad(
                x, local, batch_positions(local, 10, 7, k + 1, PURPOSE_GRAD)).tobytes()
    assert len(gaps) == 31
    assert max(gaps) <= 1e-12


@pytest.mark.parametrize("algorithm", ["st_sopro", "sopro", "dsgd", "dsgt"])
def test_every_method_takes_its_gradients_from_the_one_estimator(algorithm, monkeypatch):
    # A stub swapped in for optimizer.gradient is built once, before round
    # 0, and reaches every method's rounds: it sees label k in round k,
    # but k + 1 in DSGT's round k and 0 at DSGT's set-up, and SoPro's
    # whole-set margins and no other method's.  With zero gradients, a
    # DSGD round is the Metropolis mix x - L x, bitwise.
    P, local = make_problem(6, 40, 15)
    baseline = algorithm in ("dsgd", "dsgt")
    config = RunConfig(batch_g=10, batch_s=20, max_iters=3, seed=1, algorithm=algorithm,
                       step_size=0.5 if baseline else None)
    built, calls, states = [], [], []

    def stub(stub_local, stub_config):
        assert stub_local is local and stub_config is config and not states
        built.append(True)

        def grad(x, k, margins=None):
            calls.append((k, x.copy(), margins))
            return np.zeros_like(x)

        return grad

    monkeypatch.setattr(optimizer, "gradient", stub)
    monkeypatch.setattr(baselines, "gradient", stub)
    run(P, local, config, None if baseline else certified_alphas(P, local),
        callbacks=[lambda k, s: states.append(s.x.copy())])
    assert built == [True]
    assert [k for k, _, _ in calls] == ([0, 1, 2, 3] if algorithm == "dsgt" else [0, 1, 2])
    for k, x, margins in calls:
        if algorithm == "sopro":
            assert x.tobytes() == states[k].tobytes()
            assert margins.tobytes() == (local.csr @ x.ravel()).tobytes()
        else:
            assert margins is None
    if algorithm == "dsgd":
        L = metropolis_matrix(P)
        for x, mixed in zip(states, states[1:]):
            assert mixed.tobytes() == (x - L.disagreement(x)).tobytes()


@pytest.mark.parametrize("step_size", [None, 0.0, -0.5, np.nan])
@pytest.mark.parametrize("algorithm", ["dsgd", "dsgt"])
def test_baselines_refuse_a_missing_step_size_before_round_0(algorithm, step_size):
    P, local = make_problem(6, 40, 15)
    config = RunConfig(
        batch_g=10, batch_s=10, max_iters=0, seed=7, algorithm=algorithm,
        step_size=step_size,
    )
    rounds = []
    with pytest.raises(ConfigurationError, match="baselines need a positive step_size"):
        run(P, local, config, callbacks=[lambda k, s: rounds.append(k)])
    assert rounds == []


@pytest.mark.parametrize("algorithm", ["dsgd", "dsgt"])
def test_baselines_fail_loudly_on_divergence(algorithm):
    P, local = make_problem(6, 40, 15)
    config = RunConfig(
        batch_g=10, batch_s=10, max_iters=300, seed=7, algorithm=algorithm, step_size=1e3
    )
    with pytest.raises(DivergenceError, match=r"round \d+: agent \d+ has a non-finite"):
        run(P, local, config)


def test_check_finite_names_round_and_agent():
    x = np.zeros((4, 3))
    optimizer.check_finite(x, 5)
    x[2, 1] = np.nan
    x[3, 0] = np.inf
    with pytest.raises(DivergenceError, match="round 5: agent 2 "):
        optimizer.check_finite(x, 5)


def test_run_fails_loudly_on_divergence(monkeypatch):
    # The certified parameters do not diverge, so a step is made to.
    def poisoned(*args):
        out = row_step(*args)
        if len(calls) == 2:
            out[3] = np.nan
        calls.append(1)
        return out

    calls = []
    monkeypatch.setattr(optimizer, "row_step", poisoned)
    P, local = make_problem(6, 40, 15)
    with pytest.raises(DivergenceError, match="round 3: agent 3 "):
        run(P, local, RunConfig(batch_g=10, batch_s=5, max_iters=5, seed=0),
            certified_alphas(P, local))
    assert len(calls) == 3
