"""Round-synchronous engine for the stochastic second-order proximal method.

Each round every agent independently draws two uniform sample batches,
takes the proximal Newton-type step

    ``x_i <- x_i - (h_i + D_i)^{-1} (g_i + beta y_i + q_i)``,

then a synchronous exchange refreshes the weighted disagreements
``y_i = sum_j p_ij (x_i - x_j)`` and the dual surrogates
``q_i <- q_i + beta y_i``.  The deterministic parent method is the exact
special case where both batches are the whole local dataset.

A round is a few array operations over all agents at once, with no loop
over agents.  One draw per purpose gives every agent's batch as a row of
an ``(N, G)`` index array (:func:`draw_batches`).  The rows are gathered
from the stacked local sets (:class:`LocalSets`) into one buffer that
every round reuses, and stacked matrix products give all batch gradients
``g_i`` and Hessian weights ``w_i`` (``h_i = lam I + B_i^T B_i`` with the
factor ``B_i = sqrt(w_i) F_{S_i}``, which is scaled in place in that
buffer).  One batched step then moves all agents: one stacked product
builds every agent's symmetric positive definite system, and one
Cholesky factor-and-solve per agent, in place, solves it.  When every
``D_i = alpha_i I`` and the Hessian batch has fewer rows than the
dimension, :func:`woodbury_step` reduces each agent's ``d x d`` system to
the ``S x S`` system ``c_i I + B_i B_i^T`` with ``c_i = lam + alpha_i``.
Otherwise (``S >= d``, including full-batch SoPro, or explicit ``D_i``
blocks) :func:`dense_step` forms every ``B_i^T B_i`` with one symmetric
product and factors the shifted ``d x d`` systems.  A factorisation that
fails names the agent whose system is not positive definite.
:func:`local_step` steps one agent alone by Cholesky: it is the per-agent
oracle the batched steps are tested against.  A round whose iterate is
not finite raises :class:`~soprolab.errors.DivergenceError`.

Randomness comes from counter-based substreams of the master seed.  The
initial iterates use one substream per agent.  The batches of one (round,
purpose) come from the single substream ``(seed, 0, round, purpose)``: it
yields an ``(N, W)`` array of uniform keys, ``W`` the largest local set,
and agent ``i``'s batch is the positions of the ``G`` smallest keys among
the first ``C_i`` of row ``i``.  Draws are thus a pure function of their
label, independent of execution order, and the first-order baselines draw
the same batches as the proximal methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dposv

from . import certificate as cert
from .errors import ConfigurationError, DivergenceError, InvariantViolation, ParameterError
from .loss import (
    LowRankHessian,
    SmoothnessBounds,
    batch_grad,
    batch_hess,
    stack_local_sets,
    stacked_curvature,
    stacked_grad,
)
from .topology import MatrixP

__all__ = [
    "ALGORITHMS",
    "PURPOSE_INIT",
    "PURPOSE_GRAD",
    "PURPOSE_HESS",
    "RunConfig",
    "NetworkState",
    "substream",
    "draw_batches",
    "sample_batches",
    "agent_batch_stats",
    "LocalSets",
    "check_finite",
    "initial_iterates",
    "init_network",
    "local_step",
    "woodbury_step",
    "dense_step",
    "exchange_and_dual_update",
    "choose_D",
    "recipe_mu_lower_bound",
    "run",
]

ALGORITHMS = ("st_sopro", "sopro", "dsgd", "dsgt")

PURPOSE_INIT = 0
PURPOSE_GRAD = 1
PURPOSE_HESS = 2


def substream(seed: int, agent: int, round_idx: int, purpose: int) -> np.random.Generator:
    """Independent generator for one (agent, round, purpose) triple.

    Counter-based Philox streams keyed by the master seed: the label sits in
    the counter block, so any two distinct triples yield non-overlapping
    streams and the draw is a pure function of its label independent of
    execution order.  The batched draws key the whole network's batches
    of one (round, purpose) by ``agent = 0``.
    """
    return np.random.Generator(
        np.random.Philox(key=[seed, 0], counter=[0, agent, round_idx, purpose])
    )


@dataclass
class RunConfig:
    """Parameters of one algorithm run on a fixed network and data split."""

    batch_g: int
    batch_s: int
    max_iters: int
    seed: int
    beta: float = 1.0
    eta_s: float = 0.5
    mu: float | None = None  # None: smallest certified value plus headroom
    algorithm: str = "st_sopro"
    d_mode: str = "alpha_identity"
    d_blocks: np.ndarray | None = None
    x0_mode: str = "uniform"
    step_size: float | None = None  # baselines only
    step_schedule: str = "constant"

    def validate(self, n_samples: int | None = None) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if self.beta <= 0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if not 0.0 < self.eta_s < 1.0:
            raise ConfigurationError(f"eta_s must lie in (0,1), got {self.eta_s}")
        if self.mu is not None and self.mu <= 0:
            raise ConfigurationError(f"mu must be positive, got {self.mu}")
        if self.max_iters < 0:
            raise ConfigurationError("max_iters must be nonnegative")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")
        if self.d_mode not in ("alpha_identity", "explicit"):
            raise ConfigurationError(f"unknown d_mode {self.d_mode!r}")
        if self.d_mode == "explicit" and self.d_blocks is None:
            raise ConfigurationError("d_mode='explicit' needs d_blocks")
        if self.x0_mode not in ("uniform", "zeros"):
            raise ConfigurationError(f"unknown x0_mode {self.x0_mode!r}")
        if self.step_schedule not in ("constant", "one_over_k"):
            raise ConfigurationError(f"unknown step_schedule {self.step_schedule!r}")
        if n_samples is not None:
            for name, b in (("batch_g", self.batch_g), ("batch_s", self.batch_s)):
                if not 1 <= b <= n_samples:
                    raise ConfigurationError(
                        f"{name}={b} outside 1..{n_samples}"
                    )


@dataclass
class NetworkState:
    """All agents' primal/dual variables plus bookkeeping, one row each."""

    x: np.ndarray  # (N, d)
    q: np.ndarray
    y: np.ndarray
    d: cert.ProximalBlocks
    round: int = 0
    comm_scalars: int = 0
    tracker: np.ndarray | None = None  # baselines only
    _last_grads: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_agents(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def draw_batches(
    sizes,
    size: int,
    seed: int,
    round_idx: int,
    purpose: int,
    width: int | None = None,
) -> np.ndarray:
    """Every agent's uniform ``size``-subset of its local set, one row each.

    ``sizes`` holds the local set sizes ``C_i``.  One substream per (round,
    purpose) yields an ``(N, W)`` array of uniform keys, with ``W = width``
    or the largest ``C_i``; agent ``i``'s batch is the positions of the
    ``size`` smallest keys among the first ``C_i`` of row ``i``, ascending.
    Keys past ``C_i`` are padding and never chosen.  Ascending order makes
    summation order canonical, so a batch that is a whole local set is the
    plain range.  Returns ``(N, size)``.
    """
    sizes = np.asarray(sizes)
    if not 1 <= size <= sizes.min():
        raise ParameterError(f"batch size {size} outside 1..{sizes.min()}")
    width = int(sizes.max()) if width is None else width
    if width < sizes.max():
        raise ParameterError(f"key width {width} below the largest local set {sizes.max()}")
    keys = substream(seed, 0, round_idx, purpose).random((sizes.size, width))
    keys[np.arange(width) >= sizes[:, None]] = np.inf
    idx = np.argpartition(keys, size - 1, axis=1)[:, :size]
    idx.sort(axis=1)
    return idx


def sample_batches(
    C: int,
    G: int,
    S: int,
    seed: int,
    agent: int,
    round_idx: int,
    width: int | None = None,
):
    """One agent's gradient and Hessian index sets for one round.

    They are row ``agent`` of the network's :func:`draw_batches`, where
    ``width`` is the largest local set (default ``C``, all sets equal).
    The engine draws for all agents at once; this is its per-agent oracle.
    """
    width = C if width is None else width
    sizes = np.full(agent + 1, width)
    sizes[agent] = C
    return tuple(
        draw_batches(sizes, b, seed, round_idx, purpose, width)[agent]
        for b, purpose in ((G, PURPOSE_GRAD), (S, PURPOSE_HESS))
    )


def agent_batch_stats(
    x_i: np.ndarray,
    ds,
    G: int,
    S: int,
    seed: int,
    agent: int,
    round_idx: int,
    width: int | None = None,
):
    """One agent's batch gradient and low-rank Hessian for one round.

    Computed alone, from the :func:`sample_batches` indices, with
    :func:`~soprolab.loss.batch_grad` and :func:`~soprolab.loss.batch_hess`:
    the per-agent oracle of the stacked statistics of a round.
    """
    g_idx, s_idx = sample_batches(ds.n_samples, G, S, seed, agent, round_idx, width)
    return batch_grad(x_i, ds, g_idx), batch_hess(x_i, ds, s_idx)


class LocalSets:
    """All agents' local sets, stacked, and the rows of each round's batches.

    Gathered rows go to one buffer of ``N * k * d`` floats that every round
    reuses; the proximal engine also builds its Hessian factors there.
    """

    def __init__(self, datasets, seed: int):
        self.feats, self.labels = stack_local_sets(datasets)
        self.counts = np.array([ds.n_samples for ds in datasets])
        self.lam = np.array([ds.lambda_reg for ds in datasets])
        self.seed = seed
        n, width, d = self.feats.shape
        self._flat = self.feats.reshape(n * width, d)
        self._offsets = width * np.arange(n)[:, None]
        self._buf = np.empty(0)

    def buffer(self, k: int) -> np.ndarray:
        """The shared buffer as ``(N, k, d)``, grown first if too small."""
        n, _, d = self.feats.shape
        if self._buf.size < n * k * d:
            self._buf = np.empty(n * k * d)
        return self._buf[: n * k * d].reshape(n, k, d)

    def batch(self, size: int | None, round_idx: int, purpose: int):
        """``(N, k, d)`` rows, ``(N, k)`` labels and ``(N,)`` row counts of
        every agent's batch.

        ``size=None``, or the size of every local set, is the whole sets:
        the stacked block itself, with no draw and no copy.
        """
        if size is None or np.all(self.counts == size):
            return self.feats, self.labels, self.counts
        idx = draw_batches(self.counts, size, self.seed, round_idx, purpose)
        # mode="clip" gathers straight into the buffer (the default "raise"
        # gathers into a temporary first), so the range is checked here.
        if idx.min() < 0 or np.any(idx.max(axis=1) >= self.counts):
            raise InvariantViolation(f"round {round_idx}: drawn index outside a local set")
        rows = np.take(
            self._flat, idx + self._offsets, axis=0, out=self.buffer(size), mode="clip"
        )
        return rows, np.take_along_axis(self.labels, idx, axis=1), np.full(len(idx), size)


def check_finite(x: np.ndarray, round_idx: int) -> None:
    """Raise :class:`DivergenceError` naming the first agent whose row of
    ``x`` is not finite after round ``round_idx``."""
    if not np.isfinite(x).all():
        agent = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        raise DivergenceError(
            f"round {round_idx}: agent {agent} has a non-finite iterate; "
            "the run diverged",
            round=round_idx,
        )


def recipe_mu_lower_bound(
    bounds: SmoothnessBounds, beta: float, eta_s: float, P: MatrixP
) -> float:
    """Infimum of admissible mu for the alpha-identity proximal recipe.

    Uses the worst-case pair ``m = min_i m_i``, ``M = max_i M_i``; any
    ``mu`` strictly above this passes the proximal condition.
    """
    spec = P.spectral
    m_fbar = float(bounds.m.sum())
    m_b, _ = cert.m_beta(m_fbar, bounds.n_agents, bounds.max_M, beta, spec.lambda_w)
    m, M = bounds.min_m, bounds.max_M
    return (
        (M - 3.0 * m) / 2.0
        + M / (2.0 * (1.0 - eta_s))
        + (M - m) ** 2 / (8.0 * eta_s * m_b)
    )


def _auto_mu(bounds: SmoothnessBounds, beta: float, eta_s: float, P: MatrixP) -> float:
    lo = recipe_mu_lower_bound(bounds, beta, eta_s, P)
    return max(lo, 0.0) + 0.05 * max(bounds.max_M, 1.0)


def choose_D(
    bounds: SmoothnessBounds,
    beta: float,
    mu: float,
    P: MatrixP,
    eta_s: float,
) -> cert.ProximalBlocks:
    """Proximal blocks ``D_i = alpha I`` with ``alpha = (1/2 + lambda_max) beta + mu``.

    The result is validated against the proximal condition; too small a
    ``mu`` raises with the violated margin.
    """
    spec = P.spectral
    alpha = (0.5 + spec.lambda_max) * beta + mu
    d = cert.ProximalBlocks.alpha_identity(alpha, bounds.n_agents)
    _validate_D(d, bounds, beta, eta_s, P, spec.lambda_w, mu=mu)
    return d


def _validate_D(d, bounds, beta, eta_s, P, lambda_w, mu=None):
    m_fbar = float(bounds.m.sum())
    m_b, _ = cert.m_beta(m_fbar, bounds.n_agents, bounds.max_M, beta, lambda_w)
    chk = cert.check_D_condition(d, bounds, eta_s, m_b, beta, P)
    if not chk.passed:
        hint = ""
        if mu is not None:
            hint = (
                f" (mu={mu} is below the required bound "
                f"{recipe_mu_lower_bound(bounds, beta, eta_s, P)})"
            )
        raise ConfigurationError(
            f"proximal blocks violate the positivity condition: margin {chk.margin}"
            + hint
        )


def initial_iterates(P: MatrixP, datasets, config: RunConfig) -> np.ndarray:
    """Check the run against its network and data; return the ``(N, d)`` x0.

    Primals are i.i.d. uniform on [-1, 1]^d per agent (or zero on request),
    each agent drawing from its own substream.
    """
    n = P.n_agents
    if len(datasets) != n:
        raise ConfigurationError(
            f"{len(datasets)} datasets for {n} agents"
        )
    config.validate(n_samples=min(ds.n_samples for ds in datasets))
    dims = {ds.dim for ds in datasets}
    if len(dims) != 1:
        raise ConfigurationError(f"datasets disagree on dimension: {sorted(dims)}")
    d = dims.pop()

    if config.x0_mode == "zeros":
        return np.zeros((n, d))
    x = np.empty((n, d))
    for i in range(n):
        x[i] = substream(config.seed, i, 0, PURPOSE_INIT).uniform(-1.0, 1.0, d)
    return x


def init_network(P: MatrixP, datasets, config: RunConfig) -> NetworkState:
    """Initialize primal/dual variables and perform the first exchange.

    Duals start at zero (hence conserved at zero sum), primals come from
    :func:`initial_iterates`, and the disagreements are computed from the
    initial exchange, which is charged to the communication counter.
    """
    x = initial_iterates(P, datasets, config)
    n, d = x.shape

    bounds = SmoothnessBounds.from_datasets(datasets)
    if config.d_mode == "explicit":
        blocks = cert.ProximalBlocks(blocks=config.d_blocks)
        _validate_D(blocks, bounds, config.beta, config.eta_s, P, P.spectral.lambda_w)
    else:
        mu = config.mu
        if mu is None:
            mu = _auto_mu(bounds, config.beta, config.eta_s, P)
        blocks = choose_D(bounds, config.beta, mu, P, config.eta_s)

    y = P.disagreement(x)
    return NetworkState(
        x=x,
        q=np.zeros((n, d)),
        y=y,
        d=blocks,
        round=0,
        comm_scalars=2 * P.graph.n_edges * d,
    )


def _not_positive_definite(agent: int) -> ConfigurationError:
    return ConfigurationError(
        f"agent {agent}: h_i + D_i is not positive definite; "
        "the proximal blocks are too small for this problem"
    )


def _check_shift(c: np.ndarray) -> None:
    """``c_i I + B_i^T B_i`` is positive definite iff ``c_i > 0``: raise
    for the first agent where it is not."""
    bad = np.flatnonzero(~(c > 0.0))
    if bad.size:
        raise _not_positive_definite(int(bad[0]))


def local_step(
    x_i: np.ndarray,
    y_i: np.ndarray,
    q_i: np.ndarray,
    hess: LowRankHessian,
    grad: np.ndarray,
    d_block: float | np.ndarray,
    beta: float,
    agent: int = -1,
) -> np.ndarray:
    """One agent's proximal step alone, by Cholesky of its dense ``h_i + D_i``.

    The per-agent oracle of :func:`woodbury_step` and :func:`dense_step`,
    which step all agents at once; the engine's round does not call it.
    """
    A = hess.dense()
    if np.ndim(d_block) == 0:
        A.flat[:: A.shape[0] + 1] += float(d_block)
    else:
        A = A + d_block
    rhs = grad + beta * y_i + q_i
    try:
        c, low = cho_factor(A, check_finite=False)
    except LinAlgError:
        raise _not_positive_definite(agent)
    return x_i - cho_solve((c, low), rhs, check_finite=False)


def _cholesky_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve every ``A_i z_i = b_i`` in place; return ``b``, now holding the ``z_i``.

    ``A`` is a C-ordered ``(N, n, n)`` stack of symmetric matrices and ``b``
    an ``(N, n)`` array whose rows are contiguous.  Each ``A[i].T`` is the
    same matrix in Fortran order, so LAPACK's ``dposv`` factors it (its
    upper triangle ends up holding the Cholesky factor) and overwrites
    ``b[i]`` with the solution, with no copy.  A failed factorisation
    raises for the first agent whose matrix is not positive definite.
    """
    for i in range(len(A)):
        info = dposv(A[i].T, b[i], lower=1, overwrite_a=1, overwrite_b=1)[2]
        if info > 0:
            raise _not_positive_definite(i)
    return b


def woodbury_step(
    x: np.ndarray, rhs: np.ndarray, B: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Proximal steps of all agents whose ``h_i + D_i`` is ``c_i I + B_i^T B_i``.

    ``x`` and ``rhs`` are ``(N, d)``, ``B`` is ``(N, S, d)`` with ``S < d``
    and ``c`` is ``(N,)``.  By the Woodbury identity

        ``(c I + B^T B)^{-1} r = (r - B^T (c I_S + B B^T)^{-1} B r) / c``,

    so each agent solves an ``S x S`` system instead of a ``d x d`` one, by
    one Cholesky factor-and-solve per agent, in place.  ``B_i^T B_i`` has
    rank at most ``S < d``, so the smallest eigenvalue of ``h_i + D_i`` is
    exactly ``c_i``: the system is positive definite if and only if
    ``c_i > 0``, which is checked first, since a positive definite
    ``c_i I_S + B_i B_i^T`` does not imply it.  Zero rows in ``B_i`` leave
    the step unchanged.
    """
    _check_shift(c)
    K = B @ B.transpose(0, 2, 1)
    diag = np.arange(B.shape[1])
    K[:, diag, diag] += c[:, None]
    z = B @ rhs[:, :, None]
    _cholesky_solve(K, z[:, :, 0])
    step = (rhs - (B.transpose(0, 2, 1) @ z)[:, :, 0]) / c[:, None]
    return x - step


def dense_step(
    x: np.ndarray, rhs: np.ndarray, B: np.ndarray, shift: np.ndarray
) -> np.ndarray:
    """Proximal steps of all agents whose ``h_i + D_i`` is ``B_i^T B_i + shift_i``.

    ``x`` and ``rhs`` are ``(N, d)`` and ``B`` is ``(N, S, d)`` for any
    ``S``.  ``shift`` is either ``(N,)``, the scalars ``c_i`` of
    ``c_i I``, or ``(N, d, d)``, the blocks ``lam_i I + D_i``.  Every Gram
    matrix ``B_i^T B_i`` comes from one product of ``B`` with its own
    transpose, and one Cholesky factor-and-solve per agent, in place,
    steps all agents.  The factorisation is the positive-definiteness
    check: the first agent whose system fails it is named.  Zero rows in
    ``B_i`` add nothing.
    """
    H = B.transpose(0, 2, 1) @ B
    if shift.ndim == 1:
        diag = np.arange(H.shape[1])
        H[:, diag, diag] += shift[:, None]
    else:
        H += shift
    return x - _cholesky_solve(H, rhs.copy())


def exchange_and_dual_update(state: NetworkState, P: MatrixP, beta: float) -> None:
    """Synchronous exchange: refresh disagreements, advance duals, count traffic."""
    state.y = P.disagreement(state.x)
    state.q = state.q + beta * state.y
    state.comm_scalars += 2 * P.graph.n_edges * state.dim
    state.round += 1


def run(P: MatrixP, datasets, config: RunConfig, callbacks=()) -> NetworkState:
    """Execute ``max_iters`` synchronous rounds and return the final state.

    Each round steps all agents with one batched call: :func:`woodbury_step`
    when every ``D_i`` is a scalar multiple of the identity and the Hessian
    batch has fewer rows than the dimension, :func:`dense_step` otherwise.
    ``callbacks`` are invoked as ``cb(round, state)`` after initialization
    (round 0) and after every completed round; states passed to callbacks
    must be treated as read-only.  The full-batch deterministic variant
    follows the identical code path with both batches forced to the whole
    dataset, so its trace is bitwise identical to the stochastic method at
    ``G = S = C``.
    """
    if config.algorithm not in ("st_sopro", "sopro"):
        raise ConfigurationError(
            f"run() drives the proximal methods, not {config.algorithm!r}"
        )
    state = init_network(P, datasets, config)
    sets = LocalSets(datasets, config.seed)
    full = config.algorithm == "sopro"
    batch_g = None if full else config.batch_g
    batch_s = None if full else config.batch_s
    rows_s = sets.feats.shape[1] if full else config.batch_s
    if state.d.is_scalar:
        shift = sets.lam + state.d.alphas
        step = woodbury_step if rows_s < state.dim else dense_step
    else:
        shift = sets.lam[:, None, None] * np.eye(state.dim) + state.d.blocks
        step = dense_step
    for cb in callbacks:
        cb(0, state)
    for k in range(config.max_iters):
        grads = stacked_grad(state.x, *sets.batch(batch_g, k, PURPOSE_GRAD), sets.lam)
        # Gathered after the gradient: both batches share the buffer.
        F, _, counts = sets.batch(batch_s, k, PURPOSE_HESS)
        w = stacked_curvature(state.x, F, counts)
        # Rows past an agent's count are zero padding and stay zero.
        B = np.multiply(np.sqrt(w)[:, :, None], F, out=sets.buffer(rows_s))
        state.x = step(state.x, grads + config.beta * state.y + state.q, B, shift)
        check_finite(state.x, k + 1)
        exchange_and_dual_update(state, P, config.beta)
        for cb in callbacks:
            cb(state.round, state)
    return state
