"""Round-synchronous engine for the stochastic second-order proximal method.

Each round every agent independently draws two uniform sample batches,
takes the proximal Newton-type step

    ``x_i <- x_i - (h_i + D_i)^{-1} (g_i + beta y_i + q_i)``,

then a synchronous exchange refreshes the weighted disagreements
``y_i = sum_j p_ij (x_i - x_j)`` and the dual surrogates
``q_i <- q_i + beta y_i``.  The deterministic parent method is the exact
special case where both batches are the whole local dataset.

A round has two parts.  A loop over agents draws the batches and forms
the batch gradient ``g_i`` and the low-rank Hessian factor
``B_i = sqrt(w_i) F_{S_i}`` (with ``h_i = lam I + B_i^T B_i``), which is
``O((G + S) d)`` work per agent.  When every ``D_i = alpha_i I`` and the
Hessian batch has fewer rows than the dimension, one batched solve then
steps all agents at once through the Woodbury identity: each agent's
``d x d`` system reduces to the ``S x S`` system ``c_i I + B_i B_i^T``
with ``c_i = lam + alpha_i``.  Otherwise each agent's step factors its
dense ``h_i + D_i`` by Cholesky inside the loop.

Randomness is drawn from per-(agent, round, purpose) substreams of the
master seed, so traces are reproducible regardless of execution order or
parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from . import certificate as cert
from .errors import ConfigurationError, ParameterError
from .loss import LowRankHessian, SmoothnessBounds, batch_grad, batch_hess
from .topology import MatrixP

__all__ = [
    "ALGORITHMS",
    "PURPOSE_INIT",
    "PURPOSE_GRAD",
    "PURPOSE_HESS",
    "RunConfig",
    "NetworkState",
    "substream",
    "draw_batch",
    "sample_batches",
    "initial_iterates",
    "init_network",
    "local_step",
    "woodbury_step",
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
    execution order.
    """
    return np.random.Generator(
        np.random.Philox(key=[seed, 0], counter=[0, agent, round_idx, purpose])
    )


class SubstreamPool:
    """Reusable generator producing draws bitwise identical to :func:`substream`.

    Resetting the Philox counter in place avoids one generator construction
    per draw in the engine's inner loop.
    """

    def __init__(self, seed: int):
        self._bg = np.random.Philox(key=[seed, 0])
        self._gen = np.random.Generator(self._bg)

    def at(self, agent: int, round_idx: int, purpose: int) -> np.random.Generator:
        st = self._bg.state
        counter = st["state"]["counter"]
        counter[0] = 0
        counter[1] = agent
        counter[2] = round_idx
        counter[3] = purpose
        st["buffer_pos"] = 4  # discard buffered output from the old counter
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bg.state = st
        return self._gen


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


def draw_batch(
    C: int,
    size: int,
    seed: int,
    agent: int,
    round_idx: int,
    purpose: int,
    pool: SubstreamPool | None = None,
) -> np.ndarray:
    """Uniform ``size``-subset of ``range(C)`` from one substream, ascending.

    A full batch is the plain range and consumes no randomness.  Ascending
    order makes summation order canonical, so a full batch is bitwise
    identical to a plain range however the indices were drawn.
    """
    if size == C:
        return np.arange(C)
    rng = pool.at(agent, round_idx, purpose) if pool is not None else substream(
        seed, agent, round_idx, purpose
    )
    return np.sort(rng.choice(C, size=size, replace=False))


def sample_batches(
    C: int,
    G: int,
    S: int,
    seed: int,
    agent: int,
    round_idx: int,
    pool: SubstreamPool | None = None,
):
    """Draw the two independent uniform index sets for one agent-round.

    Sampling is without replacement; each set comes from its own substream
    so parallel execution cannot reorder draws.
    """
    for name, b in (("G", G), ("S", S)):
        if not 1 <= b <= C:
            raise ParameterError(f"batch size {name}={b} outside 1..{C}")
    g_idx = draw_batch(C, G, seed, agent, round_idx, PURPOSE_GRAD, pool)
    s_idx = draw_batch(C, S, seed, agent, round_idx, PURPOSE_HESS, pool)
    return g_idx, s_idx


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
    """One proximal step; the SPD system is solved by Cholesky, never inverted."""
    A = hess.dense()
    if np.ndim(d_block) == 0:
        A.flat[:: A.shape[0] + 1] += float(d_block)
    else:
        A = A + d_block
    rhs = grad + beta * y_i + q_i
    try:
        c, low = cho_factor(A, check_finite=False)
    except LinAlgError:
        raise ConfigurationError(
            f"agent {agent}: h_i + D_i is not positive definite; "
            "the proximal blocks are too small for this problem"
        )
    return x_i - cho_solve((c, low), rhs, check_finite=False)


def woodbury_step(
    x: np.ndarray, rhs: np.ndarray, B: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Proximal steps of all agents whose ``h_i + D_i`` is ``c_i I + B_i^T B_i``.

    ``x`` and ``rhs`` are ``(N, d)``, ``B`` is ``(N, S, d)`` with ``S < d``
    and ``c`` is ``(N,)``.  By the Woodbury identity

        ``(c I + B^T B)^{-1} r = (r - B^T (c I_S + B B^T)^{-1} B r) / c``,

    so each agent solves an ``S x S`` system instead of a ``d x d`` one.
    ``B_i^T B_i`` has rank at most ``S < d``, so the smallest eigenvalue of
    ``h_i + D_i`` is exactly ``c_i``: the system is positive definite if
    and only if ``c_i > 0``.  Zero rows in ``B_i`` leave the step unchanged.
    """
    bad = np.flatnonzero(~(c > 0.0))
    if bad.size:
        raise ConfigurationError(
            f"agent {bad[0]}: h_i + D_i is not positive definite; "
            "the proximal blocks are too small for this problem"
        )
    K = B @ B.transpose(0, 2, 1)
    diag = np.arange(B.shape[1])
    K[:, diag, diag] += c[:, None]
    z = np.linalg.solve(K, B @ rhs[:, :, None])
    step = (rhs - (B.transpose(0, 2, 1) @ z)[:, :, 0]) / c[:, None]
    return x - step


def exchange_and_dual_update(state: NetworkState, P: MatrixP, beta: float) -> None:
    """Synchronous exchange: refresh disagreements, advance duals, count traffic."""
    state.y = P.disagreement(state.x)
    state.q = state.q + beta * state.y
    state.comm_scalars += 2 * P.graph.n_edges * state.dim
    state.round += 1


def run(P: MatrixP, datasets, config: RunConfig, callbacks=()) -> NetworkState:
    """Execute ``max_iters`` synchronous rounds and return the final state.

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
    n, d = state.n_agents, state.dim
    full = config.algorithm == "sopro"
    sizes = [ds.n_samples for ds in datasets]
    batch_g = sizes if full else [config.batch_g] * n
    batch_s = sizes if full else [config.batch_s] * n
    low_rank = state.d.is_scalar and max(batch_s) < d
    if low_rank:
        c = np.array([ds.lambda_reg for ds in datasets]) + state.d.alphas
        # An agent with a smaller Hessian batch than the largest keeps zero
        # rows at the end of its factor.
        B = np.zeros((n, max(batch_s), d))
        grads = np.empty((n, d))
    pool = SubstreamPool(config.seed)
    for cb in callbacks:
        cb(0, state)
    for k in range(config.max_iters):
        for i, ds in enumerate(datasets):
            g_idx, s_idx = sample_batches(
                sizes[i], batch_g[i], batch_s[i], config.seed, i, k, pool=pool
            )
            g = batch_grad(state.x[i], ds, g_idx)
            h = batch_hess(state.x[i], ds, s_idx)
            if low_rank:
                grads[i] = g
                np.multiply(
                    np.sqrt(h.weights)[:, None], h.feats, out=B[i, : batch_s[i]]
                )
            else:
                state.x[i] = local_step(
                    state.x[i],
                    state.y[i],
                    state.q[i],
                    h,
                    g,
                    state.d.alphas[i] if state.d.is_scalar else state.d.blocks[i],
                    config.beta,
                    agent=i,
                )
        if low_rank:
            state.x = woodbury_step(
                state.x, grads + config.beta * state.y + state.q, B, c
            )
        exchange_and_dual_update(state, P, config.beta)
        for cb in callbacks:
            cb(state.round, state)
    return state
