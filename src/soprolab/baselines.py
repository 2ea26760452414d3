"""First-order stochastic baselines run under the same harness contract.

DSGD mixes neighbor iterates and steps along a batch gradient; DSGT
additionally exchanges a gradient tracker whose network sum always equals
the sum of the current batch gradients.  A round is array operations over
all agents: the gradient batches come from the proximal engine's batched
draw (one substream per round keys every agent's batch, see
:func:`soprolab.optimizer.draw_batches`) and its stacked gradient, so
comparisons against the proximal methods share identical data, topology,
and noise realizations.  A round whose iterate is not finite raises
:class:`~soprolab.errors.DivergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError
from .loss import StackedSets, stacked_grad
from .optimizer import (
    PURPOSE_GRAD,
    LocalSets,
    NetworkState,
    RunConfig,
    check_finite,
    initial_iterates,
)
from .topology import Graph, MatrixP

__all__ = [
    "MixingMatrix",
    "metropolis_weights",
    "dsgd_round",
    "dsgt_round",
    "init_baseline",
    "run_baseline",
]


@dataclass
class MixingMatrix:
    """Symmetric doubly stochastic weights supported on the graph plus diagonal."""

    matrix: np.ndarray

    def __post_init__(self):
        W = self.matrix
        n = W.shape[0]
        if W.shape != (n, n):
            raise ParameterError("mixing matrix must be square")
        if np.max(np.abs(W - W.T)) > 1e-12:
            raise ParameterError("mixing matrix must be symmetric")
        if np.any(W < -1e-15):
            raise ParameterError("mixing matrix entries must be nonnegative")
        rows = W.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise ParameterError(f"rows must sum to 1, worst {rows}")
        self.matrix.setflags(write=False)


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Metropolis-Hastings weights: ``1 / (1 + max(deg_i, deg_j))`` on edges."""
    n = g.n_agents
    deg = [len(g.neighbors[i]) for i in range(n)]
    W = np.zeros((n, n))
    for i, j in g.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        W[i, j] = w
        W[j, i] = w
    for i in range(n):
        W[i, i] = 1.0 - W[i].sum()
    return MixingMatrix(matrix=W)


def _step_size(config: RunConfig, k: int) -> float:
    if config.step_schedule == "one_over_k":
        return config.step_size / (1.0 + k)
    return config.step_size


def _batch_grads(x, sets: LocalSets, config: RunConfig, round_idx: int) -> np.ndarray:
    return stacked_grad(x, *sets.batch(config.batch_g, round_idx, PURPOSE_GRAD), sets.local.lam)


def dsgd_round(
    state: NetworkState,
    W: MixingMatrix,
    sets: LocalSets,
    config: RunConfig,
    n_edges: int,
) -> None:
    """One synchronous round: mix neighbor iterates, step along the batch gradient."""
    step = _step_size(config, state.round)
    grads = _batch_grads(state.x, sets, config, state.round)
    state.x = W.matrix @ state.x - step * grads
    state.comm_scalars += 2 * n_edges * state.dim
    state.round += 1


def dsgt_round(
    state: NetworkState,
    W: MixingMatrix,
    sets: LocalSets,
    config: RunConfig,
    n_edges: int,
) -> None:
    """One gradient-tracking round; iterates and trackers are both exchanged."""
    step = _step_size(config, state.round)
    state.x = W.matrix @ state.x - step * state.tracker
    grads = _batch_grads(state.x, sets, config, state.round + 1)
    state.tracker = W.matrix @ state.tracker + grads - state._last_grads
    state._last_grads = grads
    state.comm_scalars += 2 * 2 * n_edges * state.dim
    state.round += 1


def init_baseline(P: MatrixP, config: RunConfig, sets: LocalSets) -> NetworkState:
    """Shared initial iterates with the proximal engine (same seed, same x0).

    DSGT's tracker starts at the round-0 batch gradients drawn from ``sets``.
    """
    x = initial_iterates(P, sets.local, config)
    n, d = x.shape
    state = NetworkState(
        x=x,
        q=np.zeros((n, d)),
        y=np.zeros((n, d)),
        round=0,
        comm_scalars=0,
    )
    if config.algorithm == "dsgt":
        state.tracker = _batch_grads(x, sets, config, 0)
        state._last_grads = state.tracker.copy()
    return state


def run_baseline(P: MatrixP, local: StackedSets, config: RunConfig, callbacks=()) -> NetworkState:
    """Drive DSGD or DSGT for ``max_iters`` rounds under the engine contract."""
    if config.algorithm not in ("dsgd", "dsgt"):
        raise ConfigurationError(f"run_baseline() got {config.algorithm!r}")
    W = metropolis_weights(P.graph)
    n_edges = P.graph.n_edges
    sets = LocalSets(local, config.seed)
    state = init_baseline(P, config, sets)
    step_fn = dsgd_round if config.algorithm == "dsgd" else dsgt_round
    for cb in callbacks:
        cb(0, state)
    for _ in range(config.max_iters):
        # A diverging round overflows; its non-finite iterate, not a numpy
        # warning, is what reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            step_fn(state, W, sets, config, n_edges)
            check_finite(state.x, state.round)
        for cb in callbacks:
            cb(state.round, state)
    return state
