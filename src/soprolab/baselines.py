"""First-order stochastic baselines run under the same harness contract.

DSGD mixes neighbor iterates and steps along a batch gradient; DSGT
additionally exchanges a gradient tracker whose network sum always equals
the sum of the current batch gradients.  Both reuse the engine's batch
sampler and RNG substreams, so comparisons against the proximal methods
share identical data, topology, and noise realizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError
from .loss import batch_grad
from .optimizer import (
    PURPOSE_GRAD,
    NetworkState,
    RunConfig,
    SubstreamPool,
    draw_batch,
    initial_iterates,
)
from .topology import Graph, MatrixP
from . import certificate as cert

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

    @property
    def spectral_gap(self) -> float:
        eigs = np.linalg.eigvalsh(self.matrix)
        return float(1.0 - max(abs(eigs[0]), abs(eigs[-2])))


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
    if config.step_size is None or config.step_size <= 0:
        raise ConfigurationError("baselines need a positive step_size")
    if config.step_schedule == "one_over_k":
        return config.step_size / (1.0 + k)
    return config.step_size


def _batch_grads(x, datasets, config, round_idx, pool=None):
    grads = np.empty_like(x)
    for i, ds in enumerate(datasets):
        idx = draw_batch(
            ds.n_samples, config.batch_g, config.seed, i, round_idx, PURPOSE_GRAD, pool
        )
        grads[i] = batch_grad(x[i], ds, idx)
    return grads


def dsgd_round(
    state: NetworkState,
    W: MixingMatrix,
    datasets,
    config: RunConfig,
    n_edges: int,
    pool=None,
) -> None:
    """One synchronous round: mix neighbor iterates, step along the batch gradient."""
    step = _step_size(config, state.round)
    grads = _batch_grads(state.x, datasets, config, state.round, pool=pool)
    state.x = W.matrix @ state.x - step * grads
    state.comm_scalars += 2 * n_edges * state.dim
    state.round += 1


def dsgt_round(
    state: NetworkState,
    W: MixingMatrix,
    datasets,
    config: RunConfig,
    n_edges: int,
    pool=None,
) -> None:
    """One gradient-tracking round; iterates and trackers are both exchanged."""
    step = _step_size(config, state.round)
    state.x = W.matrix @ state.x - step * state.tracker
    grads = _batch_grads(state.x, datasets, config, state.round + 1, pool=pool)
    state.tracker = W.matrix @ state.tracker + grads - state._last_grads
    state._last_grads = grads
    state.comm_scalars += 2 * 2 * n_edges * state.dim
    state.round += 1


def init_baseline(P: MatrixP, datasets, config: RunConfig) -> NetworkState:
    """Shared initial iterates with the proximal engine (same seed, same x0)."""
    x = initial_iterates(P, datasets, config)
    n, d = x.shape
    state = NetworkState(
        x=x,
        q=np.zeros((n, d)),
        y=np.zeros((n, d)),
        d=cert.ProximalBlocks.alpha_identity(0.0, n),
        round=0,
        comm_scalars=0,
    )
    if config.algorithm == "dsgt":
        state.tracker = _batch_grads(x, datasets, config, 0)
        state._last_grads = state.tracker.copy()
    return state


def run_baseline(P: MatrixP, datasets, config: RunConfig, callbacks=()) -> NetworkState:
    """Drive DSGD or DSGT for ``max_iters`` rounds under the engine contract."""
    if config.algorithm not in ("dsgd", "dsgt"):
        raise ConfigurationError(f"run_baseline() got {config.algorithm!r}")
    W = metropolis_weights(P.graph)
    n_edges = P.graph.n_edges
    state = init_baseline(P, datasets, config)
    pool = SubstreamPool(config.seed)
    step_fn = dsgd_round if config.algorithm == "dsgd" else dsgt_round
    for cb in callbacks:
        cb(0, state)
    for _ in range(config.max_iters):
        step_fn(state, W, datasets, config, n_edges, pool=pool)
        for cb in callbacks:
            cb(state.round, state)
    return state
