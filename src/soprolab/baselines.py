"""First-order stochastic baselines, as methods of :func:`soprolab.optimizer.run`.

DSGD mixes neighbor iterates and steps along a batch gradient; DSGT
additionally exchanges a gradient tracker whose network sum always equals
the sum of the current batch gradients.  :func:`first_order` sets either
up for the engine's round loop, which checks every iterate and tallies the
traffic.  A round is array operations over all agents.  Its batch
gradients come from :func:`soprolab.optimizer.gradient`, the proximal
methods' estimator, so comparisons share identical data, topology and
noise realizations.  The Metropolis mixing matrix ``W`` is held as the
:class:`~soprolab.topology.MatrixP` ``L = I - W``
(:func:`metropolis_matrix`), and a mix is ``x - L.disagreement(x)``: the
exchange of the proximal methods, as CSR on a sparse network, at ``O(|E|
d)`` a product.
"""

from __future__ import annotations

import numpy as np

from .loss import StackedSets
from .optimizer import NetworkState, RunConfig, gradient, initial_iterates
from .topology import MatrixP, laplacian_weights

__all__ = [
    "metropolis_matrix",
    "dsgd_round",
    "dsgt_round",
    "first_order",
]


def metropolis_matrix(P: MatrixP) -> MatrixP:
    """The Laplacian ``L = I - W`` of the Metropolis-Hastings mixing matrix
    ``W`` on the edges of ``P``, whose weight on an edge is
    ``1 / (1 + max(deg_i, deg_j))`` with the degrees of ``P``.

    ``W`` is symmetric, nonnegative and doubly stochastic; a mix applies it
    as ``x - L.disagreement(x)``.
    """
    deg = P.degrees.tolist()
    return laplacian_weights(
        P.n_agents, {(i, j): 1.0 / (1.0 + max(deg[i], deg[j])) for i, j in P.edges}
    )


def _mix(v: np.ndarray, L: MatrixP) -> np.ndarray:
    """``v - L v`` (``W v``), written into the new array that
    ``L.disagreement`` returns."""
    out = L.disagreement(v)
    return np.subtract(v, out, out=out)


def dsgd_round(x, L: MatrixP, grad, config: RunConfig, k: int) -> np.ndarray:
    """Round ``k``: mix neighbor iterates through ``W = I - L``, step along
    the batch gradient ``grad(x, k)`` (:func:`~soprolab.optimizer.gradient`);
    return the new iterates.

    ``(x - L x) - s g`` is computed in place, in the mix's array."""
    out = _mix(x, L)
    out -= config.step_size * grad(x, k)
    return out


def dsgt_round(x, tracker, last_grads, L: MatrixP, grad, config: RunConfig, k: int):
    """Gradient-tracking round ``k``; iterates and trackers are both mixed
    through ``W = I - L``, and the batch gradients are ``grad(x, k + 1)``.

    Returns the new iterates, the new tracker and the batch gradients at
    the new iterates, which the next round's tracker update subtracts.
    The iterates are ``(x - L x) - s t`` and the tracker ``((t - L t) +
    g) - g_last``, each computed in place, in its mix's array.
    """
    x = _mix(x, L)
    x -= config.step_size * tracker
    grads = grad(x, k + 1)
    tracker = _mix(tracker, L)
    tracker += grads
    tracker -= last_grads
    return x, tracker, grads


def first_order(P: MatrixP, local: StackedSets, config: RunConfig):
    """DSGD or DSGT, set up for :func:`soprolab.optimizer.run`.

    The initial iterates are the proximal engine's (same seed, same x0),
    and the mixing weights are Metropolis, :func:`metropolis_matrix` on
    the edges of ``P``.  DSGT's tracker starts at the round-0 batch
    gradients, and it lives in the round function, with the last
    gradients.  Returns the initial state, the round function, and
    the scalars sent: none at set-up, ``2 |E| d`` per DSGD round and
    ``4 |E| d`` per DSGT round.
    """
    L = metropolis_matrix(P)
    x = initial_iterates(P, local, config)
    grad = gradient(local, config)
    state = NetworkState(x=x, q=np.zeros_like(x), y=np.zeros_like(x))
    sent = 2 * P.n_edges * state.dim
    if config.algorithm == "dsgd":
        def dsgd(state: NetworkState, k: int) -> None:
            state.x = dsgd_round(state.x, L, grad, config, k)

        return state, dsgd, 0, sent

    tracker = grads = grad(x, 0)

    def dsgt(state: NetworkState, k: int) -> None:
        nonlocal tracker, grads
        state.x, tracker, grads = dsgt_round(state.x, tracker, grads, L, grad, config, k)

    return state, dsgt, 0, 2 * sent
