"""Centralized reference solution and gradient-noise probes.

The aggregate objective ``F(x) = sum_i f_i(x)`` over a single variable is
strongly convex, so a damped Newton iteration drives its gradient norm to
essentially machine precision; the resulting point is the oracle against
which every decentralized trajectory is measured.

The iteration keeps its Hessian from one step to the next while the
gradient norm keeps falling fast: it forms the Hessian at the current
point again only when the norm did not fall to ``_REFACTOR_RATIO`` (0.1)
times its value at the step before.  An old Hessian still gives a descent
direction, and the Armijo search and the gradient tolerance are those of
plain Newton, so only the path to the optimum changes, not where it
stops.  Every step solves its Newton system by ``numpy.linalg.solve``,
which needs no scipy module.  At d = 112-123 that LU solve takes
0.09-0.2 ms on one OpenBLAS thread of a 2-vCPU x86 VM; over a solve's
7-14 steps and 3-4 Hessians it costs less than an inverse kept per
Hessian (0.5-0.7 ms each).  A float32 LU or inverse is no faster there.

The Hessian is assembled in float32 and summed into a float64 matrix
(:func:`_hessian`); its shift and the LU solve are float64.  Newton uses
the Hessian only as the metric of its step.  The margins, objective,
gradients, Armijo search and the test ``||g|| <= tol`` are float64, so
the solve stops only where the float64 gradient meets the tolerance, and
``x*`` lies within ``tol / sum(lam)`` of the true optimum as before.  A
metric off by float32 rounding (about 1e-7 relative) is an inexact
Newton method (Dembo, Eisenstat & Steihaug 1982) whose steps still
converge fast: on the benchmark's shapes the iteration and Hessian counts
equal those of a float64 build, and ``x*`` moved by at most 2e-16
relative.  A float32 build took 2.5-2.6, 2.9-3.4 and 4.0-4.5 ms at the
a4a, mushrooms and scale200 shapes (medians of 15 builds on each of 6
data seeds, in two runs, on one OpenBLAS thread of a 2-vCPU x86 VM), and
a float64 one about 1.6 times as long; the builds are about half of a
solve.

Every evaluation covers all agents at once over the stacked local sets
(:class:`~soprolab.loss.StackedSets`), and each is a function of them:
each row carries the weight ``1/C`` of its agent's average.  The margins
``F x`` of a point are computed once and serve its objective, gradient
and Hessian.  Margins and gradients read the sets' CSR operator through
:meth:`~soprolab.loss.StackedSets.matvec` and
:func:`~soprolab.loss.sets_grad`, as the rounds do.  The Hessian reads
the rows densely, in float32 with each row scaled by the square root of
its curvature weight, a run of whole agents at a time, through
:meth:`~soprolab.loss.StackedSets.agent_chunks`: ``loss`` owns every
dense read of the rows, and no ``(N, C, d)`` block is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SoprolabError
from ..loss import StackedSets, logistic_curvature, sets_grad, sigma_sq_estimate

__all__ = [
    "ReferenceSolution",
    "solve_reference",
    "probe_points",
    "estimate_sigma_sq",
]


@dataclass(frozen=True)
class ReferenceSolution:
    x: np.ndarray
    grad_norm: float
    iterations: int
    factorizations: int  # Hessians formed: the steps in between reuse the last
    # (N, d): row i is agent i's exact gradient at x; q* is its negative.
    local_grads: np.ndarray


# Relative rounding level of the summed objective, with room for the
# error of summing many per-sample losses.
_ROUNDING = 1e3 * np.finfo(float).eps

# A Newton step keeps the last Hessian when the gradient norm fell to at
# most this fraction of its value at the step before.
_REFACTOR_RATIO = 0.1


def _margins(local: StackedSets, x: np.ndarray) -> np.ndarray:
    """``(N, C)`` margins ``F x`` of every stacked row."""
    return local.matvec(np.broadcast_to(x, (len(local.lam), x.shape[0])))


def _objective(local: StackedSets, x: np.ndarray, u: np.ndarray) -> float:
    """``F(x)`` from the margins ``u`` of ``x``."""
    weight = 1.0 / local.shape[1]
    logistic = float(np.sum(weight * np.logaddexp(0.0, -local.labels * u)))
    return 0.5 * float(local.lam.sum()) * float(x @ x) + logistic


def _local_gradients(local: StackedSets, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``(N, d)``: row ``i`` is agent ``i``'s exact gradient at ``x``, from
    the margins ``u`` of ``x``."""
    return sets_grad(np.broadcast_to(x, (len(local.lam), x.shape[0])), local, None, u)


def _hessian(local: StackedSets, u: np.ndarray) -> np.ndarray:
    """Hessian of ``F`` at the point whose margins are ``u``, to float32
    accuracy: the metric of a Newton step, whose stopping test reads the
    float64 gradient, so the rounding changes the steps, not the tolerance
    the solve stops at (see the module docstring).

    The rows come from :meth:`~soprolab.loss.StackedSets.agent_chunks` in
    float32, each scaled there by the square root of its curvature weight.
    Each run's ``B^T B`` (a float32 ``syrk``) is added into a float64
    ``H``, and the shift ``sum(lam)`` is added in float64.
    """
    d = local.dim
    root = np.sqrt((1.0 / local.shape[1]) * logistic_curvature(u))
    H = np.zeros((d, d))
    for _, _, B in local.agent_chunks(np.float32, scale=root):
        B = B.reshape(-1, d)
        H += B.T @ B
    H.flat[:: d + 1] += local.lam.sum()
    return H


def solve_reference(
    local: StackedSets, tol: float = 1e-12, max_iters: int = 200
) -> ReferenceSolution:
    """Minimize the aggregate objective of the local sets by damped Newton.

    Stops when the gradient norm drops to ``tol``.  The Hessian is formed
    again only when the gradient norm did not fall by ``_REFACTOR_RATIO``
    over the last step (see the module docstring).
    """
    x = np.zeros(local.dim)
    u = _margins(local, x)
    f = _objective(local, x, u)
    H, factorizations, last_gn = None, 0, np.inf
    for it in range(max_iters):
        grads = _local_gradients(local, x, u)
        # Rows added in agent order, as a sum of per-agent gradients would.
        g = grads.sum(axis=0)
        gn = float(np.linalg.norm(g))
        if gn <= tol:
            return ReferenceSolution(
                x=x, grad_norm=gn, iterations=it, factorizations=factorizations,
                local_grads=grads,
            )
        if H is None or gn > _REFACTOR_RATIO * last_gn:
            H = _hessian(local, u)
            factorizations += 1
        last_gn = gn
        step = np.linalg.solve(H, g)
        t = 1.0
        gTs = float(g @ step)
        if gTs <= _ROUNDING * abs(f):
            # The expected decrease is below what f resolves, so the Armijo
            # test would compare rounding noise; this close to the optimum
            # the full step converges, and a step that does not cut the
            # gradient norm tenfold is followed by a fresh Hessian.
            x = x - step
            u = _margins(local, x)
            f = _objective(local, x, u)
            continue
        while t > 1e-12:
            cand = x - t * step
            uc = _margins(local, cand)
            fc = _objective(local, cand, uc)
            if fc <= f - 1e-4 * t * gTs:
                x, u, f = cand, uc, fc
                break
            t *= 0.5
        else:
            raise SoprolabError("reference Newton line search stalled")
    raise SoprolabError(
        f"reference Newton did not reach gradient norm {tol} in {max_iters} iterations"
    )


def probe_points(local: StackedSets, x_star: np.ndarray, n_steps: int = 8) -> list[np.ndarray]:
    """Probes for the gradient-noise estimate: origin, optimum, and the
    iterates of a short deterministic gradient descent between them."""
    probes = [np.zeros_like(x_star), x_star]
    total_M = float((local.lam + local.curvature_bound).sum())
    x = np.zeros_like(x_star)
    step = 1.0 / max(total_M, 1e-12)
    for _ in range(n_steps):
        # Rows added in agent order, as a sum of per-agent gradients would.
        x = x - step * _local_gradients(local, x, _margins(local, x)).sum(axis=0)
        probes.append(x.copy())
    return probes


def estimate_sigma_sq(local: StackedSets, x_star: np.ndarray) -> float:
    """Gradient-deviation bound over the default probe set."""
    return sigma_sq_estimate(local, probe_points(local, x_star))
