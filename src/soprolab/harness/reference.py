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
(:meth:`_Pool.hessian`); its shift and the LU solve are float64.  Newton
uses the Hessian only as the metric of its step.  The margins, objective,
gradients, Armijo search and the test ``||g|| <= tol`` are float64, so
the solve stops only where the float64 gradient meets the tolerance, and
``x*`` lies within ``tol / sum(lam)`` of the true optimum as before.  A
metric off by float32 rounding (about 1e-7 relative) is an inexact
Newton method (Dembo, Eisenstat & Steihaug 1982) whose steps still
converge fast: on the benchmark's shapes the iteration and Hessian counts
equal those of a float64 build, and ``x*`` moved by at most 2e-16
relative.  A build takes 1.9, 2.1 and 3.1 ms at the a4a, mushrooms and
scale200 shapes, against 3.0, 3.3 and 4.9 ms in float64 (medians over
15 solves, same VM); the builds are still about 60% of a solve.

Every evaluation covers all agents at once over the stacked local sets
(:class:`~soprolab.loss.StackedSets`): each row carries the weight
``1/C`` of its agent's average.  The margins
``F x`` of a point are computed once and serve its objective, gradient
and Hessian.  Margins and gradients read the sets' CSR operator through
:meth:`~soprolab.loss.StackedSets.matvec` and
:func:`~soprolab.loss.sets_grad`, as the rounds do.  The Hessian reads
the rows densely, ``READ_CHUNK_ROWS`` at a time, through
:meth:`~soprolab.loss.StackedSets.dense_rows`, and scales each chunk in
one float32 buffer per solve; no ``(N, C, d)`` block is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import loss
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


class _Pool:
    """The stacked local sets, with the per-row weight ``1/C`` of the averages."""

    def __init__(self, local: StackedSets):
        self.local = local
        n, per_agent, d = local.shape
        self.weight = 1.0 / per_agent
        # Every Hessian build writes each chunk of rows into it and scales
        # it there: a new array a chunk cost more than the scaling.  The
        # chunk bounds the buffer instead of one copy of the whole stack.
        # float32: the build's metric (see hessian).
        self.chunk = loss.READ_CHUNK_ROWS
        self.rows = np.empty((min(self.chunk, n * per_agent), d), dtype=np.float32)

    def _spread(self, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(x, (len(self.local.lam), x.shape[0]))

    def margins(self, x: np.ndarray) -> np.ndarray:
        """``(N, C)`` margins ``F x`` of every stacked row."""
        return self.local.matvec(self._spread(x))

    def objective(self, x: np.ndarray, u: np.ndarray) -> float:
        """``F(x)`` from the margins ``u`` of ``x``."""
        logistic = float(np.sum(self.weight * np.logaddexp(0.0, -self.local.labels * u)))
        return 0.5 * float(self.local.lam.sum()) * float(x @ x) + logistic

    def local_gradients(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``(N, d)``: row ``i`` is agent ``i``'s exact gradient at ``x``,
        from the margins ``u`` of ``x``."""
        return sets_grad(self._spread(x), self.local, None, u)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        # Rows added in agent order, as a sum of per-agent gradients would.
        return self.local_gradients(x, self.margins(x)).sum(axis=0)

    def hessian(self, u: np.ndarray) -> np.ndarray:
        """Hessian of ``F`` at the point whose margins are ``u``, to float32
        accuracy: the metric of a Newton step, whose stopping test reads
        the float64 gradient, so the rounding changes the steps, not the
        tolerance the solve stops at.  It costs about 1.9 ms at the a4a
        shape against 3.0 ms in float64 (see the module docstring).

        Each chunk of rows is read and scaled by the square roots of its
        curvature weights in one float32 multiply, whether ``dense_rows``
        wrote the chunk into the float32 buffer or returned a float64
        view: both round the stored entries and the roots to float32 and
        then multiply, so the two routes give the same bits.  Each chunk's
        ``B^T B`` (a float32 ``syrk``) is added into a float64 ``H``, and
        the shift ``sum(lam)`` is added in float64.
        """
        d = self.local.dim
        root = np.sqrt(self.weight * logistic_curvature(u)).reshape(-1)
        H = np.zeros((d, d))
        for start in range(0, root.size, self.chunk):
            stop = min(start + self.chunk, root.size)
            B = self.rows[: stop - start]
            rows = self.local.dense_rows(start, stop, B)
            np.multiply(rows, root[start:stop, None], out=B, dtype=np.float32)
            H += B.T @ B
        H.flat[:: d + 1] += self.local.lam.sum()
        return H


def solve_reference(
    local: StackedSets, tol: float = 1e-12, max_iters: int = 200
) -> ReferenceSolution:
    """Minimize the aggregate objective of the local sets by damped Newton.

    Stops when the gradient norm drops to ``tol``.  The Hessian is formed
    again only when the gradient norm did not fall by ``_REFACTOR_RATIO``
    over the last step (see the module docstring).
    """
    pool = _Pool(local)
    x = np.zeros(local.dim)
    u = pool.margins(x)
    f = pool.objective(x, u)
    H, factorizations, last_gn = None, 0, np.inf
    for it in range(max_iters):
        grads = pool.local_gradients(x, u)
        # Rows added in agent order, as a sum of per-agent gradients would.
        g = grads.sum(axis=0)
        gn = float(np.linalg.norm(g))
        if gn <= tol:
            return ReferenceSolution(
                x=x, grad_norm=gn, iterations=it, factorizations=factorizations,
                local_grads=grads,
            )
        if H is None or gn > _REFACTOR_RATIO * last_gn:
            H = pool.hessian(u)
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
            u = pool.margins(x)
            f = pool.objective(x, u)
            continue
        while t > 1e-12:
            cand = x - t * step
            uc = pool.margins(cand)
            fc = pool.objective(cand, uc)
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
    pool = _Pool(local)
    probes = [np.zeros_like(x_star), x_star]
    total_M = float((local.lam + local.curvature_bound).sum())
    x = np.zeros_like(x_star)
    step = 1.0 / max(total_M, 1e-12)
    for _ in range(n_steps):
        x = x - step * pool.gradient(x)
        probes.append(x.copy())
    return probes


def estimate_sigma_sq(local: StackedSets, x_star: np.ndarray) -> float:
    """Gradient-deviation bound over the default probe set."""
    return sigma_sq_estimate(local, probe_points(local, x_star))
