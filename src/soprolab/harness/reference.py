"""Centralized reference solution and gradient-noise probes.

The aggregate objective ``F(x) = sum_i f_i(x)`` over a single variable is
strongly convex, so a damped Newton iteration drives its gradient norm to
essentially machine precision; the resulting point is the oracle against
which every decentralized trajectory is measured.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ..errors import SoprolabError
from ..loss import batch_loss, full_grad, full_hess, sigma_sq_estimate

__all__ = ["ReferenceSolution", "solve_reference", "probe_points", "estimate_sigma_sq"]


@dataclass(frozen=True)
class ReferenceSolution:
    x: np.ndarray
    grad_norm: float
    iterations: int


_cache: dict[tuple, ReferenceSolution] = {}

# Relative rounding level of the summed objective, with room for the
# error of summing many per-sample losses.
_ROUNDING = 1e3 * np.finfo(float).eps


def _pool_key(datasets, tol):
    h = hashlib.sha256()
    for ds in datasets:
        h.update(np.ascontiguousarray(ds.features).tobytes())
        h.update(np.ascontiguousarray(ds.labels).tobytes())
        h.update(np.float64(ds.lambda_reg).tobytes())
    h.update(np.float64(tol).tobytes())
    return h.hexdigest()


def _objective(x, datasets):
    return sum(batch_loss(x, ds, np.arange(ds.n_samples)) for ds in datasets)


def _gradient(x, datasets):
    g = np.zeros_like(x)
    for ds in datasets:
        g += full_grad(x, ds)
    return g


def _hessian(x, datasets):
    d = datasets[0].dim
    H = np.zeros((d, d))
    for ds in datasets:
        H += full_hess(x, ds).dense()
    return H


def solve_reference(datasets, tol: float = 1e-12, max_iters: int = 200) -> ReferenceSolution:
    """Minimize the aggregate objective by damped Newton.

    Stops when the gradient norm drops to ``tol``; results are cached per
    dataset content and tolerance.
    """
    key = _pool_key(datasets, tol)
    hit = _cache.get(key)
    if hit is not None:
        return hit

    x = np.zeros(datasets[0].dim)
    f = _objective(x, datasets)
    for it in range(max_iters):
        g = _gradient(x, datasets)
        gn = float(np.linalg.norm(g))
        if gn <= tol:
            sol = ReferenceSolution(x=x, grad_norm=gn, iterations=it)
            _cache[key] = sol
            return sol
        H = _hessian(x, datasets)
        step = cho_solve(cho_factor(H), g)
        t = 1.0
        gTs = float(g @ step)
        if gTs <= _ROUNDING * abs(f):
            # The expected decrease is below what f resolves, so the Armijo
            # test would compare rounding noise; this close to the optimum
            # the full Newton step converges quadratically.
            x = x - step
            f = _objective(x, datasets)
            continue
        while t > 1e-12:
            cand = x - t * step
            fc = _objective(cand, datasets)
            if fc <= f - 1e-4 * t * gTs:
                x, f = cand, fc
                break
            t *= 0.5
        else:
            raise SoprolabError("reference Newton line search stalled")
    raise SoprolabError(
        f"reference Newton did not reach gradient norm {tol} in {max_iters} iterations"
    )


def probe_points(datasets, x_star: np.ndarray, n_steps: int = 8) -> list[np.ndarray]:
    """Probes for the gradient-noise estimate: origin, optimum, and the
    iterates of a short deterministic gradient descent between them."""
    probes = [np.zeros_like(x_star), x_star]
    total_M = sum(
        ds.lambda_reg + 0.25 * float(np.max(np.einsum("ij,ij->i", ds.features, ds.features)))
        for ds in datasets
    )
    x = np.zeros_like(x_star)
    step = 1.0 / max(total_M, 1e-12)
    for _ in range(n_steps):
        x = x - step * _gradient(x, datasets)
        probes.append(x.copy())
    return probes


def estimate_sigma_sq(datasets, x_star: np.ndarray) -> float:
    """Gradient-deviation bound over the default probe set."""
    return sigma_sq_estimate(datasets, probe_points(datasets, x_star))
