"""Bundled synthetic classification data so the suite runs without downloads."""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError

__all__ = ["gaussian_blob_samples"]


def gaussian_blob_samples(
    n: int,
    dim: int,
    seed: int,
    separation: float = 1.0,
    noise: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Two separable Gaussian blobs: ``(n, dim)`` features and ``(n,)`` labels -1/+1.

    Class means sit at ``+- (separation/2) u`` along a random unit direction
    ``u``; isotropic noise has total variance ``noise**2`` regardless of
    dimension, keeping feature norms (hence smoothness constants) O(1).
    """
    if n < 1 or dim < 1:
        raise ParameterError("need n >= 1 samples and dim >= 1")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    labels = rng.choice((-1, 1), size=n)
    feats = (
        0.5 * separation * labels[:, None] * u[None, :]
        + (noise / np.sqrt(dim)) * rng.standard_normal((n, dim))
    )
    return feats, labels
