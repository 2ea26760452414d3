"""l2-regularized logistic loss family, batch statistics, and data handling.

Per sample ``(a, b)`` with ``b in {-1, +1}`` the loss at ``x`` is
``(lam/2)||x||^2 + log(1 + exp(-b a^T x))``.  A local objective averages the
sample losses of one agent; batch gradients and Hessians average uniformly
chosen subsets and are unbiased for the full quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ParameterError, ParseError

__all__ = [
    "Sample",
    "LocalDataset",
    "TestSet",
    "SmoothnessBounds",
    "LowRankHessian",
    "parse_libsvm",
    "partition",
    "sample_loss",
    "sample_grad",
    "sample_hess",
    "batch_loss",
    "batch_grad",
    "batch_hess",
    "full_grad",
    "full_hess",
    "stack_local_sets",
    "stacked_grad",
    "stacked_curvature",
    "smoothness",
    "sigma_sq_estimate",
    "predict",
]


@dataclass(frozen=True)
class Sample:
    """One labeled feature vector; the label is strictly -1 or +1."""

    features: np.ndarray
    label: int

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise ParameterError(f"label must be +-1, got {self.label}")
        self.features.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.features.shape[0]


@dataclass
class LocalDataset:
    """One agent's samples as stacked rows plus the shared regularizer."""

    features: np.ndarray  # (C, d)
    labels: np.ndarray  # (C,) of +-1
    lambda_reg: float

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ParameterError("need at least one sample")
        if self.labels.shape != (self.features.shape[0],):
            raise ParameterError("labels/features length mismatch")
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise ParameterError("labels must be +-1")
        if not self.lambda_reg > 0:
            raise ParameterError(f"lambda_reg must be positive, got {self.lambda_reg}")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    @classmethod
    def from_samples(cls, samples, lambda_reg: float) -> "LocalDataset":
        if not samples:
            raise ParameterError("need at least one sample")
        dims = {s.dim for s in samples}
        if len(dims) != 1:
            raise ParameterError(f"samples disagree on dimension: {sorted(dims)}")
        feats = np.stack([s.features for s in samples]).astype(float)
        labels = np.array([s.label for s in samples], dtype=int)
        return cls(features=feats, labels=labels, lambda_reg=lambda_reg)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def sample(self, i: int) -> Sample:
        return Sample(features=self.features[i].copy(), label=int(self.labels[i]))


@dataclass
class TestSet:
    """Held-out samples for accuracy reporting; may be empty."""

    features: np.ndarray
    labels: np.ndarray

    @classmethod
    def from_samples(cls, samples, dim: int | None = None) -> "TestSet":
        if not samples:
            d = 0 if dim is None else dim
            return cls(features=np.zeros((0, d)), labels=np.zeros(0, dtype=int))
        feats = np.stack([s.features for s in samples]).astype(float)
        labels = np.array([s.label for s in samples], dtype=int)
        return cls(features=feats, labels=labels)

    def __len__(self) -> int:
        return self.features.shape[0]


def _map_labels(raw: list[float], lineno_of) -> list[int]:
    distinct = set(raw)
    if distinct <= {-1.0, 1.0}:
        table = {-1.0: -1, 1.0: 1}
    elif distinct <= {1.0, 2.0}:
        table = {1.0: 1, 2.0: -1}
    elif distinct <= {0.0, 1.0}:
        table = {0.0: -1, 1.0: 1}
    else:
        bad = sorted(distinct - {-1.0, 0.0, 1.0, 2.0})[0]
        raise ParseError(f"unmappable label {bad}", line=lineno_of(bad))
    return [table[v] for v in raw]


def parse_libsvm(source, dim: int | None = None, label_map: dict | None = None):
    """Parse LIBSVM text into samples.

    Each nonempty line is ``<label> <idx>:<val> ...`` with 1-based, strictly
    increasing indices.  Labels are mapped to +-1: raw ``{-1,+1}`` pass
    through, ``{1,2}`` maps 2 to -1, ``{0,1}`` maps 0 to -1; an explicit
    ``label_map`` overrides the automatic rule.  The dimension is the largest
    index seen, overridable upward via ``dim``.

    Returns ``(samples, d)``.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    if isinstance(text, bytes):
        text = text.decode()

    raw_labels: list[float] = []
    label_lines: list[int] = []
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    max_index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise ParseError(f"bad label token {parts[0]!r}", line=lineno)
        idxs = []
        vals = []
        prev = 0
        for tok in parts[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"bad feature token {tok!r}", line=lineno)
            if idx < 1:
                raise ParseError(f"index {idx} is not 1-based", line=lineno)
            if idx <= prev:
                raise ParseError(
                    f"indices must be strictly increasing, got {idx} after {prev}",
                    line=lineno,
                )
            prev = idx
            idxs.append(idx)
            vals.append(val)
        max_index = max(max_index, prev)
        raw_labels.append(label)
        label_lines.append(lineno)
        rows.append((np.array(idxs, dtype=int), np.array(vals, dtype=float)))

    if label_map is not None:
        table = {float(k): int(v) for k, v in label_map.items()}
        mapped = []
        for v, lineno in zip(raw_labels, label_lines):
            if v not in table:
                raise ParseError(f"unmappable label {v}", line=lineno)
            if table[v] not in (-1, 1):
                raise ParseError(f"label map sends {v} outside +-1", line=lineno)
            mapped.append(table[v])
    else:

        def lineno_of(bad):
            return label_lines[raw_labels.index(bad)]

        mapped = _map_labels(raw_labels, lineno_of)

    d = max(max_index, dim or 0)
    samples = []
    for (idxs, vals), b in zip(rows, mapped):
        a = np.zeros(d)
        if idxs.size:
            a[idxs - 1] = vals
        samples.append(Sample(features=a, label=b))
    return samples, d


def partition(samples, n_agents: int, per_agent: int, seed: int, lambda_reg: float):
    """Split a uniformly permuted sample list into equal local datasets.

    The first ``n_agents * per_agent`` permuted samples form contiguous
    blocks of ``per_agent``; leftovers become the test set.  Deterministic
    per seed.  The local features are stored once, as one read-only
    ``(n_agents, per_agent, d)`` block whose rows the datasets view (see
    :func:`stack_local_sets`).  Returns ``(datasets, test_set)``.
    """
    if n_agents < 1 or per_agent < 1:
        raise ParameterError(f"need agents and samples per agent, got {n_agents} x {per_agent}")
    total = len(samples)
    need = n_agents * per_agent
    if need > total:
        raise ParameterError(
            f"{n_agents} agents x {per_agent} samples need {need}, only {total} available"
        )
    perm = np.random.default_rng(seed).permutation(total)
    dims = {samples[k].dim for k in perm[:need]}
    if len(dims) != 1:
        raise ParameterError(f"samples disagree on dimension: {sorted(dims)}")
    block = np.empty((n_agents, per_agent, dims.pop()))
    np.stack([samples[k].features for k in perm[:need]], out=block.reshape(need, -1))
    block.setflags(write=False)
    labels = np.array([samples[k].label for k in perm[:need]]).reshape(n_agents, per_agent)
    datasets = [LocalDataset(block[i], labels[i], lambda_reg) for i in range(n_agents)]
    leftovers = [samples[k] for k in perm[need:]]
    dim = samples[0].dim if samples else 0
    return datasets, TestSet.from_samples(leftovers, dim=dim)


def stack_local_sets(datasets) -> tuple[np.ndarray, np.ndarray]:
    """All local sets as ``(N, W, d)`` features and ``(N, W)`` float labels.

    ``W`` is the largest local set.  Datasets that view consecutive rows of
    one block, as :func:`partition` makes them, return that block itself,
    so the features are stored once.  Other sets are copied, and smaller
    ones padded with zero rows labelled 0, which add nothing to a batch sum.
    """
    block = datasets[0].features.base
    if (
        isinstance(block, np.ndarray)
        and block.ndim == 3
        and block.shape[0] == len(datasets)
        and all(_is_row(ds.features, block, i) for i, ds in enumerate(datasets))
    ):
        return block, np.stack([ds.labels for ds in datasets]).astype(float)
    width = max(ds.n_samples for ds in datasets)
    feats = np.zeros((len(datasets), width, datasets[0].dim))
    labels = np.zeros((len(datasets), width))
    for i, ds in enumerate(datasets):
        feats[i, : ds.n_samples] = ds.features
        labels[i, : ds.n_samples] = ds.labels
    return feats, labels


def _is_row(features: np.ndarray, block: np.ndarray, i: int) -> bool:
    row = block[i]
    return (
        features.shape == row.shape
        and features.strides == row.strides
        and features.ctypes.data == row.ctypes.data
    )


@dataclass
class LowRankHessian:
    """Hessian in ``lam * I + feats^T diag(weights) feats`` form.

    ``weights`` already include the batch-averaging factor, so ``dense()``
    is the exact averaged Hessian.
    """

    lam: float
    weights: np.ndarray  # (k,)
    feats: np.ndarray  # (k, d)

    @property
    def dim(self) -> int:
        return self.feats.shape[1]

    def dense(self) -> np.ndarray:
        H = self.feats.T @ (self.weights[:, None] * self.feats)
        H.flat[:: H.shape[0] + 1] += self.lam
        return H


def _check_dim(x: np.ndarray, d: int):
    if x.shape != (d,):
        raise ParameterError(f"dimension mismatch: x has shape {x.shape}, expected ({d},)")


def sample_loss(x: np.ndarray, s: Sample, lam: float) -> float:
    """Loss value; the logistic term uses a stable soft-plus."""
    _check_dim(x, s.dim)
    z = s.label * float(s.features @ x)
    return 0.5 * lam * float(x @ x) + float(np.logaddexp(0.0, -z))


def sample_grad(x: np.ndarray, s: Sample, lam: float) -> np.ndarray:
    """Gradient ``lam*x - b * sigmoid(-b a^T x) * a``."""
    _check_dim(x, s.dim)
    z = s.label * float(s.features @ x)
    return lam * x - (s.label * expit(-z)) * s.features


def sample_hess(x: np.ndarray, s: Sample, lam: float) -> LowRankHessian:
    """Hessian ``lam*I + w a a^T`` with logistic curvature ``w <= 1/4``."""
    _check_dim(x, s.dim)
    p = expit(float(s.features @ x))
    return LowRankHessian(
        lam=lam, weights=np.array([p * (1.0 - p)]), feats=s.features[None, :]
    )


def _as_index_array(ds: LocalDataset, indices) -> np.ndarray:
    idx = np.asarray(sorted(indices) if not isinstance(indices, np.ndarray) else indices)
    if idx.size == 0:
        raise ParameterError("empty index set")
    if idx.min() < 0 or idx.max() >= ds.n_samples:
        raise ParameterError(
            f"index out of range 0..{ds.n_samples - 1}: {idx.min()}..{idx.max()}"
        )
    return idx


def batch_loss(x: np.ndarray, ds: LocalDataset, indices) -> float:
    idx = _as_index_array(ds, indices)
    _check_dim(x, ds.dim)
    z = ds.labels[idx] * (ds.features[idx] @ x)
    return 0.5 * ds.lambda_reg * float(x @ x) + float(
        np.mean(np.logaddexp(0.0, -z))
    )


def batch_grad(x: np.ndarray, ds: LocalDataset, indices) -> np.ndarray:
    """Mean of per-sample gradients over ``indices`` (all of them: exact gradient).

    Summation follows ascending index order so a full batch is bitwise
    reproducible no matter how the indices were drawn.
    """
    idx = _as_index_array(ds, indices)
    _check_dim(x, ds.dim)
    F = ds.features[idx]
    b = ds.labels[idx]
    coef = b * expit(-b * (F @ x))
    return ds.lambda_reg * x - (F.T @ coef) / idx.size


def batch_hess(x: np.ndarray, ds: LocalDataset, indices) -> LowRankHessian:
    """Mean of per-sample Hessians over ``indices`` in low-rank form."""
    idx = _as_index_array(ds, indices)
    _check_dim(x, ds.dim)
    F = ds.features[idx]
    p = expit(F @ x)
    return LowRankHessian(lam=ds.lambda_reg, weights=p * (1.0 - p) / idx.size, feats=F)


def full_grad(x: np.ndarray, ds: LocalDataset) -> np.ndarray:
    return batch_grad(x, ds, np.arange(ds.n_samples))


def full_hess(x: np.ndarray, ds: LocalDataset) -> LowRankHessian:
    return batch_hess(x, ds, np.arange(ds.n_samples))


def stacked_grad(
    x: np.ndarray,
    feats: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    lam: np.ndarray,
) -> np.ndarray:
    """Batch gradients of all agents at once, one row each.

    ``x`` is ``(N, d)``; agent ``i``'s batch is the rows ``feats[i]``
    (``(N, k, d)``) with labels ``labels[i]`` (``(N, k)``), of which the
    first ``counts[i]`` are real and the rest are zero padding; ``lam`` is
    ``(N,)``.  Row ``i`` equals :func:`batch_grad` on the same rows: with
    one BLAS thread, stacked ``matmul`` makes the same calls per agent.
    """
    coef = labels * expit(-labels * (feats @ x[:, :, None])[:, :, 0])
    return (
        lam[:, None] * x
        - (feats.transpose(0, 2, 1) @ coef[:, :, None])[:, :, 0] / counts[:, None]
    )


def stacked_curvature(x: np.ndarray, feats: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``(N, k)`` Hessian weights of all agents' batches, as in :func:`batch_hess`.

    Agent ``i``'s batch Hessian is ``lam_i I + feats[i]^T diag(w[i]) feats[i]``.
    """
    p = expit((feats @ x[:, :, None])[:, :, 0])
    return p * (1.0 - p) / counts[:, None]


def smoothness(ds: LocalDataset) -> tuple[float, float]:
    """Per-agent curvature bounds ``(m_i, M_i)``.

    The regularizer gives ``m_i = lam``; the tight per-sample logistic bound
    gives ``M_i = lam + max_j ||a_j||^2 / 4``.
    """
    sq = np.einsum("ij,ij->i", ds.features, ds.features)
    return ds.lambda_reg, ds.lambda_reg + 0.25 * float(sq.max())


@dataclass(frozen=True)
class SmoothnessBounds:
    """Network-level curvature bounds: vectors of the per-agent m_i, M_i."""

    m: np.ndarray  # (N,)
    M: np.ndarray  # (N,)

    def __post_init__(self):
        if self.m.shape != self.M.shape:
            raise ParameterError("m/M length mismatch")
        if np.any(self.m < 0) or np.any(self.M <= 0) or np.any(self.m > self.M):
            raise ParameterError("need 0 <= m_i <= M_i with M_i > 0")
        self.m.setflags(write=False)
        self.M.setflags(write=False)

    @classmethod
    def from_datasets(cls, datasets) -> "SmoothnessBounds":
        pairs = [smoothness(ds) for ds in datasets]
        return cls(
            m=np.array([p[0] for p in pairs]), M=np.array([p[1] for p in pairs])
        )

    @property
    def n_agents(self) -> int:
        return self.m.shape[0]

    @property
    def max_M(self) -> float:
        return float(self.M.max())

    @property
    def min_m(self) -> float:
        return float(self.m.min())


def sigma_sq_estimate(datasets, probe_points) -> float:
    """Empirical gradient-deviation bound.

    Maximum over agents, samples, and probe points of
    ``||grad l_ij(x) - grad f_i(x)||^2``.  The max over samples dominates the
    in-expectation deviation the certificates need, making the reported
    steady-state bounds conservative.
    """
    probes = list(probe_points)
    if not probes:
        raise ParameterError("need at least one probe point")
    worst = 0.0
    for ds in datasets:
        F = ds.features
        row_sq = np.einsum("ij,ij->i", F, F)
        for x in probes:
            _check_dim(np.asarray(x, dtype=float), ds.dim)
            full = full_grad(x, ds)
            # per-sample grad_j = lam*x - c_j a_j; deviation d_j = u - c_j a_j
            # with u = lam*x - full, so ||d_j||^2 expands without forming d_j.
            c = ds.labels * expit(-ds.labels * (F @ x))
            u = ds.lambda_reg * x - full
            dev_sq = float(u @ u) - 2.0 * c * (F @ u) + c * c * row_sq
            worst = max(worst, float(dev_sq.max()))
    return worst


def predict(x: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Classification rule ``sign(a^T x)`` with ties counted as +1."""
    return np.where(features @ x >= 0.0, 1, -1)
