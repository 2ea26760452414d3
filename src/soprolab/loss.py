"""l2-regularized logistic loss family, batch statistics, and data handling.

Per sample ``(a, b)`` with ``b in {-1, +1}`` the loss at ``x`` is
``(lam/2)||x||^2 + log(1 + exp(-b a^T x))``.  A local objective averages the
sample losses of one agent; batch gradients and Hessians average uniformly
chosen subsets and are unbiased for the full quantities.

Data stays in arrays from file to engine: :func:`parse_libsvm` returns one
``(n, d)`` feature matrix and ``(n,)`` labels, :func:`partition` gathers
the local sets into one ``(N, C, d)`` block, and the stacked functions
(:func:`stacked_grad`, :func:`stacked_curvature`, :func:`sigma_sq_estimate`)
work on all agents at once.  :class:`Sample` and the ``sample_*``
functions are the per-sample definitions those are checked against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InvariantViolation, ParameterError, ParseError

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
    "logistic_coef",
    "logistic_curvature",
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
        if not np.all(np.abs(self.labels) == 1):
            raise ParameterError("labels must be +-1")
        if not self.lambda_reg > 0:
            raise ParameterError(f"lambda_reg must be positive, got {self.lambda_reg}")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

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

    def __len__(self) -> int:
        return self.features.shape[0]


# Raw label sets the automatic rule accepts, in the order it tries them,
# and the raw label each maps to -1.
_LABEL_CONVENTIONS = (((-1.0, 1.0), -1.0), ((1.0, 2.0), 2.0), ((0.0, 1.0), 0.0))


def _map_labels(raw: np.ndarray, linenos: list[int]) -> np.ndarray:
    """Map raw labels to +-1 by the first convention that fits all of them.

    When none fits, the error names the first label in file order that no
    convention fits together with the labels before it.
    """
    breaks = []
    for allowed, negative in _LABEL_CONVENTIONS:
        outside = ~np.isin(raw, allowed)
        if not outside.any():
            return np.where(raw == negative, -1, 1)
        breaks.append(int(np.argmax(outside)))
    # The labels before the latest first break still fit one convention.
    k = max(breaks)
    raise ParseError(f"unmappable label {float(raw[k])}", line=linenos[k])


def _apply_label_map(raw: np.ndarray, linenos: list[int], label_map: dict) -> np.ndarray:
    table = {float(k): int(v) for k, v in label_map.items()}
    mapped = np.empty(raw.shape[0], dtype=int)
    for k, (v, lineno) in enumerate(zip(raw.tolist(), linenos)):
        if v not in table:
            raise ParseError(f"unmappable label {v}", line=lineno)
        if table[v] not in (-1, 1):
            raise ParseError(f"label map sends {v} outside +-1", line=lineno)
        mapped[k] = table[v]
    return mapped


_CHUNK_LINES = 1024
# Two colons in one token: no whitespace between them.
_DOUBLE_COLON = re.compile(r":[^\s:]*:")


def _parse_chunk(label_toks: list[str], bodies: list[str]):
    """Raw labels, tokens per line, and the indices and values of a chunk of
    data lines, or ``None`` when any token in it is malformed.

    A chunk is tokenized with whole-string operations.  It is well-formed
    when every feature token holds exactly one colon with text on both
    sides: as many colons as tokens, no token with two, and twice as many
    pieces as tokens once colons become spaces.  ``int`` and ``float``
    then convert the pieces, so a chunk is accepted exactly when each of
    its tokens would be on its own.
    """
    joined = " ".join(bodies)
    n_tokens = len(joined.split())
    pieces = joined.replace(":", " ").split()
    if (
        joined.count(":") != n_tokens
        or len(pieces) != 2 * n_tokens
        or _DOUBLE_COLON.search(joined)
    ):
        return None
    idx_strs = pieces[0::2]
    try:
        raw = np.array(list(map(float, label_toks)))
        # Files repeat at most d distinct indices, so each is converted once.
        index_of = {s: int(s) for s in set(idx_strs)}
        idx = np.array(list(map(index_of.__getitem__, idx_strs)), dtype=np.int64)
        val = np.array(list(map(float, pieces[1::2])), dtype=float)
    except ValueError:
        return None
    lens = np.array([b.count(":") for b in bodies])
    # Indices start above 0 and increase strictly within each line.
    prev = np.empty_like(idx)
    prev[1:] = idx[:-1]
    prev[(np.cumsum(lens) - lens)[lens > 0]] = 0
    if np.any(idx <= prev):
        return None
    return raw, lens, idx, val


def _raise_first_error(linenos: list[int], label_toks: list[str], bodies: list[str]):
    """Raise the error of the first malformed token of these data lines."""
    for lineno, label, body in zip(linenos, label_toks, bodies):
        try:
            float(label)
        except ValueError:
            raise ParseError(f"bad label token {label!r}", line=lineno) from None
        prev = 0
        for tok in body.split():
            try:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s)
                float(val_s)
            except ValueError:
                raise ParseError(f"bad feature token {tok!r}", line=lineno) from None
            if idx < 1:
                raise ParseError(f"index {idx} is not 1-based", line=lineno)
            if idx <= prev:
                raise ParseError(
                    f"indices must be strictly increasing, got {idx} after {prev}",
                    line=lineno,
                )
            prev = idx
    raise InvariantViolation("a rejected chunk has no malformed token")


def parse_libsvm(source, dim: int | None = None, label_map: dict | None = None):
    """Parse LIBSVM text into a dense feature matrix and +-1 labels.

    Each line that is neither blank nor a ``#`` comment is
    ``<label> <idx>:<val> ...`` with 1-based, strictly increasing indices.
    Labels are mapped to +-1: raw ``{-1,+1}`` pass through, ``{1,2}`` maps
    2 to -1, ``{0,1}`` maps 0 to -1; an explicit ``label_map`` overrides the
    automatic rule.  The dimension is the largest index seen, overridable
    upward via ``dim``.

    Lines are tokenized in chunks with whole-string operations and the
    entries scattered into one matrix.  A malformed chunk is walked token
    by token, so the :class:`ParseError` names the first bad token or label
    in file order and its line.

    Returns ``(features, labels)``: ``(n, d)`` floats and ``(n,)`` ints.
    """
    text = source.read() if hasattr(source, "read") else source
    if isinstance(text, bytes):
        text = text.decode()

    linenos: list[int] = []
    label_toks: list[str] = []
    bodies: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        ln = line.strip()
        if not ln or ln.startswith("#"):
            continue
        head = ln.split(None, 1)
        linenos.append(lineno)
        label_toks.append(head[0])
        bodies.append(head[1] if len(head) > 1 else "")

    raw = np.empty(len(linenos))
    rows, idxs, vals = [], [], []
    for start in range(0, len(linenos), _CHUNK_LINES):
        chunk = slice(start, start + _CHUNK_LINES)
        parsed = _parse_chunk(label_toks[chunk], bodies[chunk])
        if parsed is None:
            _raise_first_error(linenos[chunk], label_toks[chunk], bodies[chunk])
        raw[chunk], lens, idx, val = parsed  # raw labels, tokens per line, entries
        rows.append(np.repeat(np.arange(start, start + lens.shape[0]), lens))
        idxs.append(idx)
        vals.append(val)

    if label_map is not None:
        labels = _apply_label_map(raw, linenos, label_map)
    else:
        labels = _map_labels(raw, linenos)

    idx = np.concatenate(idxs) if idxs else np.zeros(0, dtype=np.int64)
    d = max(int(idx.max()) if idx.size else 0, dim or 0)
    features = np.zeros((len(linenos), d))
    if idx.size:
        features[np.concatenate(rows), idx - 1] = np.concatenate(vals)
    return features, labels


def partition(data, n_agents: int, per_agent: int, seed: int, lambda_reg: float):
    """Split uniformly permuted rows of ``data = (features, labels)`` into
    equal local datasets.

    ``features`` is ``(n, d)`` and ``labels`` ``(n,)`` of +-1, as
    :func:`parse_libsvm` returns them.  The first ``n_agents * per_agent``
    permuted rows form contiguous blocks of ``per_agent``; leftovers become
    the test set.  Deterministic per seed.  One gather stores the local
    features as a read-only ``(n_agents, per_agent, d)`` block whose rows
    the datasets view (see :func:`stack_local_sets`); neither it nor the
    test set shares memory with ``data``.  Returns ``(datasets, test_set)``.
    """
    if n_agents < 1 or per_agent < 1:
        raise ParameterError(f"need agents and samples per agent, got {n_agents} x {per_agent}")
    features = np.asarray(data[0], dtype=float)
    labels = np.asarray(data[1])
    if features.ndim != 2 or labels.shape != features.shape[:1]:
        raise ParameterError(
            f"need (n, d) features and (n,) labels, got {features.shape} and {labels.shape}"
        )
    total = labels.shape[0]
    need = n_agents * per_agent
    if need > total:
        raise ParameterError(
            f"{n_agents} agents x {per_agent} samples need {need}, only {total} available"
        )
    perm = np.random.default_rng(seed).permutation(total)
    block = np.empty((n_agents, per_agent, features.shape[1]))
    # A permutation is in range, and mode="clip" gathers straight into the
    # block where the default "raise" would gather into a temporary first.
    np.take(features, perm[:need], axis=0, out=block.reshape(need, -1), mode="clip")
    block.setflags(write=False)
    local_labels = labels[perm[:need]].reshape(n_agents, per_agent)
    datasets = [LocalDataset(block[i], local_labels[i], lambda_reg) for i in range(n_agents)]
    rest = perm[need:]
    return datasets, TestSet(features=features[rest], labels=labels[rest])


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
    coef = logistic_coef((feats @ x[:, :, None])[:, :, 0], labels)
    return (
        lam[:, None] * x
        - (feats.transpose(0, 2, 1) @ coef[:, :, None])[:, :, 0] / counts[:, None]
    )


def stacked_curvature(x: np.ndarray, feats: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``(N, k)`` Hessian weights of all agents' batches, as in :func:`batch_hess`.

    Agent ``i``'s batch Hessian is ``lam_i I + feats[i]^T diag(w[i]) feats[i]``.
    """
    return logistic_curvature((feats @ x[:, :, None])[:, :, 0]) / counts[:, None]


def logistic_coef(margins: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row gradient coefficients ``b * sigmoid(-b u)`` of the margins
    ``u = F x``: a batch gradient is ``lam x - F^T coef / count``."""
    return labels * expit(-labels * margins)


def logistic_curvature(margins: np.ndarray) -> np.ndarray:
    """Per-row Hessian weights ``p (1 - p)``, ``p = sigmoid(u)``, of the
    margins ``u = F x``."""
    p = expit(margins)
    return p * (1.0 - p)


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
    steady-state bounds conservative.  Each probe is evaluated for all
    agents at once over :func:`stack_local_sets`; padding rows are masked.
    """
    probes = list(probe_points)
    if not probes:
        raise ParameterError("need at least one probe point")
    feats, labels = stack_local_sets(datasets)
    _, width, d = feats.shape
    counts = np.array([ds.n_samples for ds in datasets])
    real = np.arange(width) < counts[:, None]
    row_sq = np.einsum("nwd,nwd->nw", feats, feats)
    worst = 0.0
    for x in probes:
        x = np.asarray(x, dtype=float)
        _check_dim(x, d)
        # per-sample grad_j = lam*x - c_j a_j and full grad = lam*x - u with
        # u the mean of c_j a_j, so the deviation is u - c_j a_j, whose
        # squared norm expands without forming it.
        c = labels * expit(-labels * (feats @ x))
        u = (feats.transpose(0, 2, 1) @ c[:, :, None])[:, :, 0] / counts[:, None]
        dev_sq = (
            np.einsum("nd,nd->n", u, u)[:, None]
            - 2.0 * c * (feats @ u[:, :, None])[:, :, 0]
            + c * c * row_sq
        )
        worst = max(worst, float(dev_sq[real].max()))
    return worst


def predict(x: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Classification rule ``sign(a^T x)`` with ties counted as +1."""
    return np.where(features @ x >= 0.0, 1, -1)
