"""Per-line, per-sample, per-pair and per-agent versions of the array
set-up code, the dense and stacked forms that the sparse set-up, the CSR
operator of the local sets and the per-agent dense step replaced, and the
numerical search (with the plain ``kappa`` evaluation) that the
certificate's closed forms replaced, and the eigen-coordinate Q-norm error
that its Gram form replaced, and the proximal round that read the whole
local sets, with zero coefficients and weights off its batches, which the
round on the gathered batch rows replaced, and the choice between the
Neumann series and CG by their term counts, which the engine's one bound
on rho replaced.  The per-sample loss, gradient
and Hessian (:class:`Sample`), the per-agent batch loss, one agent's batch
statistics of a round and the two-dimensional batch draw are the
definitions the loss, the round and the draw are checked against.

Each function here is the plain loop or search that a routine of
``soprolab`` replaced; the tests check the routines against them.  The
last two are the relative error and the certified alphas that several
test modules measure with, and :func:`parse_text` is how they hand LIBSVM
text to the parser, which reads a file.
"""

import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dposv
from scipy.optimize import brentq, minimize_scalar
from scipy.sparse import csr_matrix
from scipy.special import expit

from soprolab.certificate import _condition_shift, _lambda_min_shifted, m_beta, proximal_alphas
from soprolab.errors import ConfigurationError, ParameterError, ParseError, SoprolabError
from soprolab import optimizer
from soprolab.loss import (
    LocalDataset,
    LowRankHessian,
    SmoothnessBounds,
    StackedSets,
    TestSet,
    _as_index_array,
    _block_diagonal,
    _check_dim,
    batch_grad,
    batch_hess,
    full_grad,
    logistic_coef,
    logistic_curvature,
    parse_libsvm,
    sigmoid,
)
from soprolab.optimizer import draw_positions, sample_batches, substream
from soprolab.sparse import Csr
from soprolab.topology import _tree_from_pruefer

# Raw label sets LIBSVM files use, in the order they are tried, as maps to +-1.
LABEL_CONVENTIONS = ({-1.0: -1, 1.0: 1}, {1.0: 1, 2.0: -1}, {0.0: -1, 1.0: 1})


def map_labels_in_order(raw_labels, label_lines):
    """Keep the conventions that fit every label so far; fail at the first
    label that leaves none."""
    fitting = list(LABEL_CONVENTIONS)
    for v, lineno in zip(raw_labels, label_lines):
        fitting = [table for table in fitting if v in table]
        if not fitting:
            raise ParseError(f"unmappable label {v}", line=lineno)
    table = fitting[0]
    return [table[v] for v in raw_labels]


def parse_libsvm_per_token(text, dim=None):
    """Parse LIBSVM text one line and one token at a time: the bytes of
    ``text`` (a ``str``'s UTF-8), refused at the first byte that is not
    ASCII, in lines split at ``b"\\n"`` and tokens split by ``bytes.split()``."""
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    for k, byte in enumerate(data):
        if byte >= 0x80:
            raise ParseError(f"non-ASCII byte {byte:#04x}", line=data[:k].count(b"\n") + 1)
    raw_labels, label_lines, rows = [], [], []
    max_index = 0
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        parts = [tok.decode() for tok in line.split()]
        if not parts or parts[0].startswith("#"):
            continue
        try:
            label = float(parts[0])
        except ValueError:
            raise ParseError(f"bad label token {parts[0]!r}", line=lineno)
        idxs, vals = [], []
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
            if idx >= 2**63:
                raise ParseError(f"feature token {tok!r} has an index past int64", line=lineno)
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
    labels = map_labels_in_order(raw_labels, label_lines)
    features = np.zeros((len(rows), max(max_index, dim or 0)))
    for k, (idxs, vals) in enumerate(rows):
        if idxs.size:
            features[k, idxs - 1] = vals
    return features, np.array(labels, dtype=int)


def parse_text(text, dim=None):
    """:func:`~soprolab.loss.parse_libsvm` of a file that holds ``text``
    (a ``str``'s UTF-8, or ``bytes``), written into a temporary
    directory."""
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "data.svm"
        path.write_bytes(data)
        return parse_libsvm(path, dim=dim)


def parse_and_partition_dense(text, n_agents, per_agent, seed, dim=None):
    """Parse ``text`` into a dense matrix with :func:`parse_libsvm_per_token`,
    then gather the permuted rows into the local block and the test set
    with one dense ``np.take`` and one fancy index.  Returns ``(block,
    labels, test_features, test_labels)``: the ``(N, C, d)`` block and
    ``(N, C)`` float labels of the local sets, and the dense test set."""
    features, labels = parse_libsvm_per_token(text, dim=dim)
    need = n_agents * per_agent
    perm = np.random.default_rng(seed).permutation(labels.shape[0])
    block = np.empty((n_agents, per_agent, features.shape[1]))
    np.take(features, perm[:need], axis=0, out=block.reshape(need, -1), mode="clip")
    local_labels = labels[perm[:need]].reshape(n_agents, per_agent).astype(float)
    rest = perm[need:]
    return block, local_labels, features[rest], labels[rest]


def csr_rows(rows, labels):
    """``(rows, labels)`` with the dense ``(n, d)`` ``rows`` as the
    :class:`~soprolab.sparse.Csr` of their nonzero entries: the form in
    which :func:`~soprolab.loss.partition` takes them, as the synthetic
    loader makes it."""
    return Csr.from_dense(np.asarray(rows, dtype=float)), labels


def densify(rows):
    """The ``(n, d)`` CSR matrix ``rows`` as a dense array.  Its stored
    entries are written, not added (as ``toarray`` does), so that an
    explicit ``-0.0`` keeps its sign."""
    out = np.zeros(rows.shape)
    out[np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr)), rows.indices] = rows.data
    return out


def scipy_csr(rows):
    """The :class:`~soprolab.sparse.Csr` ``rows`` as a
    ``scipy.sparse.csr_matrix`` over the same entries."""
    return csr_matrix((rows.data, rows.indices, rows.indptr), shape=rows.shape)


def dense_step_stacked(x, rhs, F, w, c):
    """The proximal step of ``row_step`` by dense ``d x d`` factorisations,
    with every ``B_i^T B_i = F_i^T diag(w_i) F_i`` stacked: one product
    builds them all, then one ``dposv`` per agent solves its shifted
    system.  The first failing agent is named as ``agent i:``."""
    H = F.transpose(0, 2, 1) @ (w[:, :, None] * F)
    diag = np.arange(H.shape[1])
    H[:, diag, diag] += c[:, None]
    z = rhs.copy()
    for i in range(len(H)):
        if dposv(H[i].T, z[i], lower=1, overwrite_a=1, overwrite_b=1)[2] > 0:
            raise ConfigurationError(f"agent {i}: not positive definite")
    return x - z


def sets_rmatvec(local, v):
    """``(N, d)`` sums ``F_i^T v_i`` of every agent's rows under its row of
    the ``(N, C)`` weights ``v``: one transpose product of ``local.csr``."""
    return local.csr.rmatvec(v.ravel()).reshape(len(v), -1)


def zero_off_batch(local, idx, fn, *rows):
    """``fn`` of every agent's batch, and the batch size: ``rows`` are
    ``(N, C)`` arrays over the whole local sets and ``idx`` the flat
    positions of the batches in them (``None``: the whole sets).  Returns
    the ``(N, C)`` values of ``fn`` at the batch rows, zero off them, and
    the batch size that a batch mean divides by."""
    n, C = local.labels.shape
    if idx is None:
        return fn(*rows), C
    values = np.zeros((n, C))
    values.ravel()[idx] = fn(*(r.ravel()[idx] for r in rows))
    return values, idx.size // n


def whole_set_grad(x, local, idx, margins):
    """``sets_grad`` read from the whole local sets: their ``(N, C)``
    margins ``margins`` at the batch ``idx``, and one transpose product of
    the whole sets under coefficients that are zero off it."""
    coef, size = zero_off_batch(local, idx, logistic_coef, margins, local.labels)
    return local.lam[:, None] * x - sets_rmatvec(local, coef) / size


def whole_set_row_step(x, rhs, local, w, c, solve, terms, round_idx=None):
    """``row_step`` on the whole local sets ``local``: ``w`` is ``(N, C)``,
    zero off the Hessian batch, and every term or iteration applies
    ``F_i^T (w_i (F_i v))`` through ``local.matvec`` and :func:`sets_rmatvec`."""
    optimizer._check_shift(c)

    def apply_h(v):
        return sets_rmatvec(local, w * local.matvec(v))

    if solve == "series":
        return x - optimizer._series_solve(apply_h, rhs, c, terms)
    return x - optimizer._cg_solve(apply_h, rhs, c, terms, round_idx)


def whole_set_gram_step(x, rhs, local, w, c, gram, s_idx):
    """``gram_step`` on the whole local sets: ``F r`` by one
    ``local.matvec`` read at the batch rows, and the step by one
    :func:`sets_rmatvec` of ``(N, C)`` values that are zero off them."""
    optimizer._check_shift(c)
    n, C = w.shape
    rows = s_idx.reshape(n, -1)
    sw = np.sqrt(w.ravel()[rows])
    at = rows - np.arange(0, n * C, C)[:, None]
    K = np.take(gram, rows[:, :, None] * C + at[:, None, :])
    K *= sw[:, :, None] * sw[:, None, :]
    diag = np.arange(K.shape[1])
    K[:, diag, diag] += c[:, None]
    z = sw * local.matvec(rhs).ravel()[rows]
    optimizer._cholesky_solve(K, z)
    z *= sw
    v = np.zeros_like(w)
    v.ravel()[rows] = z
    return x - (rhs - sets_rmatvec(local, v)) / c[:, None]


def whole_set_history(P, local, config, alphas):
    """The ``(x, q)`` of every round of a proximal ``optimizer.run`` that
    reads the whole local sets: one margins product shared by the gradient
    (:func:`whole_set_grad`) and the curvature weights, which are zero off
    the Hessian batch (:func:`zero_off_batch`), and solves through the
    whole sets (:func:`whole_set_row_step`, :func:`whole_set_gram_step`)."""
    state = optimizer.init_network(P, local, config)
    engine = optimizer.proximal_engine(local, config, alphas)
    gram = optimizer.gram_stack(local) if engine.solve == "cholesky" else None
    G, S = config.batches(local.shape[1])
    shift = local.lam + alphas
    history = [(state.x.copy(), state.q.copy())]
    for k in range(config.max_iters):
        with np.errstate(over="ignore", invalid="ignore"):
            g_idx = optimizer.batch_positions(local, G, config.seed, k, optimizer.PURPOSE_GRAD)
            s_idx = optimizer.batch_positions(local, S, config.seed, k, optimizer.PURPOSE_HESS)
            u = local.matvec(state.x)
            rhs = whole_set_grad(state.x, local, g_idx, u) + config.beta * state.y + state.q
            w, size = zero_off_batch(local, s_idx, logistic_curvature, u)
            w /= size
            if gram is None:
                state.x = whole_set_row_step(state.x, rhs, local, w, shift, engine.solve,
                                             engine.terms, k + 1)
            else:
                state.x = whole_set_gram_step(state.x, rhs, local, w, shift, gram, s_idx)
            optimizer.exchange_and_dual_update(state, P, config.beta)
        history.append((state.x.copy(), state.q.copy()))
    return history


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


def sample_loss(x, s, lam):
    """Loss value; the logistic term uses a stable soft-plus."""
    _check_dim(x, s.dim)
    z = s.label * float(s.features @ x)
    return 0.5 * lam * float(x @ x) + float(np.logaddexp(0.0, -z))


def sample_grad(x, s, lam):
    """Gradient ``lam*x - b * sigmoid(-b a^T x) * a``."""
    _check_dim(x, s.dim)
    z = s.label * float(s.features @ x)
    return lam * x - (s.label * sigmoid(-z)) * s.features


def sample_hess(x, s, lam):
    """Hessian ``lam*I + w a a^T`` with logistic curvature ``w <= 1/4``."""
    _check_dim(x, s.dim)
    p = sigmoid(float(s.features @ x))
    return LowRankHessian(lam=lam, weights=np.array([p * (1.0 - p)]), feats=s.features[None, :])


def batch_loss(x, ds, indices):
    """Mean of per-sample losses over ``indices`` of one agent's set."""
    idx = _as_index_array(ds, indices)
    _check_dim(x, ds.dim)
    z = ds.labels[idx] * (ds.features[idx] @ x)
    return 0.5 * ds.lambda_reg * float(x @ x) + float(np.mean(np.logaddexp(0.0, -z)))


def agent_batch_stats(x_i, ds, G, S, seed, agent, round_idx):
    """One agent's batch gradient and low-rank Hessian for one round,
    computed alone from its ``sample_batches`` indices: the per-agent
    oracle of the stacked statistics of a round."""
    g_idx, s_idx = sample_batches(ds.n_samples, G, S, seed, agent, round_idx)
    return batch_grad(x_i, ds, g_idx), batch_hess(x_i, ds, s_idx)


def draw_batches(n, C, size, seed, round_idx, purpose):
    """Every agent's batch, one row each: row ``i`` holds the positions
    ``j`` in agent ``i``'s set of the ``draw_positions`` of the same
    arguments, less the offset ``i C`` of its row.  Returns ``(n, size)``."""
    rows = draw_positions(n, C, size, seed, round_idx, purpose).reshape(n, size)
    rows -= np.arange(n)[:, None] * C
    return rows


def draw_batches_argpartition(n, C, size, seed, round_idx, purpose):
    """The batched draw by ``argpartition`` of the substream's uniform
    doubles: the ``size`` smallest of each row taken, then sorted.  Which
    of several keys tied at the threshold it takes is unspecified."""
    keys = substream(seed, 0, round_idx, purpose).random((n, C))
    idx = np.argpartition(keys, size - 1, axis=1)[:, :size]
    idx.sort(axis=1)
    return idx


def flat_positions(idx, C):
    """The flat positions ``i C + j`` of an ``(N, k)`` array of positions
    ``j`` in ``(N, C)`` rows."""
    return (np.arange(len(idx))[:, None] * C + idx).ravel()


def partition_samples(samples, n_agents, per_agent, seed, lambda_reg):
    """Split a permuted list of ``Sample`` objects, stacking one at a time."""
    perm = np.random.default_rng(seed).permutation(len(samples))
    need = n_agents * per_agent
    d = samples[0].dim
    block = np.empty((n_agents, per_agent, d))
    np.stack([samples[k].features for k in perm[:need]], out=block.reshape(need, -1))
    block.setflags(write=False)
    labels = np.array([samples[k].label for k in perm[:need]]).reshape(n_agents, per_agent)
    datasets = [LocalDataset(block[i], labels[i], lambda_reg) for i in range(n_agents)]
    leftovers = [samples[k] for k in perm[need:]]
    if not leftovers:
        return datasets, TestSet(features=np.zeros((0, d)), labels=np.zeros(0, dtype=int))
    test = TestSet(
        features=np.stack([s.features for s in leftovers]).astype(float),
        labels=np.array([s.label for s in leftovers], dtype=int),
    )
    return datasets, test


def agent_datasets(local):
    """Per-agent rows of the stacked local sets ``local``, read through
    ``StackedSets.dense_rows``, for the per-agent oracles."""
    n, C, d = local.shape
    return [
        LocalDataset(local.dense_rows(i * C, (i + 1) * C, np.empty((C, d))),
                     local.labels[i], float(local.lam[i]))
        for i in range(n)
    ]


def block_of(local):
    """The ``(N, C, d)`` rows of ``local``, read through ``dense_rows``."""
    n, C, d = local.shape
    return local.dense_rows(0, n * C, np.empty((n * C, d))).reshape(n, C, d)


@dataclass(frozen=True, eq=False)
class DenseBlockCsr(Csr):
    """A block-diagonal operator of ``N`` agents' rows read through their
    dense ``(N, k, d)`` block ``feats``: its product and its transpose's
    are stacked BLAS products of the block, and a gather of rows, ``k``
    an agent in agent order, keeps the block of the rows it takes.  The
    CSR arrays stay, for the checks."""

    feats: np.ndarray = field(default=None, repr=False)

    def __matmul__(self, x):
        n, _, d = self.feats.shape
        return (self.feats @ np.reshape(x, (n, d, 1))).ravel()

    def rmatvec(self, v):
        n, k, _ = self.feats.shape
        return (self.feats.transpose(0, 2, 1) @ np.reshape(v, (n, k, 1))).ravel()

    def take(self, rows):
        n, _, d = self.feats.shape
        got = Csr.take(self, rows)
        return DenseBlockCsr(got.indptr, got.indices, got.data, got.shape,
                             self.feats.reshape(-1, d)[rows].reshape(n, -1, d))


@dataclass(frozen=True)
class DenseBlockSets(StackedSets):
    """Local sets read through the dense ``(N, C, d)`` block of their
    rows, as ``StackedSets`` held them before the CSR operator was their
    one form: the operator is a :class:`DenseBlockCsr` over the block, so
    every product and every gathered batch reads the block, and
    ``dense_rows`` returns views of it, or, given a ``scale`` or a buffer
    of another dtype, writes into the buffer the block's rows times their
    scales, both rounded to its dtype."""

    def dense_rows(self, start, stop, out, scale=None):
        feats = self.csr.feats
        rows = feats.reshape(-1, feats.shape[2])[start:stop]
        if scale is None and out.dtype == rows.dtype:
            return rows
        scale = np.ones(stop - start) if scale is None else scale
        return np.multiply(rows, scale[:, None], out=out, dtype=out.dtype)


def dense_block(local, feats=None):
    """``local`` as :class:`DenseBlockSets`, over the block ``feats`` (by
    default, its own rows read densely)."""
    feats = block_of(local) if feats is None else feats
    feats.setflags(write=False)
    A = local.csr
    return DenseBlockSets(DenseBlockCsr(A.indptr, A.indices, A.data, A.shape, feats),
                          local.labels, local.lam)


def one_hot_block(rng, n, C, d):
    """``(n, C, d)`` rows shaped like a categorical LIBSVM file: each row
    sets one column, drawn by ``rng``, in each of ``min(3, d)`` nearly
    equal column ranges."""
    edges = np.linspace(0, d, min(3, d) + 1).astype(int)
    feats = np.zeros((n, C, d))
    for lo, hi in zip(edges[:-1], edges[1:]):
        np.put_along_axis(feats, rng.integers(lo, hi, (n, C, 1)), 1.0, axis=2)
    return feats


def stack_sets(features, labels, lam):
    """Local sets of equal size as one :class:`StackedSets`: per agent,
    ``(C, d)`` features and ``(C,)`` +-1 labels; ``lam`` is one
    regularizer for all agents or one each.  The operator holds the
    nonzero entries, as :func:`~soprolab.loss.partition` builds it from
    dense rows."""
    labels = np.array([np.asarray(b, dtype=float) for b in labels])
    n = len(labels)
    rows = np.concatenate([np.asarray(a, dtype=float) for a in features])
    lam = np.array(np.broadcast_to(np.asarray(lam, dtype=float), (n,)))
    return StackedSets(_block_diagonal(Csr.from_dense(rows), n), labels, lam)


def stacked(datasets):
    """Per-agent local sets of equal size as one :class:`StackedSets`."""
    return stack_sets(
        [ds.features for ds in datasets],
        [ds.labels for ds in datasets],
        [ds.lambda_reg for ds in datasets],
    )


def objective_per_agent(x, datasets):
    return sum(batch_loss(x, ds, np.arange(ds.n_samples)) for ds in datasets)


def gradient_per_agent(x, datasets):
    g = np.zeros_like(x)
    for ds in datasets:
        g += full_grad(x, ds)
    return g


def hessian_per_agent(x, datasets):
    H = np.zeros((x.shape[0], x.shape[0]))
    for ds in datasets:
        H += batch_hess(x, ds, np.arange(ds.n_samples)).dense()
    return H


def newton_per_agent(datasets, tol=1e-12, max_iters=200):
    """Damped Newton on the aggregate objective, one agent at a time."""
    rounding = 1e3 * np.finfo(float).eps
    x = np.zeros(datasets[0].dim)
    f = objective_per_agent(x, datasets)
    for _ in range(max_iters):
        g = gradient_per_agent(x, datasets)
        if np.linalg.norm(g) <= tol:
            return x
        step = cho_solve(cho_factor(hessian_per_agent(x, datasets)), g)
        gTs = float(g @ step)
        if gTs <= rounding * abs(f):
            x = x - step
            f = objective_per_agent(x, datasets)
            continue
        t = 1.0
        while t > 1e-12:
            cand = x - t * step
            fc = objective_per_agent(cand, datasets)
            if fc <= f - 1e-4 * t * gTs:
                x, f = cand, fc
                break
            t *= 0.5
        else:
            raise SoprolabError("line search stalled")
    raise SoprolabError("no convergence")


def sigma_sq_per_agent(datasets, probes):
    """Worst squared deviation of a sample gradient from its agent's mean."""
    worst = 0.0
    for ds in datasets:
        F = ds.features
        row_sq = np.einsum("ij,ij->i", F, F)
        for x in probes:
            full = full_grad(x, ds)
            c = ds.labels * expit(-ds.labels * (F @ x))
            u = ds.lambda_reg * x - full
            dev_sq = float(u @ u) - 2.0 * c * (F @ u) + c * c * row_sq
            worst = max(worst, float(dev_sq.max()))
    return worst


def random_connected_graph_per_pair(n, target_avg_degree, seed):
    """The sorted edges of ``build_random_connected_graph``, drawing the
    extra edges from a Python list of every non-edge pair."""
    m_target = math.ceil(n * target_avg_degree / 2.0)
    rng = np.random.default_rng(seed)
    tree = [(0, 1)] if n == 2 else _tree_from_pruefer(rng.integers(0, n, size=n - 2), n)
    chosen = set(tree)
    missing = m_target - len(chosen)
    if missing > 0:
        pool = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in chosen]
        picks = rng.choice(len(pool), size=missing, replace=False)
        chosen.update(pool[k] for k in picks)
    return tuple(sorted((int(i), int(j)) for i, j in chosen))


def edge_list_text(p):
    """The edge-list text of the network ``p``, as ``read_edge_list``
    reads it: ``n m``, then ``i j weight`` per edge, each weight written
    by ``repr`` so that it reads back bitwise."""
    return f"{p.n_agents} {p.n_edges}\n" + "".join(
        f"{i} {j} {float(-p.matrix[i, j])!r}\n" for i, j in p.edges)


def kappa(c0, eta_s, alphas, bounds, beta, P, m_beta_value=None):
    """Contraction margin: smallest eigenvalue of the rate matrix.

    Evaluates ``lambda_min(R - LM/(2(1-eta)) - (LM-Lm)^2/(4 c0) + Lm - LM
    - beta (I/2 + W))`` with ``R = (Lm+LM)/2 + D``: the proximal
    condition's matrix with ``2 eta_s m_beta`` replaced by ``c0``.  At
    ``c0 = 2 eta_s m_beta`` it is the proximal-condition margin, so a
    strictly feasible ``D`` always admits ``kappa > 0``.  The alphas are
    added before ``beta lambda_max`` is subtracted, so the value steps by
    the alphas' last bit; ``certify`` follows the gap form instead.
    """
    if c0 <= 0:
        raise ParameterError(f"c0 must be positive, got {c0}")
    if m_beta_value is not None and not c0 < 2.0 * eta_s * m_beta_value:
        raise ParameterError(
            f"c0={c0} outside (0, 2*eta_s*m_beta={2.0 * eta_s * m_beta_value})"
        )
    t = _condition_shift(bounds.m, bounds.M, eta_s, c0 / (2.0 * eta_s), beta)
    return _lambda_min_shifted(alphas, t, beta, P)


def delta_terms_nested(alphas, bounds, beta, lambda_w, eta_s, m_b, c1, c0, P, norm_sq):
    """min of the three rate terms at ``c0``, with c2 found by ``brentq`` in
    log(c2) where terms two and three cross.  Returns ``(delta, c2, kappa)``,
    or None where kappa or the third term's numerator is not positive."""
    k = kappa(c0, eta_s, alphas, bounds, beta, P, m_beta_value=m_b)
    if k <= 0.0:
        return None
    term1 = beta * lambda_w * k / (2.0 * (1.0 + c1) * norm_sq)
    num3 = 2.0 * eta_s * m_b - c0
    if num3 <= 0.0:
        return None
    cc1 = 1.0 + 1.0 / c1

    def t2(c2):
        return (1.0 - eta_s) / (cc1 * (1.0 + c2))

    def t3(c2):
        extra = cc1 * (1.0 + 1.0 / c2) * bounds.M**2 / (beta * lambda_w)
        return num3 / float(np.max(0.5 * (bounds.m + bounds.M) + alphas + extra))

    def gap(u):
        c2 = math.exp(u)
        return t2(c2) - t3(c2)

    lo, hi = -40.0, 40.0
    glo, ghi = gap(lo), gap(hi)
    if not (glo > 0.0 > ghi):  # pathological scales; widen
        while glo <= 0.0 and lo > -700:
            lo -= 100.0
            glo = gap(lo)
        while ghi >= 0.0 and hi < 700:
            hi += 100.0
            ghi = gap(hi)
        if not (glo > 0.0 > ghi):
            return None
    c2 = math.exp(brentq(gap, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200))
    return min(term1, t2(c2), t3(c2)), c2, k


def certify_delta_nested(bounds, P, beta, alphas, eta_s, c1):
    """``(delta_s, c0)`` by a bounded Brent search over c0 of
    :func:`delta_terms_nested`, after a ``brentq`` for the kappa edge."""
    lambda_w = P.spectral.lambda_w
    m_b, _ = m_beta(float(bounds.m.sum()), bounds.n_agents, bounds.max_M, beta, lambda_w)
    norm_sq = float(np.max(bounds.M + alphas) ** 2)
    hi = 2.0 * eta_s * m_b
    c_lo, c_hi = hi * 1e-12, hi * (1.0 - 1e-12)

    def kap_at(c0):
        return kappa(c0, eta_s, alphas, bounds, beta, P, m_beta_value=m_b)

    if kap_at(c_lo) <= 0.0:
        c_lo = brentq(kap_at, c_lo, c_hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)

    def neg_delta(c0):
        res = delta_terms_nested(alphas, bounds, beta, lambda_w, eta_s, m_b, c1, c0, P, norm_sq)
        return 1.0 if res is None else -res[0]

    opt = minimize_scalar(
        neg_delta, bounds=(c_lo, c_hi), method="bounded",
        options={"xatol": hi * 1e-13, "maxiter": 300},
    )
    return -neg_delta(float(opt.x)), float(opt.x)


def q_norm_eigen(P, r, beta, x_star, q_star, x, q):
    """``||z - z*||_Q^2`` with the dual part in the eigen-coordinates of
    ``P``, its zero eigenvalue annihilated: ``sum_k |u_k^T dq|^2 / w_k``
    over the nonzero eigenpairs."""
    w, U = np.linalg.eigh(P.matrix)
    nz = w > 1e-12 * max(w[-1], 1.0)
    assert np.count_nonzero(~nz) == 1
    coords = U[:, nz].T @ (q - q_star)
    dx = x - x_star
    v_part = float((1.0 / w[nz]) @ np.einsum("ij,ij->i", coords, coords))
    return beta * float(r @ np.einsum("ij,ij->i", dx, dx)) + v_part


def count_to(rho, tol):
    """The least ``k`` with ``rho^(k+1) <= tol``, ``0 < tol < 1``, or
    ``None`` at ``rho >= 1``: the log's guess, corrected both ways."""
    if not rho < 1.0:
        return None
    if rho == 0.0:
        return 0
    k = max(math.ceil(math.log(tol) / math.log(rho)) - 1, 0)
    while k > 0 and rho**k <= tol:
        k -= 1
    while rho ** (k + 1) > tol:
        k += 1
    return k


def choice_by_counts(rho):
    """The series-or-CG choice by term counts, as ``(solve, terms)``: the
    series while its count to roundoff, ``count_to(rho, 2^-53)``, is at
    most twice CG's a-priori cap (``optimizer._cg_iterations``), run for
    ``count_to(rho, CG_TOL / (1 + rho))`` terms, else CG at its cap.  The
    cap, and so this rule, is defined only for ``rho`` above about 7.8e-16,
    where ``sqrt(1 + rho)`` no longer rounds to 1."""
    series, cap = count_to(rho, 2.0**-53), optimizer._cg_iterations(rho)
    if series is not None and series <= 2 * cap:
        return "series", count_to(rho, optimizer.CG_TOL / (1.0 + rho))
    return "cg", cap


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def certified_alphas(P, local):
    return proximal_alphas(SmoothnessBounds.from_sets(local), P, 1.0, 0.5)[0]
