"""Undirected agent networks, each held as its weighted Laplacian-like matrix.

A network over ``n`` agents is the symmetric positive semidefinite matrix
``P`` with ``[P]_ij = -p_ij < 0`` on each edge, zero off the edges, and
``[P]_ii = sum_j p_ij``, and :class:`MatrixP` holds that matrix alone: the
agent count, the edges and the degrees are read off its nonzeros.
:func:`laplacian_weights` is its one constructor and the one place that
refuses a bad network.  The null space of ``P`` is the all-ones vector, its
Kronecker lift ``P (x) I_d`` acts on stacked agent vectors, and its two
extreme nonzero eigenvalues parameterize every convergence certificate.
The lift is never materialized: applying it to the ``(n, d)`` array of
stacked agent vectors is one product ``op @ x`` with
:attr:`MatrixP.operator`, a CSR copy of ``P`` (a
:class:`~soprolab.sparse.Csr`) on a sparse network and ``P`` itself
otherwise, so an exchange costs ``O(|E| d)`` where the network is
sparse.  Every network matrix of a run is a :class:`MatrixP`: the proximal
methods' ``P`` and the baselines' Metropolis Laplacian ``I - W`` (see
:func:`soprolab.baselines.metropolis_matrix`), so this module alone
chooses between the dense and the CSR form.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantViolation, ParameterError, ParseError, read_lines, reads_file
from .sparse import Csr

__all__ = [
    "MatrixP",
    "SpectralSummary",
    "build_random_connected_graph",
    "laplacian_weights",
    "spectral_summary",
    "read_edge_list",
]


def _tree_from_pruefer(seq: np.ndarray, n: int) -> list[tuple[int, int]]:
    # Standard Pruefer decoding; uniform over labeled spanning trees.
    degree = np.ones(n, dtype=int)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def build_random_connected_graph(n: int, target_avg_degree: float, seed: int) -> MatrixP:
    """Sample a connected network whose average degree is within 1 of the
    target, as the ``P`` of unit edge weights.

    A uniform random spanning tree (via a random Pruefer sequence) guarantees
    connectivity; uniformly chosen non-edges are then added until the edge
    count reaches ``ceil(n * target_avg_degree / 2)``.  Deterministic for a
    fixed seed.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2 agents, got {n}")
    m_target = math.ceil(n * target_avg_degree / 2.0)
    max_edges = n * (n - 1) // 2
    if m_target > max_edges:
        raise ParameterError(
            f"average degree {target_avg_degree} needs {m_target} edges; "
            f"only {max_edges} exist on {n} nodes"
        )
    if m_target < n - 1:
        raise ParameterError(
            f"average degree {target_avg_degree} gives {m_target} edges; "
            f"a connected graph on {n} nodes needs at least {n - 1}"
        )
    rng = np.random.default_rng(seed)
    if n == 2:
        tree = [(0, 1)]
    else:
        tree = _tree_from_pruefer(rng.integers(0, n, size=n - 2), n)
    chosen = set(tree)
    missing = m_target - len(chosen)
    if missing > 0:
        # The non-edges i < j in lexicographic order, as np.nonzero lists
        # the entries of the upper triangle.
        free = np.triu(np.ones((n, n), dtype=bool), k=1)
        free[tuple(np.array(tree).T)] = False
        rows, cols = np.nonzero(free)
        picks = rng.choice(rows.size, size=missing, replace=False)
        chosen.update(zip(rows[picks].tolist(), cols[picks].tolist()))
    return laplacian_weights(n, dict.fromkeys(chosen, 1.0))


# The exchange applies an n x n network matrix that stores nnz entries as
# CSR when
#
#     CSR_ENTRY_COST nnz + CSR_FIXED_COST < n^2,
#
# and as the dense matrix otherwise: in units of one dense entry's share of
# a dense product, a CSR product costs about CSR_ENTRY_COST a stored entry
# plus CSR_FIXED_COST.  The constants are the least-cost fit to products
# with d = 123 columns on one OpenBLAS thread of a 2-vCPU x86 VM (µs,
# `matrix @ x` against `Csr @ x`, best of 5 loops, networks of
# build_random_connected_graph at seed 0):
#
#       n  degree    nnz   dense     CSR  rule
#      10       4     50     0.9     2.0  dense
#      20       5    120     1.5     3.1  dense
#      40       2    120     3.7     3.5  dense
#      50       3    200     5.3     4.7  CSR
#      50       5    300     5.4     6.5  dense
#      75       5    451    11.4     9.3  CSR
#      75       8    675    11.6    13.0  dense
#     100      10   1100    29.1    20.4  CSR
#     100      14   1500    28.3    26.6  dense
#     100      20   2100    29.0    37.8  dense
#     150      20   3150    61.4    55.3  CSR
#     150      25   3900    62.2    70.9  dense
#     200       5   1200   110.8    24.2  CSR
#     200      30   6200   110.6   109.5  dense
#     300      40  12300   243.7   215.9  CSR
#     300      50  15300   236.4   275.0  dense
#
# A dense entry costs about a third more from n = 100 on than up to n =
# 75, so no one density splits the two forms.  Over 35 networks from n =
# 10 to 300, the form this rule picks was at most 6.2% slower than the
# faster one (at n = 40, degree 2 and n = 100, degree 14).
CSR_ENTRY_COST = 6.75
CSR_FIXED_COST = 1100.0


@dataclass
class MatrixP:
    """Weighted Laplacian-like matrix ``P`` of a connected network.

    ``matrix`` is the dense symmetric n x n form, which the spectra and
    the certificate read.  Its nonzeros above the diagonal are the edges
    and hold minus their positive weights; rows sum to zero, so the matrix
    annihilates the all-ones vector.  The exchange applies ``operator``.
    Made by :func:`laplacian_weights`, which refuses a bad network.
    """

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n_agents(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges ``(i, j)``, ``i < j``, in sorted order."""
        rows, cols = np.nonzero(np.triu(self.matrix, 1))
        return tuple(zip(rows.tolist(), cols.tolist()))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Each agent's neighbor count: the nonzeros of its row off the diagonal."""
        return np.count_nonzero(self.matrix, axis=1) - (np.diagonal(self.matrix) != 0)

    @cached_property
    def spectral(self) -> "SpectralSummary":
        """:func:`spectral_summary` of this matrix, computed on first use."""
        return spectral_summary(self)

    @cached_property
    def operator(self):
        """The operator that applies this matrix as ``op @ x``, made on first use.

        A read-only CSR copy, a :class:`~soprolab.sparse.Csr`, when the
        matrix stores few enough nonzero entries, ``CSR_ENTRY_COST nnz +
        CSR_FIXED_COST < n^2``, that a product's ``O(nnz d)`` beats the
        dense one's; the dense ``matrix`` itself otherwise, where BLAS is
        faster than sparse indexing.
        """
        n = self.n_agents
        if CSR_ENTRY_COST * np.count_nonzero(self.matrix) + CSR_FIXED_COST >= n * n:
            return self.matrix
        op = Csr.from_dense(self.matrix)
        for a in (op.data, op.indices, op.indptr):
            a.setflags(write=False)
        return op

    def disagreement(self, x: np.ndarray) -> np.ndarray:
        """Apply the Kronecker lift to stacked agent vectors.

        ``x`` has one row per agent; row ``i`` of the result is
        ``sum_j p_ij (x_i - x_j)`` over the neighbors of ``i``.  The product
        goes through :attr:`operator`: ``O(|E| d)`` on a sparse network.
        The result is a new array, which the caller may write.
        """
        return self.operator @ x


def _edge_fault(n: int, i: int, j: int, w: float) -> str | None:
    """Why ``(i, j)`` of weight ``w`` is no edge on agents ``0..n-1``, or ``None``."""
    if i == j:
        return f"self-loop at agent {i}"
    if not (0 <= i < n and 0 <= j < n):
        return f"edge ({i}, {j}) outside 0..{n - 1}"
    if not 0 < w < math.inf:
        return f"edge ({i}, {j}) has weight {w}; weights must be positive and finite"
    return None


def laplacian_weights(n: int, weights: dict[tuple[int, int], float]) -> MatrixP:
    """``P`` of the network on agents ``0..n-1`` whose edges are the keys of
    ``weights``, each with its weight.

    An edge may be keyed ``(i, j)`` or ``(j, i)``; given both ways, it is
    one edge, with the weight that comes last.  Refuses fewer than one
    agent, a self-loop, an edge outside ``0..n-1``, a weight that is not
    positive and finite, and a disconnected network.  The diagonal is
    summed in sorted edge order, so equal networks give equal matrices.
    """
    if n < 1:
        raise ParameterError(f"need at least one agent, got {n}")
    canonical = {(min(i, j), max(i, j)): float(w) for (i, j), w in weights.items()}
    P = np.zeros((n, n))
    for (i, j), w in sorted(canonical.items()):
        if fault := _edge_fault(n, i, j, w):
            raise ParameterError(fault)
        P[i, j] = P[j, i] = -w
        P[i, i] += w
        P[j, j] += w
    # Breadth-first reachability from agent 0 over the nonzeros of P.
    linked = P != 0
    reached = np.zeros(n, dtype=bool)
    frontier = np.arange(n) == 0
    while frontier.any():
        reached |= frontier
        frontier = linked[frontier].any(axis=0) & ~reached
    if not reached.all():
        raise ParameterError("graph is not connected")
    return MatrixP(P)


@dataclass(frozen=True)
class SpectralSummary:
    """Smallest nonzero and largest eigenvalue of ``P`` (and of its lift)."""

    lambda_w: float
    lambda_max: float


def spectral_summary(p: MatrixP) -> SpectralSummary:
    """Eigenvalue summary via a dense symmetric solver.

    The lift ``P (x) I_d`` shares the spectrum of ``P`` up to multiplicity,
    so the n x n problem suffices at any dimension.
    """
    A = p.matrix
    sym_err = np.max(np.abs(A - A.T))
    scale = max(np.max(np.abs(A)), 1.0)
    if sym_err > 1e-12 * scale:
        raise InvariantViolation(f"matrix not symmetric (max asymmetry {sym_err})")
    eigs = np.linalg.eigvalsh(A)
    lam_max = eigs[-1]
    if eigs[0] < -1e-10 * max(lam_max, 1.0):
        raise InvariantViolation(f"matrix indefinite (min eigenvalue {eigs[0]})")
    lam_w = eigs[1] if eigs.size > 1 else np.nan
    if not 0 < lam_w <= lam_max:
        raise InvariantViolation(
            f"expected simple zero eigenvalue, got spectrum head {eigs[:3]}"
        )
    return SpectralSummary(lambda_w=float(lam_w), lambda_max=float(lam_max))


@reads_file
def read_edge_list(path) -> MatrixP:
    """The network in the edge-list file at ``path``, in the lines of
    :func:`~soprolab.errors.read_lines`: a header ``n m``, the agent and
    edge counts, then one ``i j weight`` line per edge (0-based agents, the
    weight ``p_ij``).  A bad line or edge (:func:`_edge_fault`), an edge
    given twice, a wrong edge count or a disconnected network is refused."""
    lines = read_lines(path)
    number, text = next(lines, (None, ""))  # an empty file has no header line
    try:
        n, m = map(int, text.split())
    except ValueError:
        raise ParseError(f"expected header 'n m', got {text!r}", line=number) from None
    if n < 2:
        raise ParseError(f"need n >= 2 agents, got {n}", line=number)
    # Checked before anything is sized by n: a header cannot make the graph
    # larger than the edges that follow it.
    if m < n - 1:
        raise ParseError(f"header promises {m} edges, but a connected graph on {n} agents "
                         f"needs at least {n - 1}", line=number)
    edges, given = {}, {}
    for number, text in lines:
        try:
            i, j, w = text.split()
            i, j, w = int(i), int(j), float(w)
        except ValueError:
            raise ParseError(f"expected 'i j weight', got {text!r}", line=number) from None
        if fault := _edge_fault(n, i, j, w):
            raise ParseError(fault, line=number)
        edge = (min(i, j), max(i, j))
        if edge in given:
            raise ParseError(f"edge {edge} was already given on line {given[edge]}", line=number)
        given[edge] = number
        edges[edge] = w
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}")
    try:
        return laplacian_weights(n, edges)
    except ParameterError as exc:  # every edge is good: the network is not connected
        raise ParseError(str(exc)) from None
