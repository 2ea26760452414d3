"""The round loop of every method, and the stochastic second-order proximal method.

:func:`run` is the one loop over rounds.  Before round 0 it sets up the
method that ``config.algorithm`` names: :func:`proximal` for St-SoPro and
SoPro, :func:`soprolab.baselines.first_order` for DSGD and DSGT.  A
method's set-up returns the initial state, its round function and the
scalars it sends at set-up and per round; the loop owns the callbacks,
the round counter and the communication count.  A round whose iterate is
not finite raises :class:`~soprolab.errors.DivergenceError`; rounds run
under ``np.errstate(over="ignore", invalid="ignore")``, so that error is
the only signal of a divergence, not a numpy warning before it.

In a proximal round every agent independently draws two uniform sample batches,
takes the proximal Newton-type step

    ``x_i <- x_i - (h_i + D_i)^{-1} (g_i + beta y_i + q_i)``,

then a synchronous exchange refreshes the weighted disagreements
``y_i = sum_j p_ij (x_i - x_j)`` and the dual surrogates
``q_i <- q_i + beta y_i``.  The deterministic parent method is the exact
special case where both batches are the whole local dataset.

A round is a few array operations over all agents at once.  Every agent
holds ``C`` samples.  One draw per purpose gives every agent's batch as
``G`` flat positions ``i C + j`` in the ``(N, C)`` rows of the local sets
(:func:`draw_positions`).  Every
proximal matrix is ``D_i = alpha_i I``, and the engine runs with the
``(N,)`` vector of the ``alpha_i`` it is given: choosing them is
:func:`soprolab.certificate.proximal_alphas`'s job.  Agent ``i``'s
system is ``c_i I + B_i^T B_i`` with ``c_i = lam_i + alpha_i`` and the
factor ``B_i = sqrt(w_i) F_{S_i}`` of its Hessian batch's rows under the
curvature weights ``w_i`` (``h_i = lam I + B_i^T B_i``).  Every shift
``c_i`` must be positive: a run refuses one that is not before round 0,
naming the agent.

The curvature part of a system is bounded before round 0: ``B_i^T B_i =
sum_r w_r a_r a_r^T`` with the logistic weights ``w_r = p_r (1 - p_r) /
count <= 1 / (4 count)`` over the ``count`` rows of the batch, so
``||B_i^T B_i|| <= max_r |a_r|^2 / 4`` over agent ``i``'s local set, and

    ``rho = max_i max_r |a_r|^2 / (4 c_i)``

bounds every ``||B_i^T B_i|| / c_i``.  From ``rho``, the Hessian batch
size ``S`` (:meth:`RunConfig.batches`: ``C`` in full batch), ``C`` and
``d``, :func:`proximal_engine` chooses once per run one of three solves.
Each takes the round's right-hand sides ``r_i = g_i + beta y_i + q_i``
and curvature weights ``w_i`` and returns every ``x_i - (c_i I + B_i^T
B_i)^{-1} r_i``:

* ``rho < 1``, any shape, while the series' count to roundoff, the
  least ``k`` with ``rho^(k+1) <= 2^-53``, is at most twice CG's
  a-priori iteration cap at ``rho`` (:func:`_cg_iterations`; the
  boundary lies between ``rho = 0.1738`` and ``0.1739``):
  :func:`row_step` with the truncated Neumann series ``s = r / c``, then
  ``k`` times ``s <- (r - B^T B s) / c``.  It is the Richardson iteration
  with the shift as preconditioner (Saad 2003, *Iterative Methods for
  Sparse Linear Systems*, ch. 4).  After ``k`` terms the residual is
  ``(-B^T B / c)^(k+1) r``, at most ``rho^(k+1)`` of ``|r|``, and the
  relative error at most ``(1 + rho) rho^(k+1)``.  The series runs the
  least ``k`` with ``(1 + rho) rho^(k+1) <= CG_TOL``, so it stops where
  CG stops, not at roundoff; only the choice reads the count to
  roundoff.  Under certified alphas the shift dwarfs the curvature:
  ``rho`` is about 1.6e-6 on the a4a-shaped problem and 7.8e-7 on the
  200-agent one, which run 2 terms, and 2.7e-7 on the mushrooms-shaped
  one, which runs 1.  Near ``rho = 1`` the series is far longer than CG
  (270 terms to roundoff against a cap of 17 at ``rho = 0.873``), and
  the rules below apply.
* Otherwise, when ``S < C <= d``: :func:`gram_step`, which factors each
  agent's ``S x S`` Woodbury system from the Gram stack of its local set,
  computed once before round 0 (:func:`gram_stack`).  ``C <= d`` keeps
  the cached ``N C^2`` floats no more than the ``N C d`` of the local sets
  read densely.  ``S < C`` leaves whole-set batches (SoPro) to CG, which
  was faster there: on 200 agents of 40 rows over 123 columns at (alpha,
  beta) = (1.0, 0.05), SoPro rounds took a median of 7.80 ms by the Gram
  step against 6.19 ms by CG (8 pairs of 120 rounds, one BLAS thread of a
  2-vCPU x86 VM).
* Otherwise: :func:`row_step` with conjugate gradients (Hestenes &
  Stiefel 1952) on all agents at once.  ``B_i^T B_i`` has rank at most
  ``S``, so ``c_i I + B_i^T B_i`` has at most ``min(S, d) + 1`` distinct
  eigenvalues and CG ends in at most that many iterations in exact
  arithmetic; its condition number is at most ``1 + rho``.  Each agent
  stops once its residual is ``CG_TOL`` of its right-hand side's.  CG
  runs at most the a-priori cap or ``CG_SLACK`` times ``min(S, d) + 1``
  iterations, whichever is fewer; an agent still above ``CG_TOL`` then
  raises a :class:`~soprolab.errors.DivergenceError` naming it and the
  round, rather than iterate on a system too ill-conditioned to solve.

A batch is drawn as flat positions in the whole local sets
(:func:`batch_positions`), and a round reads only its batches' rows.
:func:`~soprolab.loss.sets_grad` gathers the gradient batch's rows
(:meth:`~soprolab.sparse.Csr.take` of the local sets' block-diagonal CSR
operator, :class:`~soprolab.loss.StackedSets`) for the gradients, hence
``r``, and frees them on return.  The round then gathers the Hessian
batch's rows into the ``(N S, N d)`` block-diagonal batch operator
``F``, whose product gives the margins of the curvature weights ``w``.
A whole-set batch is the operator itself, with no gather; when both are
(SoPro), one product of it serves the gradients and ``w``.  Every solve
reads only ``F``: the row solves apply ``F_i^T (w_i (F_i v))`` by one
product of ``F`` and one of its transpose a term or iteration, with no
system formed and no row factored, and the Gram step reads ``F r`` by
one product and returns through one of the transpose.

:func:`local_step` steps one agent alone by Cholesky: it is the
per-agent oracle the batched steps are tested against.  It and the
Cholesky solve are the only callers of LAPACK, through this module's
:func:`cho_factor`, :func:`cho_solve` and :func:`dposv`, which import
``scipy.linalg`` on their first call; a run by the series or CG never
imports it.

Randomness comes from counter-based substreams of the master seed.  The
initial iterates use one substream per agent.  The batches of one (round,
purpose) come from the single substream ``(seed, 0, round, purpose)``: its
first ``N C`` raw 64-bit outputs, shifted right by 11 bits, are an ``(N,
C)`` array of uniform 53-bit integer keys (the integers whose doubles ``k
2^-53`` the generator's ``random`` returns).  Agent ``i``'s batch is its
``G`` smallest keys in row ``i``: those at or below the ``G``-th
smallest, with the lowest positions first should several tie there.  One
sort per row finds that threshold and one mask gives the batch as flat
positions, agent-major and ascending.  Draws are thus a pure function of their
label, independent of execution order, and the first-order baselines
draw the same batches as the proximal methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigurationError, DivergenceError, InvariantViolation, ParameterError
from .loss import (
    LowRankHessian,
    StackedSets,
    batch_grad,  # noqa: F401  no round calls it; bench/test_spans.py traces this alias
    logistic_curvature,
    sets_grad,
)
from .sparse import Csr
from .topology import MatrixP

__all__ = [
    "PROXIMAL",
    "ALGORITHMS",
    "PURPOSE_INIT",
    "PURPOSE_GRAD",
    "PURPOSE_HESS",
    "RunConfig",
    "NetworkState",
    "substream",
    "draw_positions",
    "sample_batches",
    "batch_positions",
    "check_finite",
    "initial_iterates",
    "init_network",
    "local_step",
    "row_step",
    "gram_stack",
    "gram_step",
    "exchange_and_dual_update",
    "Engine",
    "proximal_engine",
    "proximal",
    "run",
]

PROXIMAL = ("st_sopro", "sopro")
ALGORITHMS = PROXIMAL + ("dsgd", "dsgt")

PURPOSE_INIT = 0
PURPOSE_GRAD = 1
PURPOSE_HESS = 2


class _PhiloxKey(ISeedSequence):
    """The seed sequence of a Philox keyed ``[seed, 0]``.

    ``Philox(key=...)`` first builds a ``SeedSequence`` from OS entropy and
    then ignores it; given this one, Philox takes its key from it instead.
    A generator then costs 6-7 µs instead of 15-17 µs (numpy 2.4, x86).
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = seed

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, np.dtype(dtype)) != (2, np.dtype(np.uint64)):
            raise ValueError("a Philox key is two uint64 words")
        return np.array([self.seed, 0], dtype=np.uint64)


def substream(seed: int, agent: int, round_idx: int, purpose: int) -> np.random.Generator:
    """Independent generator for one (agent, round, purpose) triple.

    Counter-based Philox streams keyed by the master seed: the label sits in
    the counter block, so any two distinct triples yield non-overlapping
    streams and the draw is a pure function of its label independent of
    execution order.  The stream is ``Philox(key=[seed, 0], counter=[0,
    agent, round_idx, purpose])``'s.  The batched draws key the whole
    network's batches of one (round, purpose) by ``agent = 0``.
    """
    return np.random.Generator(
        np.random.Philox(_PhiloxKey(seed), counter=[0, agent, round_idx, purpose])
    )


@dataclass
class RunConfig:
    """Parameters of one algorithm run on a fixed network and data split."""

    batch_g: int = 10
    batch_s: int = 10
    max_iters: int = 500
    seed: int = 0
    beta: float = 1.0
    algorithm: str = "st_sopro"
    x0_mode: str = "uniform"
    step_size: float | None = None  # baselines only
    step_schedule: str = "constant"

    def batches(self, n_samples: int) -> tuple[int, int]:
        """The gradient and Hessian batch sizes ``(G, S)`` on local sets of
        ``n_samples`` rows: SoPro's are the whole sets, whatever
        ``batch_g`` and ``batch_s`` say."""
        if self.algorithm == "sopro":
            return n_samples, n_samples
        return self.batch_g, self.batch_s

    def validate(self, n_samples: int) -> None:
        """Refuse a bad parameter; ``n_samples`` is the size ``C`` of every
        local set, which bounds both :meth:`batches`."""
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if self.beta <= 0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if self.algorithm not in PROXIMAL and not (
            self.step_size is not None and self.step_size > 0
        ):
            raise ConfigurationError("baselines need a positive step_size")
        if self.max_iters < 0:
            raise ConfigurationError("max_iters must be nonnegative")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")
        if self.x0_mode not in ("uniform", "zeros"):
            raise ConfigurationError(f"unknown x0_mode {self.x0_mode!r}")
        if self.step_schedule not in ("constant", "one_over_k"):
            raise ConfigurationError(f"unknown step_schedule {self.step_schedule!r}")
        for name, b in zip(("batch_g", "batch_s"), self.batches(n_samples)):
            if not 1 <= b <= n_samples:
                raise ConfigurationError(f"{name}={b} outside 1..{n_samples}")


@dataclass
class NetworkState:
    """All agents' primal/dual variables plus bookkeeping, one row each."""

    x: np.ndarray  # (N, d)
    q: np.ndarray
    y: np.ndarray
    round: int = 0
    comm_scalars: int = 0
    engine: Engine | None = None  # a proximal run's solve

    @property
    def n_agents(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def _batch_keys(seed: int, round_idx: int, purpose: int, count: int) -> np.ndarray:
    """The ``count`` uniform 53-bit integer keys of one (round, purpose).

    They are the top 53 bits of the substream's raw 64-bit outputs, the
    integers whose doubles ``k 2^-53`` ``Generator.random`` returns, in
    the same order: a draw ordered by them is the draw ordered by those
    doubles.
    """
    raw = substream(seed, 0, round_idx, purpose).bit_generator.random_raw(count)
    return np.right_shift(raw, np.uint64(11), out=raw)


def draw_positions(
    n: int, C: int, size: int, seed: int, round_idx: int, purpose: int
) -> np.ndarray:
    """Every agent's uniform ``size``-subset of its local set, as flat
    positions in the ``(n, C)`` rows of the local sets.

    One substream per (round, purpose) yields an ``(n, C)`` array of
    uniform 53-bit integer keys (:func:`_batch_keys`).  Agent ``i``'s batch
    is its ``size`` smallest keys: the keys at or below the ``size``-th
    smallest of its row.  Should several keys tie at that threshold, the
    lowest positions among them fill the batch, so every agent gets
    exactly ``size`` rows.  Returns the ``(n size,)`` flat positions ``i C
    + j`` of the chosen keys, agent-major and ascending; ascending order
    makes summation order canonical.
    """
    if not 1 <= size <= C:
        raise ParameterError(f"batch size {size} outside 1..{C}")
    keys = _batch_keys(seed, round_idx, purpose, n * C).reshape(n, C)
    threshold = np.sort(keys, axis=1)[:, size - 1, None]
    chosen = keys <= threshold
    flat = np.flatnonzero(chosen)
    if flat.size > n * size:  # keys tied at some agent's threshold
        below = keys < threshold
        tied = chosen & ~below
        room = size - np.count_nonzero(below, axis=1)
        flat = np.flatnonzero(below | (tied & (np.cumsum(tied, axis=1) <= room[:, None])))
    return flat


def sample_batches(C: int, G: int, S: int, seed: int, agent: int, round_idx: int):
    """One agent's gradient and Hessian index sets for one round.

    They are agent ``agent``'s positions in the network's
    :func:`draw_positions`, less the offset ``agent C`` of its row, so
    ascending; a batch that is the whole local set is the plain range.
    The engine draws for all agents at once; this is its per-agent oracle.
    """
    return tuple(
        draw_positions(agent + 1, C, b, seed, round_idx, purpose)[agent * b :] - agent * C
        for b, purpose in ((G, PURPOSE_GRAD), (S, PURPOSE_HESS))
    )


def batch_positions(
    local: StackedSets, size: int, seed: int, round_idx: int, purpose: int
) -> np.ndarray | None:
    """The ``(N size,)`` flat positions ``i C + j`` of every agent's batch
    in the ``(N, C)`` rows of the local sets (:func:`draw_positions`), or
    ``None`` when the batches are the whole sets (``size == C``), which
    need no draw.

    A round gathers its batches' rows by these positions (see
    :func:`~soprolab.loss.sets_grad`), and its labels by a flat take.
    Every agent's ``size`` positions are checked to lie inside its own
    set: the row gathers check them only against the whole ``N C`` rows,
    and the flat takes against the whole ``(N, C)`` array (and wrap a
    negative position), so another agent's row would pass them.
    """
    n, C = local.labels.shape
    if size == C:
        return None
    flat = draw_positions(n, C, size, seed, round_idx, purpose)
    if flat.shape != (n * size,):
        raise InvariantViolation(f"round {round_idx}: drew {flat.size} rows, not {n} x {size}")
    if not (flat.reshape(n, size) // C == np.arange(n)[:, None]).all():
        raise InvariantViolation(f"round {round_idx}: drawn index outside a local set")
    return flat


def check_finite(x: np.ndarray, round_idx: int) -> None:
    """Raise :class:`DivergenceError` naming the first agent whose row of
    ``x`` is not finite after round ``round_idx``."""
    if not np.isfinite(x).all():
        agent = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        raise DivergenceError(
            f"round {round_idx}: agent {agent} has a non-finite iterate; "
            "the run diverged",
            round=round_idx,
        )


def initial_iterates(P: MatrixP, local: StackedSets, config: RunConfig) -> np.ndarray:
    """Check the run against its network and local sets; return the ``(N, d)`` x0.

    Primals are i.i.d. uniform on [-1, 1]^d per agent (or zero on request),
    each agent drawing from its own substream.
    """
    n = P.n_agents
    n_sets, _, d = local.shape
    if n_sets != n:
        raise ConfigurationError(f"{n_sets} local sets for {n} agents")
    config.validate(local.shape[1])

    if config.x0_mode == "zeros":
        return np.zeros((n, d))
    x = np.empty((n, d))
    for i in range(n):
        x[i] = substream(config.seed, i, 0, PURPOSE_INIT).uniform(-1.0, 1.0, d)
    return x


def init_network(P: MatrixP, local: StackedSets, config: RunConfig) -> NetworkState:
    """Initialize primal/dual variables and perform the first exchange.

    Duals start at zero (hence conserved at zero sum), primals come from
    :func:`initial_iterates`, and the disagreements are computed from the
    initial exchange, whose traffic :func:`run` tallies.
    """
    x = initial_iterates(P, local, config)
    return NetworkState(x=x, q=np.zeros_like(x), y=P.disagreement(x))


def _not_positive_definite(agent: int) -> ConfigurationError:
    return ConfigurationError(
        f"agent {agent}: h_i + D_i is not positive definite; "
        "the proximal blocks are too small for this problem"
    )


def _check_shift(c: np.ndarray) -> None:
    """Raise for the first agent whose shift ``c_i`` is not positive: every
    solve divides by it, and with ``S < d`` it is the smallest eigenvalue
    of ``c_i I + B_i^T B_i``, which a definite ``c_i I_S + B_i B_i^T``
    does not imply."""
    bad = np.flatnonzero(~(c > 0.0))
    if bad.size:
        i = int(bad[0])
        raise ConfigurationError(
            f"agent {i}: the shift lam_i + alpha_i = {c[i]:g} is not positive; "
            "the proximal blocks are too small for this problem"
        )


# scipy.linalg is imported on the first call: it costs resident memory,
# and only local_step and gram_step factor.  Module-level names, so
# the callers' lookups can be wrapped or replaced.


def cho_factor(a: np.ndarray, **kwargs):
    """``scipy.linalg.cho_factor(a, **kwargs)``."""
    from scipy.linalg import cho_factor

    return cho_factor(a, **kwargs)


def cho_solve(c_and_lower, b: np.ndarray, **kwargs) -> np.ndarray:
    """``scipy.linalg.cho_solve(c_and_lower, b, **kwargs)``."""
    from scipy.linalg import cho_solve

    return cho_solve(c_and_lower, b, **kwargs)


def dposv(a: np.ndarray, b: np.ndarray, *args):
    """LAPACK's ``dposv``, as ``scipy.linalg.lapack.dposv(a, b, *args)``."""
    from scipy.linalg.lapack import dposv

    return dposv(a, b, *args)


def local_step(
    x_i: np.ndarray,
    y_i: np.ndarray,
    q_i: np.ndarray,
    hess: LowRankHessian,
    grad: np.ndarray,
    alpha: float,
    beta: float,
    agent: int = -1,
) -> np.ndarray:
    """One agent's proximal step alone, by Cholesky of its dense ``h_i + alpha I``.

    The per-agent oracle of :func:`row_step` and :func:`gram_step`, which
    step all agents at once; the engine's round does not call it.
    """
    A = hess.dense()
    A.flat[:: A.shape[0] + 1] += float(alpha)
    rhs = grad + beta * y_i + q_i
    try:
        c, low = cho_factor(A, check_finite=False)
    except np.linalg.LinAlgError:
        raise _not_positive_definite(agent)
    return x_i - cho_solve((c, low), rhs, check_finite=False)


def _cholesky_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve every ``A_i z_i = b_i`` in place; return ``b``, now holding the ``z_i``.

    ``A`` is a C-ordered ``(N, n, n)`` stack of symmetric matrices and ``b``
    an ``(N, n)`` array whose rows are contiguous.  Each ``A[i].T`` is the
    same matrix in Fortran order, so LAPACK's ``dposv`` factors it (its
    upper triangle ends up holding the Cholesky factor) and overwrites
    ``b[i]`` with the solution, with no copy.  A failed factorisation
    raises for the first agent whose matrix is not positive definite.
    """
    for i, (a, r) in enumerate(zip(A.transpose(0, 2, 1), b)):
        # dposv(a, b, lower, overwrite_a, overwrite_b), positionally.
        if dposv(a, r, 1, 1, 1)[2] > 0:
            raise _not_positive_definite(i)
    return b


def _series_solve(apply_h, r: np.ndarray, c: np.ndarray, terms: int) -> np.ndarray:
    """Every ``(c_i I + H_i)^{-1} r_i`` by a truncated Neumann series.

    ``apply_h(v)`` returns the ``H_i v_i`` of an ``(N, n)`` array ``v``.
    The series starts at ``s = r / c`` and takes ``terms`` Richardson steps
    ``s <- (r - H s) / c``.  With every ``||H_i|| <= rho c_i``, ``rho < 1``,
    each residual ``r_i - (c_i I + H_i) s_i`` is ``(-H_i / c_i)^(terms + 1)
    r_i``, at most ``rho^(terms + 1)`` of ``|r_i|``, and each relative error
    at most ``(1 + rho) rho^(terms + 1)``: :func:`proximal_engine` runs the
    least ``terms`` that takes that bound to ``CG_TOL``.
    """
    c = c[:, None]
    s = r / c
    for _ in range(terms):
        s = (r - apply_h(s)) / c
    return s


# CG stops an agent once its residual is at most this fraction of its
# right-hand side.
CG_TOL = 1e-13

# CG runs at most this multiple of its exact-arithmetic bound, min(S, d) + 1
# iterations: in floating point it can need more (d = 6 eigenvalues spread
# over three decades left a relative residual of 2e-12 after 7).
CG_SLACK = 4


def _cg_solve(
    apply_h, r: np.ndarray, c: np.ndarray, iterations: int, round_idx: int | None = None
) -> np.ndarray:
    """Every ``(c_i I + H_i)^{-1} r_i`` by conjugate gradients, all agents at once.

    ``apply_h`` is as for :func:`_series_solve` and returns a new array;
    each ``H_i`` is symmetric positive semidefinite and each ``c_i > 0``.
    From ``z = 0``, each CG iteration applies ``H`` once to every agent's
    search direction.  An agent stops once its residual is finite and at
    most ``CG_TOL`` times its ``|r_i|``.  An agent whose finite residual
    is still above that after ``iterations`` raises a
    :class:`~soprolab.errors.DivergenceError` naming it and ``round_idx``.
    A residual that is not finite never stops its agent and raises
    nothing here, so a NaN or inf right-hand side reaches ``z`` rather
    than leaving it at zero.
    """
    c = c[:, None]
    z = np.zeros_like(r)
    res, p = r.copy(), r.copy()
    rs = first = np.einsum("ij,ij->i", r, r)
    stop = CG_TOL**2 * first
    for _ in range(iterations):
        live = ~(np.isfinite(rs) & (rs <= stop))
        if not live.any():
            return z
        q = apply_h(p)
        q += c * p
        # p^T q > 0 unless it underflows; such an agent stalls, and stays live.
        pq = np.einsum("ij,ij->i", p, q)
        step = np.divide(rs, pq, out=np.zeros_like(rs), where=live & (pq != 0.0))
        z += step[:, None] * p
        res -= step[:, None] * q
        rs, last = np.einsum("ij,ij->i", res, res), rs
        p *= np.divide(rs, last, out=np.zeros_like(rs), where=live)[:, None]
        p += res
    stuck = np.flatnonzero(np.isfinite(rs) & (rs > stop))
    if stuck.size:
        i = int(stuck[0])
        raise DivergenceError(
            f"round {round_idx}: agent {i}: conjugate gradients left a relative residual "
            f"of {math.sqrt(rs[i] / first[i]):.3g} after {iterations} iterations, above "
            f"{CG_TOL:g}; the system is too ill-conditioned to solve",
            round=round_idx,
        )
    return z


def row_step(
    x: np.ndarray,
    rhs: np.ndarray,
    F: Csr,
    w: np.ndarray,
    c: np.ndarray,
    solve: str,
    terms: int,
    round_idx: int | None = None,
) -> np.ndarray:
    """Proximal steps of all agents whose ``h_i + D_i`` is ``c_i I + B_i^T B_i``
    with ``B_i^T B_i = F_i^T diag(w_i) F_i``, from their Hessian batches' rows.

    ``x`` and ``rhs`` are ``(N, d)``; ``F`` is the ``(N S, N d)``
    block-diagonal operator of the batches' rows, agent ``i``'s ``S`` rows
    ``F_i`` in rows ``i S`` to ``i S + S - 1`` and columns ``i d`` to ``i d
    + d - 1``, and ``w`` the ``(N S,)`` curvature weights of those rows
    (nonnegative); ``c`` is ``(N,)``, every entry positive (checked,
    naming the first agent whose is not).  ``w`` is not written.  Zero rows
    add nothing.

    All agents are solved at once, with ``solve`` (see
    :func:`proximal_engine`): ``"series"``, ``terms`` terms of the
    Neumann series (the engine runs the fewest that take its relative
    error to ``CG_TOL``, see :func:`_series_solve`), or ``"cg"``,
    conjugate gradients for at most ``terms``
    iterations (in exact arithmetic CG ends within ``S + 1``, the most
    distinct eigenvalues a system of ``S`` weighted rows can have); an
    agent CG leaves above ``CG_TOL`` raises a
    :class:`~soprolab.errors.DivergenceError` naming it and ``round_idx``.
    Either applies ``F_i^T (w_i (F_i v))`` by one product of ``F`` and one
    of its transpose a term or iteration: no system is formed.
    """
    _check_shift(c)

    def apply_h(v):
        return F.rmatvec(w * (F @ v.ravel())).reshape(v.shape)

    if solve == "series":
        return x - _series_solve(apply_h, rhs, c, terms)
    return x - _cg_solve(apply_h, rhs, c, terms, round_idx)


def gram_stack(local: StackedSets) -> np.ndarray:
    """The ``(N, C, C)`` stack of ``F_i F_i^T`` over the local sets, for
    :func:`gram_step`, read a run of whole agents at a time through
    :meth:`~soprolab.loss.StackedSets.agent_chunks`.  It is ``N C^2``
    floats, no more than the ``N C d`` of the sets read densely, as
    :func:`gram_step` runs only where ``C <= d``."""
    n, C, _ = local.shape
    gram = np.empty((n, C, C))
    for a, b, feats in local.agent_chunks():
        np.matmul(feats, feats.transpose(0, 2, 1), out=gram[a:b])
    return gram


def gram_step(
    x: np.ndarray,
    rhs: np.ndarray,
    F: Csr,
    w: np.ndarray,
    c: np.ndarray,
    gram: np.ndarray,
    s_idx: np.ndarray,
) -> np.ndarray:
    """Proximal steps of all agents whose ``h_i + D_i`` is ``c_i I + B_i^T B_i``
    with ``B_i^T B_i = F_i^T diag(w_i) F_i``, by one Cholesky factorisation of
    a Woodbury ``S x S`` system per agent, from the Gram matrices of their
    local sets.

    ``x``, ``rhs``, ``F``, ``w`` and ``c`` are as for :func:`row_step`;
    ``gram`` is the ``(N, C, C)`` stack of the local sets' Gram matrices
    (:func:`gram_stack`) and ``s_idx`` the ``(N S,)`` flat positions ``i C
    + j`` of the Hessian batches from :func:`batch_positions`, the rows of
    ``F`` in their order.

    By the Woodbury identity

        ``(c I + B^T B)^{-1} r = (r - B^T (c I_S + B B^T)^{-1} B r) / c``,

    each agent solves an ``S x S`` system.  ``B_i B_i^T`` is ``gram[i]``
    restricted to ``S_i`` and scaled by ``sqrt(w_i)`` on both sides, and
    ``B_i r_i = sqrt(w_i) F_i r_i``.  So one product of ``F`` with ``rhs``
    gives ``F r``; one Cholesky factor-and-solve per agent gives ``z_i``;
    and one product of ``F``'s transpose with ``v = sqrt(w) z`` gives the
    step ``(r - F^T v) / c``.
    """
    _check_shift(c)
    n, C = gram.shape[:2]
    # Agent i's Hessian batch rows, as flat positions i C + j.
    rows = s_idx.reshape(n, -1)
    sw = np.sqrt(w).reshape(n, -1)
    # gram[i, a, b] sits at flat position (i C + a) C + b.
    at = rows - np.arange(0, n * C, C)[:, None]
    K = np.take(gram, rows[:, :, None] * C + at[:, None, :])
    K *= sw[:, :, None] * sw[:, None, :]
    diag = np.arange(K.shape[1])
    K[:, diag, diag] += c[:, None]
    z = sw * (F @ rhs.ravel()).reshape(n, -1)
    _cholesky_solve(K, z)
    z *= sw
    return x - (rhs - F.rmatvec(z.ravel()).reshape(n, -1)) / c[:, None]


def exchange_and_dual_update(state: NetworkState, P: MatrixP, beta: float) -> None:
    """Synchronous exchange: refresh disagreements and advance duals."""
    state.y = P.disagreement(state.x)
    state.q = state.q + beta * state.y


@dataclass(frozen=True)
class Engine:
    """How a proximal run steps, chosen once before round 0.

    ``solve`` is ``"series"`` or ``"cg"``, both by :func:`row_step`, or
    ``"cholesky"``, by :func:`gram_step`; ``terms`` is the series' term
    count, the least that takes its relative error to ``CG_TOL`` (not the
    count to roundoff the choice reads), or CG's iteration cap, ``None``
    on Cholesky; ``rho_bound`` bounds every ``||h_i - lam_i I|| / c_i``.
    """

    solve: str
    terms: int | None
    rho_bound: float


def _series_terms(rho: float, tol: float = 2.0**-53) -> int | None:
    """The least ``k`` with ``rho^(k+1) <= tol``, ``0 < tol < 1``; ``None``
    if ``rho >= 1``."""
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


def _cg_iterations(rho: float) -> int:
    """CG's iteration cap at ``rho >= 1``: the least ``k`` with ``2
    sqrt(kappa) q^k <= CG_TOL``, ``q = (sqrt(kappa) - 1) / (sqrt(kappa) +
    1)``, ``kappa = 1 + rho``.  That is CG's a-priori bound on the relative
    residual after ``k`` iterations on a system whose condition number is
    at most ``kappa`` (Saad 2003, section 6.11.3).  ``log q`` is taken as
    ``log1p(-2 / (sqrt(kappa) + 1))``, which stays below zero, and the cap
    finite, for every finite ``rho`` (``q`` itself rounds to 1 above
    ``rho`` of about 4e32)."""
    root = math.sqrt(1.0 + rho)
    return math.ceil(math.log(CG_TOL / (2.0 * root)) / math.log1p(-2.0 / (root + 1.0)))


def proximal_engine(local: StackedSets, config: RunConfig, alphas) -> Engine:
    """The solve :func:`proximal` takes for this run.

    Every shift ``lam_i + alpha_i`` must be positive: the first agent whose
    is not is named in a :class:`~soprolab.errors.ConfigurationError`.  The
    solve follows from the bound ``rho``, the Hessian batch size ``S``
    (:meth:`RunConfig.batches`), ``C`` and ``d`` (see the module docstring):
    the series when ``rho < 1`` and its term count to roundoff
    (:func:`_series_terms` at ``2^-53``) is at most twice CG's a-priori
    cap, run for the least ``k`` terms with ``(1 + rho) rho^(k+1) <=
    CG_TOL``, else Cholesky by :func:`gram_step` when ``S < C <= d``,
    else CG, capped at the fewer of its a-priori cap and ``CG_SLACK (min(S,
    d) + 1)`` iterations.  A bound that is not finite (a shift so small
    that it overflows) is refused the same way, naming the first agent
    whose is not.
    """
    _, C, d = local.shape
    shift = local.lam + np.asarray(alphas, dtype=float)
    _check_shift(shift)
    with np.errstate(over="ignore"):
        ratios = local.curvature_bound / shift
    bad = np.flatnonzero(~np.isfinite(ratios))
    if bad.size:
        i = int(bad[0])
        raise ConfigurationError(
            f"agent {i}: the curvature bound over the shift lam_i + alpha_i = {shift[i]:g} "
            "is not finite; the proximal blocks are too small for this problem"
        )
    rho = float(ratios.max())
    _, rows = config.batches(C)
    terms, cg_terms = _series_terms(rho), _cg_iterations(rho)
    if terms is not None and terms <= 2 * cg_terms:
        # Chosen by the count to roundoff; run to CG's tolerance.
        solve, terms = "series", _series_terms(rho, CG_TOL / (1.0 + rho))
    elif rows < C <= d:
        solve, terms = "cholesky", None
    else:
        solve, terms = "cg", min(cg_terms, CG_SLACK * (min(rows, d) + 1))
    return Engine(solve, terms, rho)


def proximal(P: MatrixP, local: StackedSets, config: RunConfig, alphas):
    """St-SoPro or SoPro, set up for :func:`run`.

    ``alphas`` is the ``(N,)`` vector of the proximal matrices
    ``D_i = alphas[i] I``.  Each round draws the positions of the gradient
    and Hessian batches of the sizes :meth:`RunConfig.batches` gives by
    :func:`batch_positions` (SoPro's are the whole sets, which need no
    draw).  :func:`~soprolab.loss.sets_grad` of the gradient batch gives
    the right-hand sides ``g_i + beta y_i + q_i``.  The Hessian batch's
    rows are then gathered, by one :meth:`~soprolab.sparse.Csr.take` of
    the local sets' operator, into the ``(N S, N d)`` batch operator (at
    ``S = C`` it is the operator itself), whose product gives the margins
    of the curvature weights ``w``; no two gathered operators are alive at
    once.  When both batches are the whole sets (SoPro), one product of
    the operator gives the margins of both.  One batched solve of all
    agents on the batch operator then applies every ``(h_i + D_i)^{-1}``
    to the right-hand sides, by the solve :func:`proximal_engine` chooses
    here: :func:`row_step` by the Neumann series or by CG, or
    :func:`gram_step` (its Gram stack computed here once) by Cholesky.
    SoPro's trace is thus bitwise identical to St-SoPro's at ``G = S =
    C``.

    Returns the state after the initial exchange, its ``engine`` set, the
    round function, and the ``2 |E| d`` scalars each exchange sends, at
    set-up and per round.
    """
    shape = None if alphas is None else np.shape(alphas)
    if shape != (P.n_agents,):
        raise ConfigurationError(f"alphas must have shape ({P.n_agents},), got {shape}")
    alphas = np.asarray(alphas, dtype=float)
    if not np.isfinite(alphas).all():
        raise ConfigurationError("alphas must be finite")
    state = init_network(P, local, config)
    engine = state.engine = proximal_engine(local, config, alphas)
    gram = gram_stack(local) if engine.solve == "cholesky" else None
    G, S = config.batches(local.shape[1])
    beta, seed = config.beta, config.seed
    shift = local.lam + alphas
    sent = 2 * P.n_edges * state.dim

    def proximal_round(state: NetworkState, k: int) -> None:
        g_idx = batch_positions(local, G, seed, k, PURPOSE_GRAD)
        s_idx = batch_positions(local, S, seed, k, PURPOSE_HESS)
        if g_idx is None and s_idx is None:
            batch = local.csr
            u = batch @ state.x.ravel()
            rhs = sets_grad(state.x, local, None, u)
        else:
            # sets_grad frees its gathered rows before the Hessian batch's
            # are gathered: no two batch operators are alive at once.
            rhs = sets_grad(state.x, local, g_idx)
            batch = local.csr if s_idx is None else local.csr.take(s_idx)
            u = batch @ state.x.ravel()
        rhs += beta * state.y
        rhs += state.q
        w = logistic_curvature(u)
        w /= S
        if gram is None:
            state.x = row_step(state.x, rhs, batch, w, shift, engine.solve, engine.terms, k + 1)
        else:
            state.x = gram_step(state.x, rhs, batch, w, shift, gram, s_idx)
        exchange_and_dual_update(state, P, beta)

    return state, proximal_round, sent, sent


def run(P: MatrixP, local: StackedSets, config: RunConfig, alphas=None, callbacks=()) -> NetworkState:
    """Execute ``max_iters`` synchronous rounds of ``config.algorithm`` and
    return the final state.

    The proximal methods take their ``(N,)`` ``alphas`` (see
    :func:`proximal`); the first-order baselines take none.  Both are
    checked before round 0, as is ``config``.  ``callbacks`` are invoked
    as ``cb(round, state)`` after initialization (round 0) and after every
    completed round; states passed to callbacks must be treated as
    read-only.
    """
    if config.algorithm in PROXIMAL:
        state, step, sent_at_setup, sent_per_round = proximal(P, local, config, alphas)
    elif alphas is not None:
        raise ConfigurationError(f"{config.algorithm!r} takes no alphas; {PROXIMAL} do")
    else:
        from .baselines import first_order  # baselines imports this module

        state, step, sent_at_setup, sent_per_round = first_order(P, local, config)
    state.comm_scalars = sent_at_setup
    for cb in callbacks:
        cb(0, state)
    for k in range(config.max_iters):
        with np.errstate(over="ignore", invalid="ignore"):
            step(state, k)
            check_finite(state.x, k + 1)
        state.round = k + 1
        state.comm_scalars += sent_per_round
        for cb in callbacks:
            cb(state.round, state)
    return state
