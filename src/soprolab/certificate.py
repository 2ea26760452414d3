"""Linear-rate certificates for the stochastic proximal dynamics.

Everything here is a deterministic computation on curvature bounds, the
network spectrum, and the run parameters: the sampling factor ``tau``, the
strong-convexity shift ``m_beta`` of the consensus-augmented objective, the
proximal-matrix condition with its margin, the contraction margin ``kappa``,
the rate/noise pair ``(delta_s, Gamma)``, and the steady-state error bound
``Gamma * N * tau * sigma^2 / delta_s`` for the Lyapunov Q-norm.

The proximal matrices are chosen here and nowhere else: the engine runs
with the alphas that :func:`proximal_alphas` returns.

Every per-agent matrix is a scalar times the identity: the curvature
bounds ``m_i I`` and ``M_i I`` and the proximal matrices ``D_i = alpha_i I``,
given as the ``(N,)`` vector ``alphas``.  Every network-level matrix
therefore reduces exactly to an N x N computation on ``P``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ConfigurationError, InvariantViolation, ParameterError
from .loss import SmoothnessBounds
from .topology import MatrixP

__all__ = [
    "DConditionResult",
    "RateCertificate",
    "QNormError",
    "tau",
    "m_beta",
    "check_D_condition",
    "proximal_alphas",
    "certify",
]


def _bracketed_root(f, a, b, fa=None, fb=None):
    """A root of ``f`` on ``[a, b]`` by Brent's method.

    ``f(a)`` and ``f(b)`` (``fa`` and ``fb`` when given) must differ in
    sign or one of them be zero.  This is the iteration of scipy's
    ``brentq`` at ``xtol=1e-300``, ``rtol=8.9e-16`` and 200 steps: it stops
    once the bracket is narrower than ``1e-300 + 8.9e-16 |x|``.  An
    interpolation step pointing away from the far end of the bracket
    bisects instead, so ``f`` is never evaluated outside ``[a, b]``.
    """
    xpre, xcur = float(a), float(b)
    fpre = f(xpre) if fa is None else fa
    fcur = f(xcur) if fb is None else fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise CertificationError(
            f"root not bracketed on [{a}, {b}]: f(a)={fpre}, f(b)={fcur}"
        )
    xblk = fblk = spre = scur = 0.0
    for _ in range(200):
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (1e-300 + 8.9e-16 * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = 0.0
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num = -fcur * (fblk * dblk - fpre * dpre)
                den = dblk * dpre * (fblk - fpre)
            if den != 0.0:
                stry = num / den
        if stry * sbis > 0.0 and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise CertificationError(f"no root of f on [{a}, {b}] within 200 steps")


def tau(C: int, G: int) -> float:
    """Finite-population sampling factor ``(C - G) / (C * G)``."""
    if not (1 <= G <= C):
        raise ParameterError(f"need 1 <= G <= C, got G={G}, C={C}")
    return (C - G) / (C * G)


def m_beta(m_fbar: float, n_agents: int, M: float, beta: float, lambda_w: float):
    """Strong-convexity constant of the consensus-augmented objective.

    Maximizes ``zeta(g) = min(m_fbar/N - 2*M*g, beta*lambda_w/(2*(1+1/g^2)))``
    over ``g > 0``.  The maximum sits at the unique positive root of

        ``4*M*N*g^3 + (beta*N*lambda_w - 2*m_fbar)*g^2 + 4*M*N*g - 2*m_fbar = 0``,

    which is always bracketed by ``(0, m_fbar/(2*M*N))``.  Returns
    ``(m_beta, gamma_star)``.
    """
    if min(m_fbar, n_agents, M, beta, lambda_w) <= 0:
        raise ParameterError("all inputs to m_beta must be positive")

    a3 = 4.0 * M * n_agents
    a2 = beta * n_agents * lambda_w - 2.0 * m_fbar
    a1 = 4.0 * M * n_agents
    a0 = -2.0 * m_fbar

    def cubic(g):
        return ((a3 * g + a2) * g + a1) * g + a0

    hi = m_fbar / (2.0 * M * n_agents)
    if not (cubic(0.0) < 0.0 < cubic(hi)):
        raise CertificationError(
            f"cubic root not bracketed on (0, {hi}): "
            f"f(0)={cubic(0.0)}, f(hi)={cubic(hi)}"
        )
    gamma = _bracketed_root(cubic, 0.0, hi)
    scale = max(abs(a3), abs(a2), abs(a1), abs(a0))
    if abs(cubic(gamma)) > 1e-12 * scale:
        raise CertificationError(
            f"cubic residual {cubic(gamma)} exceeds 1e-12 * {scale}"
        )
    val = min(
        m_fbar / n_agents - 2.0 * M * gamma,
        beta * lambda_w / (2.0 * (1.0 + 1.0 / gamma**2)),
    )
    if not (val > 0.0 and 0.0 < gamma < hi):
        raise CertificationError(f"degenerate maximizer gamma={gamma}, zeta={val}")
    return float(val), float(gamma)


def _lambda_min_shifted(
    alphas: np.ndarray, t: np.ndarray, beta: float, P: MatrixP
) -> float:
    """Smallest eigenvalue of ``diag(alphas + t) - beta * P``.

    When the diagonal is one value ``s`` for every agent and ``beta >= 0``,
    that is ``s - beta * lambda_max(P)`` from the spectral summary computed
    once per matrix; a per-agent diagonal takes an N x N eigensolve.
    """
    diag = alphas + t
    if beta >= 0 and np.all(diag == diag[0]):
        return float(diag[0] - beta * P.spectral.lambda_max)
    return float(np.linalg.eigvalsh(-beta * P.matrix + np.diag(diag))[0])


@dataclass(frozen=True)
class DConditionResult:
    passed: bool
    margin: float


def check_D_condition(
    alphas: np.ndarray,
    bounds: SmoothnessBounds,
    eta_s: float,
    m_beta_value: float,
    beta: float,
    P: MatrixP,
) -> DConditionResult:
    """Verify the proximal-matrix condition and report its eigenvalue margin.

    Requires ``D`` to dominate
    ``LM/(2(1-eta)) + (LM-Lm)^2/(8 eta m_beta) + (LM-3Lm)/2 + beta(I/2 + W)``;
    the margin is the smallest eigenvalue of the difference (positive iff the
    condition holds strictly).
    """
    if not 0.0 < eta_s < 1.0:
        raise ParameterError(f"eta_s must lie in (0,1), got {eta_s}")
    if m_beta_value <= 0 or beta <= 0:
        raise ParameterError("m_beta and beta must be positive")
    t = _condition_shift(bounds.m, bounds.M, eta_s, m_beta_value, beta)
    margin = _lambda_min_shifted(alphas, t, beta, P)
    return DConditionResult(passed=margin > 0.0, margin=margin)


def _condition_shift(m, M, eta_s, m_beta_value, beta):
    """The diagonal that the proximal condition subtracts from D, for the
    curvature bounds ``m``, ``M`` (per agent or one pair)."""
    return -(
        M / (2.0 * (1.0 - eta_s))
        + (M - m) ** 2 / (8.0 * eta_s * m_beta_value)
        + (M - 3.0 * m) / 2.0
        + beta / 2.0
    )


def proximal_alphas(
    bounds: SmoothnessBounds,
    P: MatrixP,
    beta: float,
    eta_s: float,
    mu: float | None = None,
) -> tuple[np.ndarray, float]:
    """The ``(N,)`` alphas of ``D_i = alpha_i I`` and the ``mu`` they use.

    Every agent gets ``alpha = (1/2 + lambda_max) beta + mu``.  The recipe
    uses the worst-case pair ``m = min_i m_i``, ``M = max_i M_i``, so any
    ``mu`` strictly above

        ``(M - 3m)/2 + M/(2(1-eta_s)) + (M-m)^2/(8 eta_s m_beta)``

    passes the proximal condition; ``mu=None`` takes that bound plus a
    headroom of ``0.05 max(M, 1)``.  The alphas are checked against the
    condition, and too small a ``mu`` raises with the violated margin.
    """
    if not 0.0 < eta_s < 1.0:
        raise ConfigurationError(f"eta_s must lie in (0,1), got {eta_s}")
    if mu is not None and mu <= 0:
        raise ConfigurationError(f"mu must be positive, got {mu}")
    spec = P.spectral
    m_b, _ = m_beta(
        float(bounds.m.sum()), bounds.n_agents, bounds.max_M, beta, spec.lambda_w
    )
    m, M = bounds.min_m, bounds.max_M
    lower = -_condition_shift(m, M, eta_s, m_b, beta) - beta / 2.0
    if mu is None:
        mu = max(lower, 0.0) + 0.05 * max(M, 1.0)
    alphas = np.full(bounds.n_agents, (0.5 + spec.lambda_max) * beta + mu)
    chk = check_D_condition(alphas, bounds, eta_s, m_b, beta, P)
    if not chk.passed:
        raise ConfigurationError(
            f"proximal blocks violate the positivity condition: margin {chk.margin}"
            f" (mu={mu} is below the required bound {lower})"
        )
    return alphas, mu


@dataclass
class RateCertificate:
    """All quantities needed to state the linear-rate and error-bound claim."""

    n_agents: int
    beta: float
    lambda_w: float
    lambda_max: float
    m_fbar: float
    M: float
    m_beta: float
    gamma_star: float
    tau: float
    sigma_sq: float
    eta_s: float
    c0: float
    c1: float
    c2_star: float
    kappa: float
    delta_s: float
    Gamma: float
    steady_bound: float
    r_diag: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.c0 < 2.0 * self.eta_s * self.m_beta:
            raise InvariantViolation(f"c0={self.c0} out of range")
        if not self.kappa > 0:
            raise InvariantViolation(f"kappa={self.kappa} not positive")
        if not 0.0 < self.delta_s < 1.0:
            raise InvariantViolation(f"delta_s={self.delta_s} outside (0,1)")

    def to_dict(self) -> dict:
        out = {}
        for k, v in self.__dict__.items():
            if isinstance(v, np.ndarray):
                out[k] = v.tolist()
            else:
                out[k] = v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RateCertificate":
        data = dict(data)
        data["r_diag"] = np.asarray(data["r_diag"], dtype=float)
        return cls(**data)


def _delta_terms(gap, alphas, bounds, beta, lambda_w, eta_s, m_b, c1, P, norm_sq):
    """The rate terms at ``c0 = 2 eta_s m_b - gap``, with c2 in closed form.

    Term one, ``beta lambda_w kappa(c0) / (2 (1 + c1) ||LM + D||^2)``, is
    free of c2.  With ``A = (1 - eta_s) / (1 + 1/c1)``, ``K = gap``,
    ``b_i = (1 + 1/c1) M_i^2 / (beta lambda_w)`` and
    ``s_i = (m_i + M_i)/2 + alpha_i + b_i``, term two is ``A / (1 + c2)``
    and term three is ``min_i K / (s_i + b_i / c2)``.  Term two falls and
    term three rises in c2, so their min peaks where they cross.  Agent i's
    part of term three meets term two at the positive root of
    ``K c^2 + (K - A s_i) c - A b_i = 0``; term two lies above it below
    that root and under it beyond, so the crossing is the largest root
    ``c2*`` and its value is ``A / (1 + c2*)``.  Each root takes the form
    without cancellation for the sign of ``K - A s_i``.

    kappa is the rate matrix at the top end ``c0 = hi``, whose smallest
    eigenvalue is the proximal-condition margin, less
    ``diag((M - m)^2 / 4 (1/c0 - 1/hi))``.  The alphas cancel against the
    condition's terms once, in that matrix, so kappa follows the gap
    smoothly instead of in steps of the alphas' last bit.

    The caller passes the gap rather than c0 because the best c0 can sit
    within a relative 1e-7 of its upper end, where ``K`` computed from c0
    would keep only its leading bits.  Returns ``(term1, crossing value,
    c2*, kappa)``; term one is negative where kappa is.
    """
    hi = 2.0 * eta_s * m_b
    top = alphas + _condition_shift(bounds.m, bounds.M, eta_s, m_b, beta)
    drop = 0.25 * (bounds.M - bounds.m) ** 2 * gap / (hi * (hi - gap))
    k = _lambda_min_shifted(top, -drop, beta, P)
    term1 = beta * lambda_w * k / (2.0 * (1.0 + c1) * norm_sq)
    cc1 = 1.0 + 1.0 / c1
    A = (1.0 - eta_s) / cc1
    b = cc1 * bounds.M**2 / (beta * lambda_w)
    B = gap - A * (0.5 * (bounds.m + bounds.M) + alphas + b)
    q = np.abs(B) + np.sqrt(B * B + 4.0 * gap * A * b)
    falls = B < 0.0
    roots = np.where(falls, q, 2.0 * A * b) / np.where(falls, 2.0 * gap, q)
    c2 = float(roots.max())
    return term1, A / (1.0 + c2), c2, k


def certify(
    bounds: SmoothnessBounds,
    P: MatrixP,
    beta: float,
    alphas: np.ndarray,
    eta_s: float,
    sigma_sq: float,
    tau_value: float,
    c1: float = 1.0,
) -> RateCertificate:
    """Compute the full rate certificate for a parameter choice.

    The contraction factor ``delta_s`` is the sup over c0 and c2 of the
    min of the three rate terms.  For each c0 the c2 trade-off has the
    closed form of :func:`_delta_terms`.  Over ``c0`` in
    ``(0, 2 eta_s m_beta)``, term one follows kappa and does not
    decrease, while the crossing value of terms two and three decreases
    (a smaller ``K`` lowers term three for every c2).  The max of their
    min is therefore where they cross, found as one bracketed root, or an
    endpoint when term one minus the crossing value keeps its sign.  The
    search runs on the gap ``2 eta_s m_beta - c0``.  The aggregate
    strong-convexity constant ``m_fbar`` is ``bounds.m.sum()``: the sum of
    the per-agent constants lower-bounds the restricted constant of the
    aggregate objective.  Fails with diagnostics when the proximal
    condition fails or no positive rate exists.
    """
    if c1 <= 0:
        raise ParameterError(f"c1 must be positive, got {c1}")
    if sigma_sq < 0 or tau_value < 0:
        raise ParameterError("sigma_sq and tau must be nonnegative")
    n_agents = bounds.n_agents
    m_fbar = float(bounds.m.sum())
    if m_fbar <= 0:
        raise CertificationError(
            "aggregate objective has no strong convexity (m_fbar <= 0); "
            "certificates need a strictly convex regularizer"
        )
    lambda_w, lambda_max = P.spectral.lambda_w, P.spectral.lambda_max

    m_b, gamma_star = m_beta(m_fbar, n_agents, bounds.max_M, beta, lambda_w)
    chk = check_D_condition(alphas, bounds, eta_s, m_b, beta, P)
    if not chk.passed:
        raise CertificationError(
            f"proximal condition fails with margin {chk.margin}; increase mu/alpha"
        )

    norm_sq = float(np.max(bounds.M + alphas) ** 2)  # ||LM + D||^2
    hi = 2.0 * eta_s * m_b

    def terms(gap):
        return _delta_terms(gap, alphas, bounds, beta, lambda_w, eta_s, m_b, c1, P, norm_sq)

    def excess(gap):  # term one minus the crossing value; falls as the gap grows
        term1, val, _, _ = terms(gap)
        return term1 - val

    # Term one is negative past the kappa edge, so the whole range of c0 is
    # one bracket and the edge needs no search of its own.
    gap_lo, gap_hi = hi * 1e-12, hi * (1.0 - 1e-12)
    f_lo, f_hi = excess(gap_lo), excess(gap_hi)
    if f_lo <= 0.0:  # term one binds everywhere and peaks at the largest c0
        gap = gap_lo
    elif f_hi >= 0.0:  # the crossing value binds everywhere and peaks at the smallest c0
        gap = gap_hi
    else:
        gap = _bracketed_root(excess, gap_lo, gap_hi, f_lo, f_hi)
    term1, val, c2_star, kap = terms(gap)
    if f_lo > 0.0 > f_hi and term1 < val:
        # Where c0 is a small part of its range, term one moves by more
        # than its last bits from one float gap to the next, so a root at
        # which it binds can sit below the crossing value.  The first
        # smaller gap at which the crossing value binds lies in Brent's
        # last bracket, a few floats away; the larger min of the two is kept.
        below, t = gap, (term1, val)
        while t[0] < t[1]:
            below = math.nextafter(below, 0.0)
            t = terms(below)
        if t[1] > term1:
            gap, (term1, val, c2_star, kap) = below, t
    delta_s = min(term1, val)
    c0_star = hi - gap
    if not (kap > 0.0 and delta_s > 0.0):
        raise CertificationError(
            f"no positive contraction factor found (best delta at c0={c0_star}: "
            f"{delta_s}, kappa {kap})"
        )
    if delta_s >= 1.0:  # theory guarantees < 1; guard anyway
        raise CertificationError(f"delta_s={delta_s} not in (0,1)")

    Gamma = 2.0 * (1.0 + c1) * delta_s / lambda_w + 2.0
    steady = Gamma * n_agents * tau_value * sigma_sq / delta_s
    return RateCertificate(
        n_agents=n_agents,
        beta=beta,
        lambda_w=lambda_w,
        lambda_max=lambda_max,
        m_fbar=m_fbar,
        M=bounds.max_M,
        m_beta=m_b,
        gamma_star=gamma_star,
        tau=tau_value,
        sigma_sq=sigma_sq,
        eta_s=eta_s,
        c0=c0_star,
        c1=c1,
        c2_star=c2_star,
        kappa=kap,
        delta_s=delta_s,
        Gamma=Gamma,
        steady_bound=steady,
        r_diag=0.5 * (bounds.m + bounds.M) + alphas,
    )


class QNormError:
    """Lyapunov distance ``||z - z*||_Q^2`` of a primal/dual network state.

    ``Q = diag(beta R, I)`` acts on ``z = (x, v)`` with ``v`` the preimage of
    the dual surrogate under the square root of the lift of ``P``, so the
    dual part is ``sum_c dq_c^T P^+ dq_c`` over the columns of
    ``dq = q - q_star``, which is exact because conserved dual iterates stay
    in the range of the lift.  It is evaluated as one Gram product,
    ``<P^+, dq dq^T>``.  The pseudoinverse is made once, as
    ``inv(P + 11^T/N) - 11^T/N``: ``P + 11^T/N`` has the eigenvalue 1 on
    the all-ones vector and those of ``P`` elsewhere, so it is invertible
    exactly when the zero eigenvalue of ``P`` is simple.  ``r`` is the
    ``(N,)`` vector of the scalars ``r_i`` of ``R_i = r_i I``, and
    ``q_star`` is the stacked ``-grad f_i(x_star)`` blocks.
    """

    def __init__(
        self, P: MatrixP, r, beta: float, x_star: np.ndarray, q_star: np.ndarray
    ):
        spec = P.spectral
        if not spec.lambda_w > 1e-12 * max(spec.lambda_max, 1.0):
            raise InvariantViolation(
                f"expected a simple zero eigenvalue, got lambda_w {spec.lambda_w}"
            )
        n = P.n_agents
        self._p_pinv = np.linalg.inv(P.matrix + 1.0 / n)
        self._p_pinv -= 1.0 / n
        self._beta = beta
        self._r = np.asarray(r, dtype=float)
        self._x_star = np.asarray(x_star, dtype=float)
        self._q_star = np.asarray(q_star, dtype=float)
        self._q_star_norm = float(np.linalg.norm(self._q_star))
        self._n = n

    def __call__(self, x: np.ndarray, q: np.ndarray) -> float:
        dq = q - self._q_star
        mean_comp = dq.mean(axis=0)
        scale = max(float(np.linalg.norm(q)), self._q_star_norm, 1.0)
        if math.sqrt(self._n) * float(np.linalg.norm(mean_comp)) > 1e-8 * scale:
            raise InvariantViolation(
                "dual iterate left the range of the network matrix "
                f"(consensus component {np.linalg.norm(mean_comp)})"
            )
        v_part = float(np.vdot(self._p_pinv, dq @ dq.T))
        dx = x - self._x_star
        x_part = float(self._r @ np.einsum("ij,ij->i", dx, dx))
        return self._beta * x_part + v_part
