import dataclasses
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from oracles import certify_delta_nested, kappa, q_norm_eigen
from soprolab import certificate
from soprolab.certificate import (
    QNormError,
    RateCertificate,
    certify,
    check_D_condition,
    m_beta,
    proximal_alphas,
    tau,
)
from soprolab.errors import (
    CertificationError,
    ConfigurationError,
    InvariantViolation,
    ParameterError,
)
from soprolab.loss import SmoothnessBounds
from soprolab.topology import build_random_connected_graph, laplacian_weights


def ring_P(n=5, w=1.0):
    return laplacian_weights(n, {(i, (i + 1) % n): w for i in range(n)})


def homogeneous_bounds(n, m, M):
    return SmoothnessBounds(m=np.full(n, m), M=np.full(n, M))


# ------------------------------------------------------------ root finder


def counted(f):
    """``f`` that records every point it is evaluated at."""
    def wrapper(x):
        wrapper.points.append(x)
        return f(x)

    wrapper.points = []
    return wrapper


@pytest.mark.parametrize(
    "f, a, b, root",
    [
        (lambda x: 4.0 * x - 1.0, 0.0, 1.0, 0.25),
        (lambda x: 0.75 - 3.0 * x, 0.0, 1.0, 0.25),
        (lambda x: x**3 - 8.0, 0.0, 5.0, 2.0),
        (lambda x: 8.0 - x**3, 0.0, 5.0, 2.0),
        (lambda x: math.exp(-x) - 0.5, 0.0, 5.0, math.log(2.0)),
        (lambda x: math.atan(1e8 * (x - 0.125)), -3.0, 7.0, 0.125),
    ],
    ids=["linear-up", "linear-down", "cubic-up", "cubic-down", "exp-down", "atan-step"],
)
def test_bracketed_root_finds_roots_of_monotone_functions(f, a, b, root):
    got = certificate._bracketed_root(f, a, b)
    assert abs(got - root) <= 8.9e-16 * abs(root)
    assert certificate._bracketed_root(f, b, a) == pytest.approx(root, rel=8.9e-16, abs=0.0)


def test_bracketed_root_returns_an_endpoint_root_without_searching():
    f = counted(lambda x: x - 1.0)
    assert certificate._bracketed_root(f, 1.0, 3.0) == 1.0
    assert certificate._bracketed_root(f, -2.0, 1.0) == 1.0
    assert f.points == [1.0, 3.0, -2.0, 1.0]
    g = counted(lambda x: x - 1.0)
    assert certificate._bracketed_root(g, 1.0, 3.0, 0.0, 2.0) == 1.0
    assert g.points == []


@pytest.mark.parametrize("root", [1e-300, 1e-200, 1e-100])
def test_bracketed_root_resolves_a_root_near_the_smallest_tolerance(root):
    # The kappa edge has the shape a - b / c0.
    got = certificate._bracketed_root(lambda c0: 1.0 - root / c0, root / 10.0, root * 1e10)
    assert abs(got - root) <= 1e-300 + 8.9e-16 * root


def test_bracketed_root_raises_without_a_sign_change():
    with pytest.raises(CertificationError, match="not bracketed"):
        certificate._bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(CertificationError, match="not bracketed"):
        certificate._bracketed_root(lambda x: x - 5.0, 0.0, 1.0, -5.0, -4.0)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0),
        (lambda x: (x - 0.7) ** 9, 0.0, 1.0),
        (lambda x: math.exp(12.0 * (x - 0.05)) - 1.0, 0.0, 1.0),
        (lambda x: 1.0 - 1e-300 / x, 1e-301, 1e-290),
        (lambda x: x - 0.1 if x < 0.1 else 1e6 * (x - 0.1), 0.0, 1.0),
    ],
    ids=["tanh", "ninth-power", "exp", "hyperbola", "kink"],
)
def test_bracketed_root_never_evaluates_outside_the_bracket(f, a, b):
    g = counted(f)
    got = certificate._bracketed_root(g, a, b)
    assert a <= got <= b
    assert all(a <= x <= b for x in g.points)


# ---------------------------------------------------------------- tau


def test_tau_full_batch_is_zero():
    assert tau(50, 50) == 0.0
    assert tau(1, 1) == 0.0


def test_tau_paper_values_exact():
    assert Fraction(239 - 80, 239 * 80) == Fraction(159, 19120)
    assert tau(239, 80) == 159 / 19120
    assert Fraction(600 - 80, 600 * 80) == Fraction(13, 1200)
    assert tau(600, 80) == 13 / 1200


def test_tau_range_errors():
    with pytest.raises(ParameterError):
        tau(10, 0)
    with pytest.raises(ParameterError):
        tau(10, 11)


# ---------------------------------------------------------------- m_beta


def zeta(gamma, m_fbar, n, M, beta, lam_w):
    return min(m_fbar / n - 2 * M * gamma, beta * lam_w / (2 * (1 + 1 / gamma**2)))


def test_m_beta_root_satisfies_cubic():
    m_fbar, n, M, beta, lam_w = 0.5, 5, 0.3, 1.2, 0.8
    val, g = m_beta(m_fbar, n, M, beta, lam_w)
    coeffs = [4 * M * n, beta * n * lam_w - 2 * m_fbar, 4 * M * n, -2 * m_fbar]
    resid = ((coeffs[0] * g + coeffs[1]) * g + coeffs[2]) * g + coeffs[3]
    assert abs(resid) <= 1e-10 * max(abs(c) for c in coeffs)
    assert 0 < g < m_fbar / (2 * M * n)
    assert val > 0


def test_m_beta_is_the_maximum_of_zeta():
    # Grid-search oracle over 10^4 points.
    m_fbar, n, M, beta, lam_w = 0.5, 5, 0.3, 1.2, 0.8
    val, _ = m_beta(m_fbar, n, M, beta, lam_w)
    hi = m_fbar / (2 * M * n)
    grid = np.linspace(hi * 1e-6, hi * (1 - 1e-9), 10_000)
    best = max(zeta(g, m_fbar, n, M, beta, lam_w) for g in grid)
    assert val >= best - 1e-8


def test_m_beta_varied_parameters():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m_fbar = float(rng.uniform(0.01, 2.0))
        n = int(rng.integers(2, 30))
        M = float(rng.uniform(0.05, 5.0))
        beta = float(rng.uniform(0.05, 10.0))
        lam_w = float(rng.uniform(0.05, 5.0))
        val, g = m_beta(m_fbar, n, M, beta, lam_w)
        hi = m_fbar / (2 * M * n)
        assert 0 < g < hi
        assert val > 0
        grid = np.linspace(hi * 1e-6, hi * (1 - 1e-9), 2000)
        best = max(zeta(x, m_fbar, n, M, beta, lam_w) for x in grid)
        assert val >= best - 1e-8


def test_m_beta_root_matches_brentq():
    rng = np.random.default_rng(4)
    for _ in range(200):
        m_fbar, M, beta, lam_w = 10.0 ** rng.uniform([-2, -1, -1, -2], [1, 2, 1, 1])
        n = int(rng.integers(2, 300))
        coeffs = [4 * M * n, beta * n * lam_w - 2 * m_fbar, 4 * M * n, -2 * m_fbar]

        def cubic(g):
            return ((coeffs[0] * g + coeffs[1]) * g + coeffs[2]) * g + coeffs[3]

        want = brentq(cubic, 0.0, m_fbar / (2 * M * n), xtol=1e-300, rtol=8.9e-16, maxiter=200)
        _, got = m_beta(m_fbar, n, M, beta, lam_w)
        assert abs(got - want) <= 8.9e-16 * want


def test_m_beta_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        m_beta(0.0, 5, 0.3, 1.0, 0.5)
    with pytest.raises(ParameterError):
        m_beta(0.5, 5, 0.3, -1.0, 0.5)


# ---------------------------------------------------------- condition check


def recipe_alphas(P, bounds, beta, mu):
    lam_max = np.linalg.eigvalsh(P.matrix)[-1]
    return np.full(bounds.n_agents, (0.5 + lam_max) * beta + mu)


def test_condition_margin_matches_scalar_reduction():
    # Homogeneous agents: margin must equal mu minus the scalar lower bound.
    P = ring_P(5)
    m, M = 0.1, 0.3
    bounds = homogeneous_bounds(5, m, M)
    beta, eta = 1.0, 0.5
    mb, _ = m_beta(0.5, 5, M, beta, np.linalg.eigvalsh(P.matrix)[1])
    mu_min = (M - 3 * m) / 2 + M / (2 * (1 - eta)) + (M - m) ** 2 / (8 * eta * mb)
    for mu in (mu_min + 0.05, mu_min + 1.0):
        alphas = recipe_alphas(P, bounds, beta, mu)
        margin = check_D_condition(alphas, bounds, eta, mb, beta, P)
        assert type(margin) is float and margin > 0.0
        assert abs(margin - (mu - mu_min)) <= 1e-10 * max(1.0, abs(mu))


def test_condition_fails_for_mu_zero():
    P = ring_P(4)
    bounds = homogeneous_bounds(4, 0.05, 0.5)
    mb, _ = m_beta(0.2, 4, 0.5, 1.0, np.linalg.eigvalsh(P.matrix)[1])
    alphas = recipe_alphas(P, bounds, 1.0, 0.0)
    assert check_D_condition(alphas, bounds, 0.5, mb, 1.0, P) <= 0.0


def test_condition_scalar_case_with_tiny_beta():
    # m = M and beta -> 0: the requirement reduces to
    # D > (M/(2(1-eta)) - M) I, checked against plain arithmetic.
    P = ring_P(3)
    M = 0.4
    bounds = homogeneous_bounds(3, M, M)
    eta, beta = 0.25, 1e-9
    alpha = 1.0
    alphas = np.full(3, alpha)
    margin = check_D_condition(alphas, bounds, eta, 0.123, beta, P)
    expected = alpha - (M / (2 * (1 - eta)) - M)
    assert abs(margin - expected) <= 1e-6


def test_condition_margin_monotone_in_mu():
    P = ring_P(6)
    rng = np.random.default_rng(1)
    bounds = SmoothnessBounds(m=np.full(6, 0.05), M=0.2 + 0.1 * rng.random(6))
    mb, _ = m_beta(0.3, 6, bounds.max_M, 2.0, np.linalg.eigvalsh(P.matrix)[1])
    margins = []
    for mu in (0.5, 1.0, 2.0, 4.0):
        alphas = recipe_alphas(P, bounds, 2.0, mu)
        margins.append(check_D_condition(alphas, bounds, 0.5, mb, 2.0, P))
    assert all(b >= a - 1e-12 for a, b in zip(margins, margins[1:]))


# ---------------------------------------------------------- proximal alphas


def recipe_mu_min(P, bounds, beta, eta):
    """The recipe's lower bound on mu, from the worst-case pair (min m, max M)."""
    lam_w = np.linalg.eigvalsh(P.matrix)[1]
    mb, _ = m_beta(float(bounds.m.sum()), bounds.n_agents, bounds.max_M, beta, lam_w)
    m, M = bounds.min_m, bounds.max_M
    return (M - 3 * m) / 2 + M / (2 * (1 - eta)) + (M - m) ** 2 / (8 * eta * mb)


def heterogeneous_setup(seed=1, n=6):
    rng = np.random.default_rng(seed)
    P = build_random_connected_graph(n, 2.5, seed=seed)
    bounds = SmoothnessBounds(m=0.05 + 0.05 * rng.random(n), M=0.2 + 0.2 * rng.random(n))
    return P, bounds


def test_proximal_alphas_formula():
    # Triangle with unit weights: lambda_max = 3, so alpha = beta*3.5 + mu.
    P = laplacian_weights(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
    bounds = homogeneous_bounds(3, 0.3, 0.3)
    alphas, mu = proximal_alphas(bounds, P, beta=1.0, eta_s=0.5, mu=2.0)
    assert alphas.shape == (3,)
    assert np.allclose(alphas, 5.5)
    assert mu == 2.0


def test_proximal_alphas_pass_condition_check():
    P, bounds = heterogeneous_setup()
    mu = recipe_mu_min(P, bounds, 1.0, 0.5) + 0.2
    alphas, got_mu = proximal_alphas(bounds, P, beta=1.0, eta_s=0.5, mu=mu)
    assert got_mu == mu
    lam_w = np.linalg.eigvalsh(P.matrix)[1]
    mb, _ = m_beta(float(bounds.m.sum()), bounds.n_agents, bounds.max_M, 1.0, lam_w)
    assert check_D_condition(alphas, bounds, 0.5, mb, 1.0, P) > 0.0


@pytest.mark.parametrize("beta, eta", [(1.0, 0.5), (0.3, 0.2), (4.0, 0.9)])
def test_proximal_alphas_default_mu_is_the_bound_plus_headroom(beta, eta):
    P, bounds = heterogeneous_setup(seed=2)
    alphas, mu = proximal_alphas(bounds, P, beta=beta, eta_s=eta)
    want = max(recipe_mu_min(P, bounds, beta, eta), 0.0) + 0.05 * max(bounds.max_M, 1.0)
    assert abs(mu - want) <= 1e-12 * want
    lam_max = np.linalg.eigvalsh(P.matrix)[-1]
    assert np.allclose(alphas, (0.5 + lam_max) * beta + mu, rtol=1e-12, atol=0.0)


def test_proximal_alphas_reject_small_mu():
    # Homogeneous agents: the margin is exactly mu minus the bound.
    P = ring_P(5)
    bounds = homogeneous_bounds(5, 0.1, 0.3)
    lo = recipe_mu_min(P, bounds, 1.0, 0.5)
    with pytest.raises(ConfigurationError, match="below the required bound") as e:
        proximal_alphas(bounds, P, beta=1.0, eta_s=0.5, mu=0.5 * lo)
    assert f"mu={0.5 * lo} " in str(e.value)


@pytest.mark.parametrize("eta", [0.0, 1.0, -0.1, 1.5])
def test_proximal_alphas_reject_eta_s_outside_the_unit_interval(eta):
    P, bounds = heterogeneous_setup()
    with pytest.raises(ConfigurationError, match=r"eta_s must lie in \(0,1\)"):
        proximal_alphas(bounds, P, beta=1.0, eta_s=eta)


@pytest.mark.parametrize("mu", [0.0, -2.0])
def test_proximal_alphas_reject_a_nonpositive_mu(mu):
    P, bounds = heterogeneous_setup()
    with pytest.raises(ConfigurationError, match="mu must be positive"):
        proximal_alphas(bounds, P, beta=1.0, eta_s=0.5, mu=mu)


# ---------------------------------------------------------------- kappa


def test_kappa_recipe_closed_form():
    # Homogeneous recipe: kappa = mu - (M-3m)/2 - M/(2(1-eta)) - (M-m)^2/(4 c0).
    P = ring_P(5)
    m, M = 0.1, 0.3
    bounds = homogeneous_bounds(5, m, M)
    beta, eta, mu, c0 = 1.5, 0.4, 3.0, 0.01
    alphas = recipe_alphas(P, bounds, beta, mu)
    got = kappa(c0, eta, alphas, bounds, beta, P)
    expected = mu - (M - 3 * m) / 2 - M / (2 * (1 - eta)) - (M - m) ** 2 / (4 * c0)
    assert abs(got - expected) <= 1e-10


def test_kappa_equals_condition_margin_at_upper_c0():
    P = ring_P(5)
    bounds = homogeneous_bounds(5, 0.1, 0.35)
    beta, eta = 1.0, 0.5
    mb, _ = m_beta(0.5, 5, 0.35, beta, np.linalg.eigvalsh(P.matrix)[1])
    alphas = recipe_alphas(P, bounds, beta, 2.0)
    margin = check_D_condition(alphas, bounds, eta, mb, beta, P)
    k = kappa(2.0 * eta * mb, eta, alphas, bounds, beta, P)
    assert abs(k - margin) <= 1e-12


def test_kappa_diverges_as_c0_vanishes():
    P = ring_P(4)
    bounds = homogeneous_bounds(4, 0.05, 0.3)
    alphas = recipe_alphas(P, bounds, 1.0, 1.0)
    assert kappa(1e-12, 0.5, alphas, bounds, 1.0, P) < -1e6


def test_kappa_independent_of_c0_when_m_equals_M():
    P = ring_P(4)
    bounds = homogeneous_bounds(4, 0.3, 0.3)
    alphas = recipe_alphas(P, bounds, 1.0, 1.0)
    k1 = kappa(1e-9, 0.5, alphas, bounds, 1.0, P)
    k2 = kappa(0.123, 0.5, alphas, bounds, 1.0, P)
    assert abs(k1 - k2) <= 1e-12


def test_kappa_range_validation():
    P = ring_P(4)
    bounds = homogeneous_bounds(4, 0.1, 0.3)
    alphas = recipe_alphas(P, bounds, 1.0, 1.0)
    with pytest.raises(ParameterError):
        kappa(0.0, 0.5, alphas, bounds, 1.0, P)
    with pytest.raises(ParameterError):
        kappa(1.0, 0.5, alphas, bounds, 1.0, P, m_beta_value=0.1)


@pytest.mark.parametrize(
    "alphas, t, eigensolves",
    [
        (np.full(12, 9.5), -1.25, 0),
        (np.full(12, 9.5), np.full(12, -1.25), 0),
        (9.5 + np.linspace(0.0, 1.0, 12), np.linspace(-1.25, -1.0, 12) ** 2, 1),
    ],
    ids=["uniform", "uniform-per-agent-t", "per-agent"],
)
def test_lambda_min_shifted_matches_eigvalsh_and_skips_it_for_a_uniform_diagonal(
    alphas, t, eigensolves
):
    P = build_random_connected_graph(12, 3.0, seed=3)
    beta = 0.7
    want = np.linalg.eigvalsh(-beta * P.matrix + np.diag(alphas + t))[0]
    P.spectral  # computed once per matrix, before counting
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eig:
        got = certificate._lambda_min_shifted(alphas, t, beta, P)
    assert eig.call_count == eigensolves
    assert abs(got - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------- certify


def certified_setup(seed=0, n=5, beta=1.0, eta=0.5, mu_extra=0.3):
    rng = np.random.default_rng(seed)
    P = build_random_connected_graph(n, 2.5, seed=seed)
    m = np.full(n, 0.1)
    M = 0.2 + 0.2 * rng.random(n)
    bounds = SmoothnessBounds(m=m, M=M)
    alphas = recipe_alphas(P, bounds, beta, recipe_mu_min(P, bounds, beta, eta) + mu_extra)
    return P, bounds, alphas, beta, eta


def grid_delta_oracle(P, bounds, alphas, beta, eta, c1, n_grid=200):
    lam_w = np.linalg.eigvalsh(P.matrix)[1]
    mb, _ = m_beta(float(bounds.m.sum()), bounds.n_agents, bounds.max_M, beta, lam_w)
    hi = 2 * eta * mb
    norm_sq = float(np.max(bounds.M + alphas) ** 2)
    r = 0.5 * (bounds.m + bounds.M) + alphas
    best = 0.0
    c0s = np.linspace(hi * 1e-6, hi * (1 - 1e-6), n_grid)
    c2s = np.logspace(-6, 6, n_grid)
    for c0 in c0s:
        k = kappa(float(c0), eta, alphas, bounds, beta, P)
        if k <= 0:
            continue
        t1 = beta * lam_w * k / (2 * (1 + c1) * norm_sq)
        t2 = (1 - eta) / ((1 + 1 / c1) * (1 + c2s))
        lam_max = np.max(
            r[None, :] + (1 + 1 / c1) * (1 + 1 / c2s)[:, None] * bounds.M[None, :] ** 2 / (beta * lam_w)
        , axis=1)
        t3 = (hi - c0) / lam_max
        val = np.minimum(t1, np.minimum(t2, t3)).max()
        best = max(best, float(val))
    return best


def test_certify_beats_dense_grid():
    P, bounds, alphas, beta, eta = certified_setup(seed=3)
    cert = certify(bounds, P, beta, alphas, eta, sigma_sq=0.2, tau_value=0.05, c1=1.0)
    oracle = grid_delta_oracle(P, bounds, alphas, beta, eta, c1=1.0)
    assert cert.delta_s >= oracle - 1e-6
    assert 0 < cert.delta_s < 1
    assert cert.kappa > 0


@st.composite
def certified_problems(draw):
    """Random connected graphs with heterogeneous m_i, M_i and alpha_i
    (the recipe alphas plus a per-agent surplus), beta, eta_s and c1."""
    n = draw(st.integers(3, 8))
    graph = build_random_connected_graph(
        n, draw(st.floats(2.0, n - 1.0)), seed=draw(st.integers(0, 2**16))
    )
    P = laplacian_weights(n, dict.fromkeys(graph.edges, draw(st.floats(0.2, 2.0))))
    per_agent = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(np.array)
    m = 0.01 + 0.49 * draw(per_agent)
    bounds = SmoothnessBounds(m=m, M=m + draw(per_agent))
    beta, eta = draw(st.floats(0.1, 5.0)), draw(st.floats(0.05, 0.95))
    c1 = 10.0 ** draw(st.floats(-1.0, 1.0))
    alphas, _ = proximal_alphas(bounds, P, beta, eta)
    alphas = alphas + 10.0 ** draw(st.floats(-3.0, 1.0)) * draw(per_agent)
    return P, bounds, alphas, beta, eta, c1


PROPERTY = settings(max_examples=60, deadline=None, database=None)


def network_m_beta(bounds, P, beta):
    return m_beta(float(bounds.m.sum()), bounds.n_agents, bounds.max_M, beta, P.spectral.lambda_w)[0]


def small_c0_crossing():
    """A drawn problem whose best c0 is about 4e-5 of its range.  There
    term one moves by about 3e-11 of its value from one float gap to the
    next, and a root at which term one bound left delta_s 5.3e-12 below
    the nested search (a high-precision evaluation put the crossing at
    0.00433872179041083011)."""
    P = ring_P(3)  # the complete graph on 3 agents
    bounds = SmoothnessBounds(m=np.array([0.01, 0.5, 0.01]),
                              M=np.array([0.01, 0.5, 0.01390625]))
    alphas, _ = proximal_alphas(bounds, P, 1.0, 0.5)
    return P, bounds, alphas, 1.0, 0.5, 1.0


@given(certified_problems())
@example(small_c0_crossing())
@PROPERTY
def test_certify_is_at_least_the_nested_search(problem):
    P, bounds, alphas, beta, eta, c1 = problem
    cert = certify(bounds, P, beta, alphas, eta, sigma_sq=0.2, tau_value=0.05, c1=c1)
    want, _ = certify_delta_nested(bounds, P, beta, alphas, eta, c1)
    assert cert.delta_s >= want * (1.0 - 1e-12)


def assert_c2_is_the_crossing(P, bounds, alphas, beta, eta, c1, fraction):
    """The closed-form c2* at ``gap = fraction * 2 eta m_beta`` against a
    ``brentq`` crossing of terms two and three in log(c2)."""
    lam_w = P.spectral.lambda_w
    m_b = network_m_beta(bounds, P, beta)
    gap = fraction * 2 * eta * m_b
    norm_sq = float(np.max(bounds.M + alphas) ** 2)
    _, val, c2, _ = certificate._delta_terms(
        gap, alphas, bounds, beta, lam_w, eta, m_b, c1, P, norm_sq
    )
    cc1 = 1 + 1 / c1
    r = 0.5 * (bounds.m + bounds.M) + alphas

    def t2(c):
        return (1 - eta) / (cc1 * (1 + c))

    def t3(c):
        return gap / float(np.max(r + cc1 * (1 + 1 / c) * bounds.M**2 / (beta * lam_w)))

    u = brentq(lambda u: t2(math.exp(u)) - t3(math.exp(u)), -745.0, 709.0,
               xtol=1e-300, rtol=8.9e-16, maxiter=500)
    assert abs(c2 - math.exp(u)) <= 1e-12 * c2
    assert abs(val - t2(math.exp(u))) <= 1e-12 * val


@given(certified_problems(), st.sampled_from([1e-10, 1e-6, 1e-2, 0.5, 1.0 - 1e-9]))
@PROPERTY
def test_closed_form_c2_is_the_crossing_of_terms_two_and_three(problem, fraction):
    assert_c2_is_the_crossing(*problem, fraction)


@pytest.mark.parametrize("m", [1e-4, 1e-3])
def test_closed_form_c2_keeps_its_digits_when_term_two_is_small(m):
    # With a tiny c1 and small curvature, K - A s_i is positive for every
    # agent, and the textbook root formula would cancel.
    P = laplacian_weights(4, {(i, j): 2.0 for i in range(4) for j in range(i)})
    bounds = homogeneous_bounds(4, m, m)
    alphas, _ = proximal_alphas(bounds, P, 5.0, 0.95)
    assert_c2_is_the_crossing(P, bounds, alphas, 5.0, 0.95, 1e-8, 0.5)


@given(certified_problems())
@PROPERTY
def test_no_nearby_c0_beats_the_certified_one(problem):
    P, bounds, alphas, beta, eta, c1 = problem
    cert = certify(bounds, P, beta, alphas, eta, sigma_sq=0.2, tau_value=0.05, c1=c1)
    m_b = network_m_beta(bounds, P, beta)
    hi = 2.0 * eta * m_b
    norm_sq = float(np.max(bounds.M + alphas) ** 2)
    gap = hi - cert.c0
    offsets = 10.0 ** np.linspace(-6.0, -1.0, 11)
    for g in gap * np.concatenate([1.0 - offsets, 1.0 + offsets]):
        if not hi * 1e-12 <= g <= hi * (1 - 1e-12):
            continue
        term1, val, _, _ = certificate._delta_terms(
            float(g), alphas, bounds, beta, P.spectral.lambda_w, eta, m_b, c1, P, norm_sq
        )
        assert min(term1, val) <= cert.delta_s * (1 + 1e-12)


# (seed, margin, delta_s of the same search over gaps from hi 1e-12 up, or
# None where kappa is negative at hi 1e-12 and that search finds no rate).
TINY_MARGINS = [(2, 1e-12, 1.3034967321783272e-15), (2, 1e-10, 1.8693725549480408e-13),
                (1, 1.0002e-12, None)]


@pytest.mark.parametrize("seed, margin, from_1e12", TINY_MARGINS)
def test_certify_at_a_tiny_margin_is_at_least_every_gap_from_its_lower_end(
        seed, margin, from_1e12):
    # The recipe alphas moved down until the proximal condition's margin is
    # tiny.  kappa(gap) is at least the margin less (M - m)^2 gap / (4 hi
    # (hi - gap)), so near the top of c0's range it falls below zero within
    # a gap of about margin hi^2 / (M - m)^2: at seed 1 and a margin of
    # 1.0002e-12, the gap hi 1e-12 is past that edge.  The search's lower
    # gap end is where the fall is at most half the margin, if that is
    # below hi 1e-12; term one is then positive there, and at each margin
    # here the crossing with terms two and three lies inside the range.
    P, bounds, alphas, beta, eta = certified_setup(seed=seed)
    m_b = network_m_beta(bounds, P, beta)
    alphas = alphas - check_D_condition(alphas, bounds, eta, m_b, beta, P) + margin
    cert = certify(bounds, P, beta, alphas, eta, sigma_sq=0.1, tau_value=0.05)
    hi = 2.0 * eta * m_b
    spread = float(np.max(bounds.M - bounds.m)) ** 2
    gap_lo = min(hi * 1e-12, 2.0 * margin * hi**2 / (spread + 2.0 * margin * hi))
    norm_sq = float(np.max(bounds.M + alphas) ** 2)

    def terms(gap):
        return certificate._delta_terms(
            gap, alphas, bounds, beta, P.spectral.lambda_w, eta, m_b, 1.0, P, norm_sq)

    term1, val, _, kap = terms(gap_lo)
    assert kap >= 0.4 * margin and term1 > val
    at_1e12 = terms(hi * 1e-12)
    assert (at_1e12[3] < 0.0) is (from_1e12 is None)
    assert cert.delta_s >= (from_1e12 or 0.0)
    assert cert.delta_s >= min(at_1e12[:2])
    for gap in np.geomspace(gap_lo, hi * (1 - 1e-12), 200):
        term1, val, _, _ = terms(float(gap))
        assert min(term1, val) <= cert.delta_s * (1 + 1e-12)


@pytest.mark.parametrize("sigma_sq, tau_value", [(-0.1, 0.05), (0.1, -0.05)])
def test_certify_refuses_a_negative_noise_or_tau(sigma_sq, tau_value):
    P, bounds, alphas, beta, eta = certified_setup(seed=2)
    with pytest.raises(ParameterError, match="^sigma_sq and tau must be nonnegative$"):
        certify(bounds, P, beta, alphas, eta, sigma_sq=sigma_sq, tau_value=tau_value)


def test_certify_zero_tau_gives_zero_bound():
    P, bounds, alphas, beta, eta = certified_setup(seed=4)
    cert = certify(bounds, P, beta, alphas, eta, sigma_sq=0.5, tau_value=0.0)
    assert cert.steady_bound == 0.0


def test_certify_scales_linearly_in_sigma_and_tau():
    P, bounds, alphas, beta, eta = certified_setup(seed=5)
    c1 = certify(bounds, P, beta, alphas, eta, sigma_sq=0.2, tau_value=0.05)
    c2 = certify(bounds, P, beta, alphas, eta, sigma_sq=0.4, tau_value=0.05)
    c3 = certify(bounds, P, beta, alphas, eta, sigma_sq=0.2, tau_value=0.10)
    assert abs(c2.steady_bound - 2 * c1.steady_bound) <= 1e-9 * c2.steady_bound
    assert abs(c3.steady_bound - 2 * c1.steady_bound) <= 1e-9 * c3.steady_bound
    assert c1.delta_s == c2.delta_s == c3.delta_s


def test_certify_fails_closed_on_bad_D():
    P = ring_P(4)
    bounds = homogeneous_bounds(4, 0.05, 0.4)
    tiny = np.full(4, 0.01)
    with pytest.raises(CertificationError):
        certify(bounds, P, 1.0, tiny, 0.5, sigma_sq=0.1, tau_value=0.05)


def test_certificate_consistency_fields():
    P, bounds, alphas, beta, eta = certified_setup(seed=6)
    cert = certify(bounds, P, beta, alphas, eta, sigma_sq=0.3, tau_value=0.02, c1=2.0)
    assert cert.Gamma == 2 * (1 + cert.c1) * cert.delta_s / cert.lambda_w + 2
    expected = cert.Gamma * cert.n_agents * cert.tau * cert.sigma_sq / cert.delta_s
    assert cert.steady_bound == expected
    assert 0 < cert.c0 < 2 * cert.eta_s * cert.m_beta
    data = cert.to_dict()
    assert data.keys() == {f.name for f in dataclasses.fields(RateCertificate)}
    assert data["delta_s"] == cert.delta_s and data["r_diag"] == cert.r_diag.tolist()
    assert json.loads(json.dumps(data)) == data


def test_certificate_rejects_inconsistent_values():
    P, bounds, alphas, beta, eta = certified_setup(seed=7)
    cert = certify(bounds, P, beta, alphas, eta, sigma_sq=0.3, tau_value=0.02)
    for field, value in (("delta_s", 1.5), ("kappa", -1.0), ("c0", 0.0)):
        with pytest.raises(InvariantViolation, match=f"{field}={value}"):
            dataclasses.replace(cert, **{field: value})


# ---------------------------------------------------------------- Q-norm error


def q_star_for(x_star_dim, n, rng):
    # Any stacked blocks with zero sum mimic a feasible dual optimum.
    q = rng.standard_normal((n, x_star_dim))
    return q - q.mean(axis=0)


def test_z_error_zero_at_optimum():
    rng = np.random.default_rng(2)
    P = ring_P(5)
    r = rng.uniform(1.0, 2.0, 5)
    x_star = rng.standard_normal(3)
    q_star = q_star_for(3, 5, rng)
    err = QNormError(P, r, 1.3, x_star, q_star)(np.tile(x_star, (5, 1)), q_star)
    assert err == 0.0


def test_z_error_pure_primal_offset():
    rng = np.random.default_rng(3)
    P = ring_P(4)
    r = rng.uniform(0.5, 1.5, 4)
    x_star = rng.standard_normal(3)
    q_star = q_star_for(3, 4, rng)
    u = rng.standard_normal((4, 3))
    beta = 0.7
    err = QNormError(P, r, beta, x_star, q_star)(x_star + u, q_star)
    expected = beta * sum(r[i] * (u[i] @ u[i]) for i in range(4))
    assert abs(err - expected) <= 1e-12 * max(1.0, expected)


def test_z_error_matches_dense_pseudoinverse_oracle():
    rng = np.random.default_rng(4)
    n, dim = 5, 3
    P = build_random_connected_graph(n, 2.5, seed=8)
    r = rng.uniform(0.5, 2.0, n)
    beta = 1.1
    x_star = rng.standard_normal(dim)
    q_star = q_star_for(dim, n, rng)
    x = x_star + 0.1 * rng.standard_normal((n, dim))
    dq = rng.standard_normal((n, dim))
    dq -= dq.mean(axis=0)  # stay in range(W)
    q = q_star + dq
    got = QNormError(P, r, beta, x_star, q_star)(x, q)

    W = np.kron(P.matrix, np.eye(dim))
    R = np.kron(np.diag(r), np.eye(dim))
    dx = (x - x_star).ravel()
    dqf = dq.ravel()
    expected = beta * dx @ R @ dx + dqf @ np.linalg.pinv(W) @ dqf
    assert abs(got - expected) <= 1e-10 * max(1.0, expected)


@pytest.mark.parametrize("n, degree", [(2, 1.0), (6, 2.5), (200, 5.0)])
@pytest.mark.parametrize("case", ["dual_only", "high_frequency", "scaled"])
def test_z_error_matches_the_eigen_coordinate_form(n, degree, case):
    # The Gram form sums signed terms where the eigen form sums positive
    # ones; high-frequency dq (along the largest eigenvalues of P) is where
    # its sum is smallest against its terms.
    rng = np.random.default_rng(n)
    g = build_random_connected_graph(n, degree, seed=n)
    P = laplacian_weights(n, {e: rng.uniform(0.2, 2.0) for e in g.edges})
    dim, beta = 5, 0.8
    r = rng.uniform(0.5, 2.0, n)
    x_star = rng.standard_normal(dim)
    q_star = q_star_for(dim, n, rng)
    q_err = QNormError(P, r, beta, x_star, q_star)
    x = x_star + 0.1 * rng.standard_normal((n, dim))
    dq = rng.standard_normal((n, dim))
    dq -= dq.mean(axis=0)
    if case == "dual_only":
        x = np.tile(x_star, (n, 1))
        scales = [1.0]
    elif case == "high_frequency":
        dq = P.matrix @ P.matrix @ dq
        scales = [1.0]
    else:
        scales = [1e-12, 1e-6, 1.0, 1e2]
    for s in scales:
        q = q_star + s * dq
        want = q_norm_eigen(P, r, beta, x_star, q_star, x, q)
        assert abs(q_err(x, q) - want) <= 1e-12 * want


def test_z_error_detects_range_violation():
    rng = np.random.default_rng(5)
    P = ring_P(4)
    r = np.ones(4)
    x_star = np.zeros(2)
    q_star = q_star_for(2, 4, rng)
    q_bad = q_star + 1.0  # constant shift sits along the all-ones direction
    with pytest.raises(InvariantViolation):
        QNormError(P, r, 1.0, x_star, q_star)(np.zeros((4, 2)), q_bad)


def dual_updates(P, beta, q0, rng, rounds):
    """Iterates ``x_k`` and the duals ``q_k = q_{k-1} + beta P x_k`` of a
    proximal run, ``x_0`` first."""
    n, dim = q0.shape
    states = [(rng.standard_normal((n, dim)), q0)]
    for _ in range(rounds):
        x = rng.standard_normal((n, dim))
        states.append((x, states[-1][1] + beta * P.disagreement(x)))
    return states


def test_running_q_norm_refuses_a_skipped_or_repeated_round():
    rng = np.random.default_rng(7)
    n, dim, beta = 5, 2, 1.0
    P = ring_P(n)
    q_err = QNormError(P, np.ones(n), beta, np.zeros(dim), q_star_for(dim, n, rng))
    (x0, q0), (x1, q1), (x2, q2) = dual_updates(P, beta, np.zeros((n, dim)), rng, 2)
    with pytest.raises(InvariantViolation, match=r"round 1 as its first round"):
        q_err.running()(1, x1, q1)
    track = q_err.running()
    track(0, x0, q0)
    with pytest.raises(InvariantViolation, match=r"round 2 after round 0"):
        track(2, x2, q2)
    track(1, x1, q1)
    with pytest.raises(InvariantViolation, match=r"round 1 after round 1"):
        track(1, x1, q1)
    # A second run's round 0 is a repeated round to the first run's evaluator.
    with pytest.raises(InvariantViolation, match=r"round 0 after round 1"):
        track(0, x0, q0)
    assert track(2, x2, q2) == pytest.approx(q_err(x2, q2), rel=1e-13)


def test_running_q_norm_runs_the_consensus_check():
    rng = np.random.default_rng(5)
    P = ring_P(4)
    q_star = q_star_for(2, 4, rng)
    track = QNormError(P, np.ones(4), 1.0, np.zeros(2), q_star).running()
    track(0, np.zeros((4, 2)), q_star)
    with pytest.raises(InvariantViolation, match="left the range"):
        track(1, np.zeros((4, 2)), q_star + 1.0)
