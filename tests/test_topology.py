import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import densify, edge_list_text, random_connected_graph_per_pair
from soprolab import topology
from soprolab.errors import InvariantViolation, ParameterError, ParseError, SoprolabError
from soprolab.sparse import Csr
from soprolab.topology import (
    MatrixP,
    build_random_connected_graph,
    laplacian_weights,
    read_edge_list,
    spectral_summary,
)


def bfs_connected(n, edges):
    # Independent connectivity oracle.
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == n


@pytest.mark.parametrize("n", [2, 3, 5, 20, 57, 200])
def test_random_graph_matches_the_per_pair_draw(n):
    # Average degree 2, 5 and the complete graph, where each is possible.
    degrees = [deg for deg in (2.0, 5.0, n - 1.0)
               if n - 1 <= math.ceil(n * deg / 2) <= n * (n - 1) // 2]
    assert degrees
    for deg in degrees:
        for seed in range(5):
            got = build_random_connected_graph(n, deg, seed)
            assert got.edges == random_connected_graph_per_pair(n, deg, seed)


def test_paper_scale_graph_20_nodes_degree_5():
    g = build_random_connected_graph(20, 5.0, seed=0)
    assert g.n_agents == 20
    assert g.n_edges == 50
    assert g.degrees.mean() == 5.0
    assert bfs_connected(20, g.edges)


def test_two_nodes_single_edge():
    g = build_random_connected_graph(2, 1.0, seed=3)
    assert g.edges == ((0, 1),)


def test_connected_over_many_seeds():
    for seed in range(100):
        g = build_random_connected_graph(10, 3.0, seed=seed)
        assert g.n_edges == 15
        assert bfs_connected(10, g.edges)


def test_builder_deterministic_per_seed():
    a = build_random_connected_graph(15, 4.0, seed=42)
    b = build_random_connected_graph(15, 4.0, seed=42)
    assert a.edges == b.edges
    c = build_random_connected_graph(15, 4.0, seed=43)
    assert a.edges != c.edges


def test_average_degree_within_one_of_target():
    for n, da in [(7, 2.3), (12, 3.7), (30, 6.1)]:
        g = build_random_connected_graph(n, da, seed=1)
        assert abs(g.degrees.mean() - da) <= 1.0


def test_builder_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        build_random_connected_graph(1, 1.0, seed=0)
    with pytest.raises(ParameterError):
        build_random_connected_graph(5, 5.0, seed=0)  # needs 13 > 10 edges
    with pytest.raises(ParameterError):
        build_random_connected_graph(10, 0.5, seed=0)  # 3 < 9 edges, disconnected


def test_graph_invariants_enforced():
    with pytest.raises(ParameterError, match="need at least one agent, got 0"):
        laplacian_weights(0, {})
    with pytest.raises(ParameterError, match="self-loop at agent 0"):
        laplacian_weights(3, {(0, 0): 1.0})
    with pytest.raises(ParameterError, match=r"edge \(0,3\) outside 0..2"):
        laplacian_weights(3, {(0, 3): 1.0})
    with pytest.raises(ParameterError, match="graph is not connected"):
        laplacian_weights(4, {(0, 1): 1.0, (2, 3): 1.0})
    # An edge given both ways is one edge.
    p = laplacian_weights(3, {(0, 1): 1.0, (1, 2): 1.0, (1, 0): 1.0})
    assert p.n_edges == 2 and p.edges == ((0, 1), (1, 2))
    assert np.array_equal(p.matrix, p.matrix.T)
    assert laplacian_weights(1, {}).n_agents == 1


def test_edges_and_degrees_are_the_nonzeros_of_the_matrix():
    # A star on agent 2 plus the edge (3, 4), keyed in no particular order.
    p = laplacian_weights(5, {(4, 3): 0.5, (2, 0): 2.0, (2, 4): 1e-300, (1, 2): 3.0,
                              (2, 3): 1.0})
    assert p.n_agents == 5
    assert p.edges == ((0, 2), (1, 2), (2, 3), (2, 4), (3, 4))
    assert p.n_edges == 5
    assert p.degrees.tolist() == [1, 1, 4, 2, 2]
    for (i, j), w in {(0, 2): 2.0, (1, 2): 3.0, (2, 3): 1.0, (2, 4): 1e-300,
                      (3, 4): 0.5}.items():
        assert p.matrix[i, j] == p.matrix[j, i] == -w


def test_laplacian_sums_the_diagonal_in_sorted_edge_order():
    # Weights far apart in magnitude, so that the order of the sums shows
    # in the rounding; the keys come in reverse order.
    n = 6
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = {e: 10.0 ** (3 * (k % 7) - 9) * (1 + k / 7) for k, e in enumerate(edges)}
    want = np.zeros((n, n))
    for i, j in edges:
        w = weights[i, j]
        want[i, j] = want[j, i] = -w
        want[i, i] += w
        want[j, j] += w
    p = laplacian_weights(n, dict(reversed(weights.items())))
    assert p.matrix.tobytes() == want.tobytes()


def test_laplacian_two_nodes():
    p = laplacian_weights(2, {(0, 1): 1.0})
    assert np.array_equal(p.matrix, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_triangle():
    p = laplacian_weights(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
    expected = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    assert np.array_equal(p.matrix, expected)


def test_laplacian_rows_sum_to_zero():
    for seed in range(10):
        g = build_random_connected_graph(12, 3.5, seed=seed)
        weights = {e: 0.5 + (i % 5) for i, e in enumerate(g.edges)}
        p = laplacian_weights(12, weights)
        fro = np.linalg.norm(p.matrix)
        assert np.linalg.norm(p.matrix @ np.ones(12)) <= 1e-12 * fro


def test_laplacian_rejects_nonpositive_weight():
    for w in (0.0, -2.0, np.inf, np.nan):
        with pytest.raises(ParameterError, match=r"edge \(0, 1\) has weight .*; weights must be"
                           " positive and finite"):
            laplacian_weights(2, {(1, 0): w})
    with pytest.raises(ParameterError, match="graph is not connected"):
        laplacian_weights(2, {})


def test_spectral_two_nodes():
    p = laplacian_weights(2, {(0, 1): 1.0})
    s = spectral_summary(p)
    assert abs(s.lambda_w - 2.0) <= 1e-10
    assert abs(s.lambda_max - 2.0) <= 1e-10


def test_spectral_triangle():
    s = spectral_summary(laplacian_weights(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}))
    assert abs(s.lambda_w - 3.0) <= 1e-10
    assert abs(s.lambda_max - 3.0) <= 1e-10


def test_spectral_scales_with_weights():
    g = build_random_connected_graph(9, 3.0, seed=5)
    s1 = spectral_summary(g)
    s3 = spectral_summary(laplacian_weights(9, dict.fromkeys(g.edges, 3.0)))
    assert abs(s3.lambda_w - 3.0 * s1.lambda_w) <= 1e-9 * s3.lambda_max
    assert abs(s3.lambda_max - 3.0 * s1.lambda_max) <= 1e-9 * s3.lambda_max


def test_spectral_rejects_bad_matrices():
    p = laplacian_weights(2, {(0, 1): 1.0})
    bad = p.matrix.copy()
    bad.setflags(write=True)
    bad[0, 1] = 5.0
    with pytest.raises(InvariantViolation):
        spectral_summary(MatrixP(bad))
    indefinite = MatrixP(-p.matrix)
    with pytest.raises(InvariantViolation):
        spectral_summary(indefinite)
    # One agent has no second eigenvalue, so no simple zero eigenvalue.
    with pytest.raises(InvariantViolation, match="expected simple zero eigenvalue"):
        laplacian_weights(1, {}).spectral


def test_positive_semidefinite_on_random_vectors():
    rng = np.random.default_rng(0)
    p = build_random_connected_graph(10, 3.0, seed=2)
    lam_w = spectral_summary(p).lambda_w
    for _ in range(1000):
        x = rng.standard_normal(10)
        quad = x @ p.matrix @ x
        assert quad >= -1e-12 * (x @ x)
        # restricted positivity away from the constant vector
        assert quad > 1e-10 * lam_w * (x @ x)


def test_single_zero_eigenvalue():
    for seed in range(20):
        p = build_random_connected_graph(8, 2.8, seed=seed)
        eigs = np.linalg.eigvalsh(p.matrix)
        assert np.count_nonzero(eigs <= 1e-10 * eigs[-1]) == 1


def test_disagreement_matches_kronecker_product():
    # The 6-agent network takes the dense product, the 200-agent one the
    # CSR operator.
    for n, degree in [(6, 2.5), (200, 5.0)]:
        rng = np.random.default_rng(1)
        g = build_random_connected_graph(n, degree, seed=9)
        weights = {e: 0.2 + i * 0.3 for i, e in enumerate(g.edges)}
        p = laplacian_weights(n, weights)
        d = 4
        x = rng.standard_normal((n, d))
        w_full = np.kron(p.matrix, np.eye(d))
        expected = (w_full @ x.ravel()).reshape(n, d)
        got = p.disagreement(x)
        scale = np.max(np.abs(expected)) + 1.0
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale
        # and the hand-written per-agent neighbor sum
        acc = np.zeros((n, d))
        for (i, j), w in weights.items():
            acc[i] += w * (x[i] - x[j])
            acc[j] += w * (x[j] - x[i])
        assert np.max(np.abs(got - acc)) <= 1e-12 * scale


@pytest.fixture(scope="module")
def edge_dir(tmp_path_factory):
    """One directory for the property tests' files, each example's file
    written over the last."""
    return tmp_path_factory.mktemp("edges")


def read_text(directory, text):
    path = directory / "network.txt"
    path.write_text(text, encoding="utf-8")
    return read_edge_list(path)


def test_edge_list_round_trip(tmp_path):
    # Read from a Path and from a str path, past comment and blank lines.
    g = build_random_connected_graph(7, 2.6, seed=4)
    weights = {e: 1.0 + 0.1 * i for i, e in enumerate(g.edges)}
    p = laplacian_weights(7, weights)
    text = edge_list_text(p)
    assert text == f"7 {len(weights)}\n" + "".join(
        f"{i} {j} {w!r}\n" for (i, j), w in weights.items())
    head, rest = text.split("\n", 1)
    path = tmp_path / "network.txt"
    path.write_text(f"# seven agents\n\n{head}\n  # weights\n{rest}\n")
    for src in (path, str(path)):
        back = read_edge_list(src)
        assert back.edges == g.edges
        assert np.array_equal(back.matrix, p.matrix)


@st.composite
def weighted_connected_graphs(draw):
    """A random spanning tree plus random extra edges, each with a random
    positive finite weight."""
    n = draw(st.integers(2, 12))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    weight = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
    edges = sorted(set(tree) | set(extra))
    weights = {e: draw(weight) for e in edges}
    return laplacian_weights(n, weights)


@given(weighted_connected_graphs())
@settings(max_examples=150, deadline=None, database=None)
def test_edge_list_round_trip_keeps_every_weight_bitwise(edge_dir, p):
    back = read_text(edge_dir, edge_list_text(p))
    assert back.n_agents == p.n_agents
    assert back.edges == p.edges
    for i, j in p.edges:
        assert float(back.matrix[i, j]).hex() == float(p.matrix[i, j]).hex()
    assert np.array_equal(back.matrix, p.matrix)


def test_edge_list_parse_errors(tmp_path):
    with pytest.raises(ParseError):
        read_text(tmp_path, "")
    with pytest.raises(ParseError):
        read_text(tmp_path, "2\n0 1 1.0\n")
    with pytest.raises(ParseError):
        read_text(tmp_path, "2 1\n0 1\n")
    with pytest.raises(ParseError):
        read_text(tmp_path, "2 2\n0 1 1.0\n")  # wrong edge count
    with pytest.raises(ParameterError):
        read_text(tmp_path, "2 1\n0 1 inf\n")
    with pytest.raises(ParseError) as e:
        read_text(tmp_path, "2 1\n0 1 1.0\n1 0 5.0\n")  # one edge, twice
    assert e.value.line == 3
    err = None
    try:
        read_text(tmp_path, "2 1\n0 x 1.0\n")
    except ParseError as e:
        err = e
    assert err is not None and err.line == 2


def test_edge_list_is_utf8_and_names_the_line_of_a_byte_that_is_not(tmp_path):
    path = tmp_path / "network.txt"
    path.write_bytes("# r\u00e9seau\n3 2\n0 1 1.0\n1 2 0.5\n".encode())
    assert read_edge_list(path).edges == ((0, 1), (1, 2))
    path.write_bytes(b"3 2\n0 1 1.0\n1 2 \xff1.0\n")
    with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8 byte 0xff$") as e:
        read_edge_list(path)
    assert e.value.line == 3


def test_edge_list_refuses_a_header_with_too_few_edges_before_sizing_the_graph(
        tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(topology, "laplacian_weights", refuse)
    with pytest.raises(ParseError, match="needs at least 999999999999") as e:
        read_text(tmp_path, "# huge\n1000000000000 0\n")
    assert e.value.line == 2
    with pytest.raises(ParseError, match="needs at least 3"):
        read_text(tmp_path, "4 2\n0 1 1.0\n1 2 1.0\n")


# Edge-list text: a header, then lines of small integers, weights and
# junk.  Agent counts stay small, so any graph the text describes is tiny.
# Surrogates have no UTF-8 form, so no file can hold them.
_EDGE_TOKENS = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from(["0.5", "1.0", "-1", "0", "nan", "inf", "1e400", "1e-320", "x", "#", "1 2"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)
_EDGE_LINES = st.lists(st.lists(_EDGE_TOKENS, max_size=4).map(" ".join), max_size=12)
_EDGE_TEXT = st.builds(
    "{} {}\n{}".format, st.integers(0, 4), st.integers(-1, 5), _EDGE_LINES.map("\n".join)
)


@given(st.one_of(st.text(st.characters(blacklist_categories=("Cs",)), max_size=200),
                 _EDGE_LINES.map("\n".join), _EDGE_TEXT))
@example("1 0\n")  # one agent: no second eigenvalue
@settings(max_examples=200, deadline=None, database=None)
def test_read_edge_list_parses_or_raises_a_package_error_on_any_text(edge_dir, text):
    try:
        p = read_text(edge_dir, text)
        p.spectral
    except SoprolabError:
        return
    assert bfs_connected(p.n_agents, p.edges)
    assert np.isfinite(p.matrix).all()


def test_matrix_is_immutable():
    p = laplacian_weights(2, {(0, 1): 1.0})
    with pytest.raises(ValueError):
        p.matrix[0, 0] = 7.0


# P stores nnz = n + 2|E| entries, and the exchange takes CSR where
# 6.75 nnz + 1100 < n^2 (topology.CSR_ENTRY_COST, CSR_FIXED_COST).  The
# mushrooms (n = 10, degree 4) and a4a (20, 5) networks stay dense; the
# scale200 one (200, 5: 1200 of 40000) is CSR, and so is n = 100 at degree
# 10 (1100 of 10000), where CSR took 20.4 us against 29.1 dense, though a
# denser 50-agent network (300 of 2500) stays dense.
@pytest.mark.parametrize(
    "n, degree, form",
    [(10, 4.0, "dense"), (20, 5.0, "dense"), (200, 5.0, "csr"), (100, 10.0, "csr"),
     (50, 5.0, "dense"), (6, 2.5, "dense")],
)
def test_exchange_operator_is_csr_on_a_sparse_network_only(n, degree, form):
    p = build_random_connected_graph(n, degree, seed=3)
    op = p.operator
    if form == "dense":
        assert op is p.matrix
        return
    assert isinstance(op, Csr)
    assert np.array_equal(densify(op), p.matrix)
    with pytest.raises(ValueError):
        op.data[0] = 7.0
