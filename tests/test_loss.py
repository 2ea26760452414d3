import dataclasses
import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from oracles import (
    Sample, agent_datasets, batch_loss, block_of, csr_rows, densify, flat_positions,
    one_hot_block, parse_text, sample_grad, sample_hess, sample_loss, scipy_csr, stack_sets,
    stacked, whole_set_grad,
)
from soprolab.errors import ParameterError, ParseError
from soprolab.sparse import Csr
from soprolab.loss import (
    LocalDataset,
    SmoothnessBounds,
    StackedSets,
    batch_grad,
    batch_hess,
    full_grad,
    logistic_coef,
    logistic_curvature,
    partition,
    predict,
    sets_grad,
    sigma_sq_estimate,
    sigmoid,
)


def make_dataset(rng, C=6, d=4, lam=0.01, scale=1.0):
    feats = scale * rng.standard_normal((C, d))
    labels = rng.choice((-1, 1), size=C)
    return LocalDataset(features=feats, labels=labels, lambda_reg=lam)


def sparse_dataset(rng, C=6, d=4, lam=0.01):
    """:func:`make_dataset` with about two thirds of the entries zero and
    row 1 empty: the operator stores a third of the entries."""
    ds = make_dataset(rng, C, d, lam)
    feats = np.where(rng.random((C, d)) < 0.35, ds.features, 0.0)
    feats[1] = 0.0
    return LocalDataset(features=feats, labels=ds.labels, lambda_reg=lam)


def sample(ds, j):
    return Sample(features=ds.features[j], label=int(ds.labels[j]))


def bounds_of(ds):
    """``(m, M)`` of one agent's local set."""
    b = SmoothnessBounds.from_sets(stacked([ds]))
    return float(b.m[0]), float(b.M[0])


# ---------------------------------------------------------------- parsing


def test_parse_basic_line():
    rows, labels = parse_text("+1 1:0.5 3:1.0")
    assert rows.shape == (1, 3) and rows.data.size == 2
    feats = densify(rows)
    assert np.array_equal(feats[0], np.array([0.5, 0.0, 1.0]))
    assert labels[0] == 1


def test_parse_zero_one_labels():
    rows, labels = parse_text("0 2:1\n1 1:1\n")
    feats = densify(rows)
    assert feats.shape[1] == 2
    assert labels[0] == -1 and labels[1] == 1
    assert np.array_equal(feats[0], np.array([0.0, 1.0]))


def test_parse_one_two_labels_mushrooms_convention():
    _, labels = parse_text("1 1:1\n2 1:2\n")
    assert labels[0] == 1 and labels[1] == -1


def test_parse_dim_override_upward():
    rows, _ = parse_text("+1 1:1 5:2", dim=123)
    feats = densify(rows)
    assert feats.shape[1] == 123
    assert feats[0].shape == (123,)
    assert feats[0][4] == 2.0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_text("+1 1:0.5\n-1 2:x\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_text("+1 3:1 2:1")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_text("+1 0:1")  # not 1-based
    with pytest.raises(ParseError):
        parse_text("3 1:1")  # unmappable label set
    with pytest.raises(ParseError):
        parse_text("abc 1:1")


# ---------------------------------------------------------------- partition


def _dummy_samples(n, d=3):
    """Row i is all i, labelled +1 when i is odd, as a Csr."""
    rows = np.arange(n)
    return csr_rows(np.repeat(rows[:, None].astype(float), d, axis=1), np.where(rows % 2, 1, -1))


def test_partition_paper_a4a_shape():
    samples = _dummy_samples(4781)
    local, test = partition(samples, 20, 239, seed=0, lambda_reg=0.01)
    assert local.shape[:2] == (20, 239) and local.labels.shape == (20, 239)
    assert len(test) == 4781 - 20 * 239


def test_partition_paper_mushrooms_shape():
    samples = _dummy_samples(8124)
    local, test = partition(samples, 10, 600, seed=0, lambda_reg=0.01)
    assert local.shape[:2] == (10, 600) and local.labels.shape == (10, 600)
    assert len(test) == 8124 - 6000


def test_partition_single_agent_takes_everything():
    samples = _dummy_samples(50)
    local, test = partition(samples, 1, 50, seed=1, lambda_reg=0.1)
    assert local.shape[:2] == (1, 50)
    assert len(test) == 0


def test_partition_is_a_disjoint_cover_and_deterministic():
    samples = _dummy_samples(40)
    d1, t1 = partition(samples, 3, 10, seed=7, lambda_reg=0.1)
    d2, t2 = partition(samples, 3, 10, seed=7, lambda_reg=0.1)
    assert np.array_equal(block_of(d1), block_of(d2)) and np.array_equal(d1.labels, d2.labels)
    assert np.array_equal(densify(t1.features), densify(t2.features))
    seen = sorted(
        float(v[0]) for v in block_of(d1).reshape(-1, 3)
    ) + sorted(float(v[0]) for v in densify(t1.features))
    assert sorted(seen) == [float(i) for i in range(40)]


def test_partition_insufficient_samples():
    with pytest.raises(ParameterError):
        partition(_dummy_samples(10), 3, 4, seed=0, lambda_reg=0.1)


def test_partition_of_dense_rows_stacks_the_permuted_rows_read_only():
    rng = np.random.default_rng(2)
    labels = rng.choice((-1, 1), 50)
    dense = rng.standard_normal((50, 5))
    rows, labels = csr_rows(dense, labels)
    local, _ = partition((rows, labels), 4, 10, seed=3, lambda_reg=0.1)
    assert local.shape == (4, 10, 5) and local.labels.dtype == float
    A = local.csr
    for a in (A.data, A.indices, A.indptr, local.labels, local.lam):
        assert not a.flags.writeable
    assert not np.shares_memory(A.data, rows.data)
    # Agent i holds rows 10 i .. 10 i + 9 of the permutation.
    perm = np.random.default_rng(3).permutation(50)[:40]
    assert np.array_equal(block_of(local).reshape(40, 5), dense[perm])
    assert np.array_equal(local.labels.reshape(40), labels[perm])
    assert local.lam.tolist() == [0.1] * 4
    for i, ds in enumerate(agent_datasets(local)):
        assert np.array_equal(dense[perm[10 * i : 10 * i + 10]], ds.features)


@pytest.mark.parametrize("sizes", [(20, 20, 20), (5, 5, 5)])
def test_stacked_batch_statistics_match_per_agent_batches(sizes):
    rng = np.random.default_rng(4)
    datasets = [make_dataset(rng, C=C, d=7, lam=0.05 * (i + 1)) for i, C in enumerate(sizes)]
    local = stacked(datasets)
    x = rng.standard_normal((len(sizes), 7))
    grads = sets_grad(x, local, None)
    weights = logistic_curvature(local.matvec(x)) / sizes[0]
    for i, ds in enumerate(datasets):
        C = ds.n_samples
        want = batch_grad(x[i], ds, np.arange(C))
        want_w = batch_hess(x[i], ds, np.arange(C)).weights
        # The operator's sparse products may sum in another order.
        assert np.allclose(grads[i], want, rtol=1e-13, atol=1e-15)
        assert np.allclose(weights[i, :C], want_w, rtol=1e-13, atol=0)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_set_gradients_of_drawn_batches_match_per_agent_batches(sparse):
    # Rows with every entry stored ("dense"), or about a third of them and
    # an empty row 1 an agent ("csr").
    rng = np.random.default_rng(5)
    make = sparse_dataset if sparse else make_dataset
    datasets = [make(rng, C=12, d=7, lam=0.05) for _ in range(3)]
    local = stacked(datasets)
    x = rng.standard_normal((3, 7))
    idx = np.sort(np.stack([rng.choice(9, 4, replace=False) for _ in range(3)]), axis=1)
    for batches in (idx, None):
        grads = sets_grad(x, local, None if batches is None else flat_positions(batches, 12))
        for i, ds in enumerate(datasets):
            rows = np.arange(ds.n_samples) if batches is None else batches[i]
            assert np.allclose(grads[i], batch_grad(x[i], ds, rows), rtol=1e-13, atol=1e-15)


@st.composite
def gradient_batches(draw):
    """``(x, local, idx)``: ``N`` agents of ``C`` rows over ``d`` columns,
    either Gaussian entries of both signs ("dense") or one to three of the
    ``d`` columns set ("one_hot"), with one row emptied; a batch of ``G``
    rows an agent, ``0 < G < C``, as ascending flat positions; and
    iterates at a scale of 1 or of 1e3, where some margins are large
    enough that their coefficients underflow to +-0."""
    n, C, d = draw(st.integers(1, 6)), draw(st.integers(2, 12)), draw(st.integers(1, 10))
    G = draw(st.integers(1, C - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["dense", "one_hot"])) == "dense":
        feats = rng.standard_normal((n, C, d))
    else:
        feats = one_hot_block(rng, n, C, d)
    feats[rng.integers(n), rng.integers(C)] = 0.0
    local = stack_sets(feats, rng.choice((-1.0, 1.0), (n, C)), 0.1)
    idx = np.sort(np.stack([rng.permutation(C)[:G] for _ in range(n)]), axis=1)
    x = draw(st.sampled_from([1.0, 1e3])) * rng.standard_normal((n, d))
    return x, local, flat_positions(idx, C)


def test_gathered_batch_gradients_equal_the_whole_set_gradients_bitwise():
    # sets_grad reads only the batch's rows, gathered in ascending order;
    # the whole-set gradient (oracles.whole_set_grad) reads every row at a
    # zero coefficient off the batch.  Every margin is the same row sum and
    # every column the same terms less the zero ones, so the gradients are
    # equal byte for byte: signed zeros too.
    underflowed = []

    @settings(max_examples=200, deadline=None, database=None)
    @given(gradient_batches())
    def check(problem):
        x, local, idx = problem
        got = sets_grad(x, local, idx)
        want = whole_set_grad(x, local, idx, local.matvec(x))
        assert got.tobytes() == want.tobytes()
        coef = logistic_coef(local.matvec(x).ravel()[idx], local.labels.ravel()[idx])
        underflowed.append(np.any(coef == 0.0))

    check()
    assert any(underflowed)


def test_set_gradients_refuse_margins_with_a_batch():
    # Margins are the whole sets' product; a batch's gradient reads its own
    # rows, so the two together are refused rather than one ignored.
    rng = np.random.default_rng(9)
    local = stacked([make_dataset(rng, C=12, d=7, lam=0.05) for _ in range(3)])
    x = rng.standard_normal((3, 7))
    u = local.matvec(x)
    idx = flat_positions(np.tile(np.arange(4), (3, 1)), 12)
    with pytest.raises(ParameterError, match="both margins and a batch"):
        sets_grad(x, local, idx, u)
    # The whole sets take their margins, as a C-ordered array, a strided
    # view or a transposed copy's transpose, and equal the gradient
    # without them.
    want = sets_grad(x, local, None).tobytes()
    strided = np.repeat(u[:, :, None], 2, axis=2)[:, :, 0]
    for margins in (u, strided, np.asfortranarray(u), u.ravel()):
        assert sets_grad(x, local, None, margins).tobytes() == want


# ---------------------------------------------------------------- calculus


def test_grad_at_zero_is_half_label_feature():
    s = Sample(features=np.array([1.0, -2.0, 0.5]), label=-1)
    g = sample_grad(np.zeros(3), s, lam=0.3)
    assert np.allclose(g, -(s.label / 2.0) * s.features, atol=1e-15)


def test_grad_saturates_to_regularizer():
    s = Sample(features=np.array([1.0, 0.0]), label=1)
    x = np.array([2000.0, 0.0])  # b * a^T x huge
    g = sample_grad(x, s, lam=0.05)
    assert np.allclose(g, 0.05 * x, atol=1e-12)


def test_sigmoid_is_scipy_expit_within_a_few_ulps():
    # The same formula on two exps, each within 1 ulp of exact: at most 2
    # ulps apart, or 4 where 1 + exp(-z) is at least 2^53 and rounds to even.
    z = np.concatenate([np.linspace(-800.0, 800.0, 400_001),
                        np.random.default_rng(0).uniform(-800.0, 800.0, 400_000)])
    got, want = sigmoid(z), expit(z)
    gap = np.abs(got.view(np.int64) - want.view(np.int64))  # in ulps: both are >= 0
    tail = z < -53 * np.log(2.0)
    assert gap[~tail].max() <= 2 and gap[tail].max() <= 4
    assert np.mean(gap == 0) > 0.95
    edges = np.array([-np.inf, -0.0, 0.0, np.inf])
    assert np.array_equal(sigmoid(edges), expit(edges))
    assert np.array_equal(sigmoid(edges), [0.0, 0.5, 0.5, 1.0])
    assert np.isnan(sigmoid(np.nan)) and np.isnan(sigmoid(np.array([np.nan]))).all()
    # A float gives the array's value, as sample_grad and sample_hess use it.
    assert [sigmoid(float(v)) for v in z[::40_000]] == list(got[::40_000])


def test_sigmoid_and_coefficients_warn_of_nothing_outside_a_rounds_errstate():
    # exp(-z) overflows below z = -709.8: the result is 0, and no
    # RuntimeWarning (an error under this suite's settings) may escape
    # numpy's default error state.
    z = np.array([-1e308, -800.0, -709.9, 0.0, 800.0, np.inf, -np.inf, np.nan])
    with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error")
        p = sigmoid(z)
        assert sigmoid(-800.0) == 0.0
        coef = logistic_coef(z[:6], np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]))
        curvature = logistic_curvature(z[:6])
    assert np.array_equal(p[:6], [0.0, 0.0, 0.0, 0.5, 1.0, 1.0]) and p[6] == 0.0
    assert np.isfinite(coef).all() and np.isfinite(curvature).all()


def central_diff_grad(f, x, h):
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def test_grad_matches_finite_difference():
    rng = np.random.default_rng(3)
    lam = 1e-2
    for _ in range(20):
        s = Sample(features=rng.standard_normal(5), label=int(rng.choice((-1, 1))))
        x = rng.standard_normal(5)
        h = 1e-5 * max(1.0, float(np.linalg.norm(x)))
        fd = central_diff_grad(lambda z: sample_loss(z, s, lam), x, h)
        g = sample_grad(x, s, lam)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))


def test_hessian_at_zero_and_saturation():
    a = np.array([2.0, 0.0])
    s = Sample(features=a, label=1)
    H0 = sample_hess(np.zeros(2), s, lam=0.1).dense()
    assert np.allclose(H0, 0.1 * np.eye(2) + 0.25 * np.outer(a, a), atol=1e-14)
    Hsat = sample_hess(np.array([1e4, 0.0]), s, lam=0.1).dense()
    assert np.allclose(Hsat, 0.1 * np.eye(2), atol=1e-12)


def test_hessian_matches_finite_difference_of_gradient():
    rng = np.random.default_rng(4)
    lam = 1e-2
    for _ in range(10):
        s = Sample(features=rng.standard_normal(4), label=int(rng.choice((-1, 1))))
        x = rng.standard_normal(4)
        h = 1e-5 * max(1.0, float(np.linalg.norm(x)))
        H = sample_hess(x, s, lam).dense()
        fd = np.zeros((4, 4))
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            fd[:, k] = (sample_grad(x + e, s, lam) - sample_grad(x - e, s, lam)) / (2 * h)
        assert np.max(np.abs(fd - H)) <= 1e-5 * max(1.0, np.max(np.abs(H)))


def test_batch_singleton_equals_sample_grad():
    rng = np.random.default_rng(5)
    ds = make_dataset(rng)
    x = rng.standard_normal(ds.dim)
    for j in range(ds.n_samples):
        bg = batch_grad(x, ds, [j])
        sg = sample_grad(x, sample(ds, j), ds.lambda_reg)
        assert np.allclose(bg, sg, atol=1e-15)


def test_full_batch_equals_full_gradient():
    rng = np.random.default_rng(6)
    ds = make_dataset(rng)
    x = rng.standard_normal(ds.dim)
    assert np.array_equal(batch_grad(x, ds, range(ds.n_samples)), full_grad(x, ds))


def test_exhaustive_subsets_unbiased():
    # Exhaustive-subset oracle: the mean over all size-k batches must equal
    # the full gradient/Hessian (unbiasedness of the batch estimators).
    rng = np.random.default_rng(7)
    ds = make_dataset(rng, C=5)
    x = rng.standard_normal(ds.dim)
    g_full = full_grad(x, ds)
    h_full = batch_hess(x, ds, range(5)).dense()
    for k in (1, 2, 3, 4, 5):
        subsets = list(itertools.combinations(range(5), k))
        g_mean = np.mean([batch_grad(x, ds, s) for s in subsets], axis=0)
        h_mean = np.mean([batch_hess(x, ds, s).dense() for s in subsets], axis=0)
        assert np.max(np.abs(g_mean - g_full)) <= 1e-13
        assert np.max(np.abs(h_mean - h_full)) <= 1e-13


def test_batch_index_validation():
    rng = np.random.default_rng(8)
    ds = make_dataset(rng)
    x = np.zeros(ds.dim)
    with pytest.raises(ParameterError):
        batch_grad(x, ds, [])
    with pytest.raises(ParameterError):
        batch_grad(x, ds, [ds.n_samples])
    with pytest.raises(ParameterError):
        batch_hess(x, ds, [-1])
    with pytest.raises(ParameterError):
        batch_grad(np.zeros(ds.dim + 1), ds, [0])


# ---------------------------------------------------------------- smoothness


def test_smoothness_zero_features_is_pure_quadratic():
    ds = LocalDataset(
        features=np.zeros((3, 2)), labels=np.array([1, -1, 1]), lambda_reg=0.2
    )
    m, M = bounds_of(ds)
    assert m == 0.2 and M == 0.2


def test_smoothness_single_sample_value():
    ds = LocalDataset(
        features=np.array([[2.0, 0.0]]), labels=np.array([1]), lambda_reg=0.01
    )
    m, M = bounds_of(ds)
    assert m == 0.01
    assert abs(M - 1.01) <= 1e-15


def test_hessian_eigenvalues_within_bounds():
    rng = np.random.default_rng(9)
    ds = make_dataset(rng, C=4, d=5, lam=0.05)
    m, M = bounds_of(ds)
    for _ in range(1000):
        x = rng.standard_normal(5) * rng.choice((0.1, 1.0, 10.0))
        j = int(rng.integers(0, 4))
        eigs = np.linalg.eigvalsh(sample_hess(x, sample(ds, j), ds.lambda_reg).dense())
        assert eigs[0] >= m - 1e-12
        assert eigs[-1] <= M + 1e-12


def test_gradient_monotonicity_convexity():
    rng = np.random.default_rng(10)
    ds = make_dataset(rng, C=5, d=4, lam=0.05)
    m, _ = bounds_of(ds)
    for _ in range(200):
        j = int(rng.integers(0, 5))
        s = sample(ds, j)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        inner = (sample_grad(x, s, ds.lambda_reg) - sample_grad(y, s, ds.lambda_reg)) @ (
            x - y
        )
        assert inner >= m * np.sum((x - y) ** 2) - 1e-10


def test_loss_stable_at_extreme_margins():
    s = Sample(features=np.array([1.0]), label=1)
    for v in (-1e3, -10.0, 0.0, 10.0, 1e3):
        x = np.array([v])
        assert np.isfinite(sample_loss(x, s, 0.01))
        assert np.all(np.isfinite(sample_grad(x, s, 0.01)))
        assert np.all(np.isfinite(sample_hess(x, s, 0.01).dense()))


def test_smoothness_bounds_network_aggregate():
    rng = np.random.default_rng(11)
    datasets = [make_dataset(rng, C=4, lam=0.1) for _ in range(3)]
    b = SmoothnessBounds.from_sets(stacked(datasets))
    assert b.n_agents == 3
    # M_i = lam + max_j |a_j|^2 / 4 over agent i's rows, each |a_j|^2
    # summed over its entries in column order.
    want = [0.1 + 0.25 * max(sum(v * v for v in row) for row in ds.features.tolist())
            for ds in datasets]
    assert b.M.tolist() == want
    assert b.max_M == max(want)
    assert np.all(b.m == 0.1)
    with pytest.raises(ParameterError):
        SmoothnessBounds(m=np.array([1.0]), M=np.array([0.5]))


# ---------------------------------------------------------------- sigma^2


def test_sigma_sq_single_sample_is_zero():
    ds = LocalDataset(
        features=np.array([[1.0, 2.0]]), labels=np.array([1]), lambda_reg=0.1
    )
    assert sigma_sq_estimate(stacked([ds]), [np.zeros(2), np.ones(2)]) == 0.0


def test_sigma_sq_duplicated_samples_is_zero():
    f = np.array([[1.0, -1.0]] * 4)
    ds = LocalDataset(features=f, labels=np.array([1, 1, 1, 1]), lambda_reg=0.1)
    assert sigma_sq_estimate(stacked([ds]), [np.array([0.3, 0.7])]) <= 1e-30


def test_sigma_sq_two_opposed_samples():
    # a = +-e1, b = +1, probe x = 0: per-sample grads -+e1/2, full grad 0,
    # so the worst squared deviation is 1/4.
    ds = LocalDataset(
        features=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        labels=np.array([1, 1]),
        lambda_reg=0.1,
    )
    est = sigma_sq_estimate(stacked([ds]), [np.zeros(2)])
    assert abs(est - 0.25) <= 1e-15


def test_sigma_sq_requires_probes():
    ds = LocalDataset(features=np.eye(2), labels=np.array([1, -1]), lambda_reg=0.1)
    with pytest.raises(ParameterError):
        sigma_sq_estimate(stacked([ds]), [])


def test_sigma_sq_matches_bruteforce():
    rng = np.random.default_rng(12)
    datasets = [make_dataset(rng, C=5, d=3, lam=0.05) for _ in range(2)]
    probes = [rng.standard_normal(3) for _ in range(3)]
    worst = 0.0
    for ds in datasets:
        for x in probes:
            full = full_grad(x, ds)
            for j in range(ds.n_samples):
                dev = sample_grad(x, sample(ds, j), ds.lambda_reg) - full
                worst = max(worst, float(dev @ dev))
    est = sigma_sq_estimate(stacked(datasets), probes)
    assert abs(est - worst) <= 1e-12 * max(worst, 1.0)


# ---------------------------------------------------------------- predict


def test_predict_ties_count_as_positive():
    x = np.array([1.0, 0.0])
    feats = np.array([[0.0, 5.0], [1.0, 0.0], [-1.0, 0.0]])
    assert np.array_equal(predict(x, feats), np.array([1, 1, -1]))


def test_batch_loss_matches_mean_of_sample_losses():
    rng = np.random.default_rng(13)
    ds = make_dataset(rng, C=6, d=3, lam=0.2)
    x = rng.standard_normal(3)
    vals = [sample_loss(x, sample(ds, j), ds.lambda_reg) for j in range(6)]
    assert abs(batch_loss(x, ds, range(6)) - np.mean(vals)) <= 1e-12


def test_dataset_validation():
    with pytest.raises(ParameterError):
        LocalDataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int), lambda_reg=0.1)
    with pytest.raises(ParameterError):
        LocalDataset(features=np.zeros((2, 2)), labels=np.array([1, 2]), lambda_reg=0.1)
    with pytest.raises(ParameterError):
        LocalDataset(features=np.zeros((1, 2)), labels=np.array([1]), lambda_reg=0.0)
    with pytest.raises(ParameterError):
        Sample(features=np.zeros(2), label=0)

    def stacked_fields():
        # Two agents of three samples each, in d = 2.
        feats = np.arange(1.0, 13.0).reshape(2, 3, 2)
        labels = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])
        return dict(csr=Csr.from_dense(scipy.linalg.block_diag(*feats)), labels=labels,
                    lam=np.array([0.1, 0.2]))

    StackedSets(**stacked_fields())
    # (field, position, bad value, what the error says), one per check.
    bad_values = [
        ("labels", (0, 1), 2.0, "labels must be"),
        ("labels", (1, 0), 0.0, "labels must be"),
        ("labels", (1, 2), 0.5, "labels must be"),
        ("lam", 1, 0.0, "lambda_reg"),
        ("lam", 0, -0.1, "lambda_reg"),
        ("lam", 0, np.nan, "lambda_reg"),
    ]
    for name, at, value, message in bad_values:
        fields = stacked_fields()
        fields[name][at] = value
        with pytest.raises(ParameterError, match=message):
            StackedSets(**fields)
    bad_shapes = [
        ("labels", np.ones(6)),
        ("labels", np.ones((2, 3, 1))),
        ("lam", np.array([0.1])),
        ("lam", np.array([0.1, 0.2, 0.3])),
        ("lam", np.array([[0.1, 0.2]])),
    ]
    for name, value in bad_shapes:
        with pytest.raises(ParameterError, match=r"^need \(N, C\) and \(N,\) arrays"):
            StackedSets(**{**stacked_fields(), name: value})
    # An operator with a row more than N C = 6 (a row short: below).
    block = np.vstack([densify(stacked_fields()["csr"]), np.zeros((1, 4))])
    with pytest.raises(ParameterError, match=r"need a \(6, 2 d\) operator"):
        StackedSets(**{**stacked_fields(), "csr": Csr.from_dense(block)})
    with pytest.raises(ParameterError, match="one sample each, got 2 x 0"):
        StackedSets(Csr.from_dense(np.zeros((0, 4))), np.ones((2, 0)), np.array([0.1, 0.2]))


def test_stacked_sets_refuse_an_operator_of_another_shape():
    feats = np.arange(1.0, 13.0).reshape(2, 3, 2)
    fields = dict(labels=np.ones((2, 3)), lam=np.array([0.1, 0.2]))
    block = scipy.linalg.block_diag(*feats)
    local = StackedSets(Csr.from_dense(block), **fields)
    assert not local.csr.data.flags.writeable
    assert local.shape == (2, 3, 2) and local.dim == 2
    # A row short, and 3 columns, which are not two blocks of d columns.
    for bad in (block[:5], block[:, :3]):
        with pytest.raises(ParameterError, match=r"need a \(6, 2 d\) operator"):
            StackedSets(Csr.from_dense(bad), **fields)
    assert StackedSets(Csr.from_dense(block[:, :2]), **fields).dim == 1  # d = 1
    # A scipy.sparse operator has none of the Csr products.
    with pytest.raises(ParameterError, match="^need the operator as a Csr, got csr_matrix$"):
        StackedSets(scipy_csr(Csr.from_dense(block)), **fields)


def test_stacked_sets_hold_their_rows_in_one_form():
    # The block-diagonal operator is the one form of the rows: no dense
    # block, and no product that reads one.
    assert [f.name for f in dataclasses.fields(StackedSets)] == ["csr", "labels", "lam"]
    assert not hasattr(StackedSets, "matvecs")
    rng = np.random.default_rng(7)
    # The operator stores the nonzero entries only: sparse rows, with an
    # empty row 1 an agent.
    datasets = [sparse_dataset(rng, C=4, d=3, lam=0.1) for _ in range(2)]
    local = stacked(datasets)
    A = local.csr
    assert isinstance(A, Csr) and A.shape == (2 * 4, 2 * 3)
    assert A.nnz == sum(np.count_nonzero(ds.features) for ds in datasets)
    assert np.array_equal(densify(A), scipy.linalg.block_diag(*block_of(local)))
    x, v = rng.standard_normal((2, 3)), rng.standard_normal((2, 4))
    assert np.array_equal(local.matvec(x), (scipy_csr(A) @ x.ravel()).reshape(2, 4))
    assert np.array_equal(local.csr.rmatvec(v.ravel()), scipy_csr(A).T @ v.ravel())
