import dataclasses
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from soprolab import sparse
from soprolab.errors import ParameterError
from soprolab.harness.experiment import ExperimentConfig, run_experiment
from soprolab.sparse import Csr

PROPERTY = settings(max_examples=200, deadline=None, database=None)


def same(got, want):
    """Equal shape, dtype and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def matrices(draw):
    """A scipy CSR matrix and the :class:`Csr` over the same arrays, with
    int32 or int64 indices.  Rows of 0 to ``n`` entries, so some are empty
    and a matrix may have no rows; values of mixed magnitudes and signs,
    some of them explicit zeros; columns sorted and unique in each row, or,
    in one draw of four, in any order and repeated."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    index = draw(st.sampled_from([np.int32, np.int64]))
    canonical = draw(st.integers(0, 3)) > 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, n + 1, m)
    if canonical:
        cols = [np.sort(rng.choice(n, c, replace=False)) for c in counts]
    else:
        cols = [rng.integers(0, n, c) for c in counts]
    indices = np.concatenate([np.zeros(0, dtype=index), *cols]).astype(index)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(index)
    data = rng.standard_normal(indices.size) * 10.0 ** rng.integers(-8, 9, indices.size)
    data[rng.random(indices.size) < 0.1] = 0.0
    want = scipy.sparse.csr_matrix((data, indices, indptr), shape=(m, n))
    # scipy's constructor makes small indices int32; the kernels take either.
    want.indices, want.indptr = indices, indptr
    return Csr(indptr, indices, data, (m, n)), want


@PROPERTY
@given(matrices(), st.integers(0, 2**32 - 1))
def test_products_and_row_gathers_are_scipys_bitwise(pair, seed):
    got, want = pair
    m, n = got.shape
    rng = np.random.default_rng(seed)
    x, v = rng.standard_normal(n), rng.standard_normal(m)
    assert same(got @ x, want @ x)
    assert same(got.rmatvec(v), want.T @ v)
    for k in (1, 2, 3):
        block = rng.standard_normal((n, k))
        assert same(got @ block, want @ block)
    assert got.has_canonical_format == want.has_canonical_format
    assert got.nnz == want.nnz
    # take sizes its arrays by the row lengths, so no caller may write them.
    assert np.array_equal(got.row_lengths, np.diff(want.indptr))
    assert got.row_lengths.dtype == got.indptr.dtype and not got.row_lengths.flags.writeable
    for rows in (rng.integers(0, max(m, 1), rng.integers(0, 2 * m + 1)), rng.permutation(m)):
        taken, wanted = got.take(rows), want[rows]
        assert taken.shape == wanted.shape == (rows.size, n)
        # scipy's constructor makes the gathered indices int32 when they
        # fit; the gather keeps the index type it was given.
        assert taken.indptr.dtype == taken.indices.dtype == got.indptr.dtype
        assert np.array_equal(taken.indptr, wanted.indptr)
        assert np.array_equal(taken.indices, wanted.indices)
        assert same(taken.data, wanted.data)
        # take skips the constructor's checks; its arrays pass them.
        assert [type(size) for size in taken.shape] == [int, int]
        Csr(taken.indptr, taken.indices, taken.data, taken.shape)


# (data, indices, indptr, shape) that scipy's constructor refuses.
SCIPY_REFUSES = {
    "2-D indptr": (np.ones(2), np.array([0, 1]), np.array([[0, 1, 2]]), (2, 3)),
    "2-D data": (np.ones((2, 1)), np.array([0, 1]), np.array([0, 1, 2]), (2, 3)),
    "short indptr": (np.ones(2), np.array([0, 1]), np.array([0, 2]), (2, 3)),
    "long indptr": (np.ones(2), np.array([0, 1]), np.array([0, 1, 2, 2]), (2, 3)),
    "indptr from 1": (np.ones(2), np.array([0, 1]), np.array([1, 1, 2]), (2, 3)),
    "indptr past nnz": (np.ones(2), np.array([0, 1]), np.array([0, 1, 3]), (2, 3)),
    "more values than indices": (np.ones(3), np.array([0, 1]), np.array([0, 1, 2]), (2, 3)),
    "negative shape": (np.ones(0), np.zeros(0, dtype=int), np.array([0]), (0, -1)),
    "3-D shape": (np.ones(2), np.array([0, 1]), np.array([0, 1, 2]), (2, 3, 1)),
}
# What scipy's constructor accepts and a Csr refuses: pointers and columns
# that would send the kernels outside the arrays, and what scipy mends by
# pruning or by casting the index or value types.
CSR_ALSO_REFUSES = {
    "decreasing row pointers": (np.ones(3), np.array([0, 1, 2]), np.array([0, 3, 1, 3]), (3, 3)),
    "column past n": (np.ones(2), np.array([0, 3]), np.array([0, 1, 2]), (2, 3)),
    "negative column": (np.ones(2), np.array([-1, 0]), np.array([0, 1, 2]), (2, 3)),
    "indptr short of nnz": (np.ones(3), np.array([0, 1, 2]), np.array([0, 1, 2]), (2, 3)),
    "float indices": (np.ones(2), np.array([0.0, 1.0]), np.array([0, 1, 2]), (2, 3)),
    "int8 indices": (np.ones(2), np.array([0, 1], np.int8), np.array([0, 1, 2], np.int8), (2, 3)),
    "two index types": (np.ones(2), np.array([0, 1], np.int64), np.array([0, 1, 2], np.int32),
                        (2, 3)),
    "int values": (np.ones(2, dtype=int), np.array([0, 1]), np.array([0, 1, 2]), (2, 3)),
    "list indptr": (np.ones(2), np.array([0, 1]), [0, 1, 2], (2, 3)),
}


@pytest.mark.parametrize("data, indices, indptr, shape", SCIPY_REFUSES.values(),
                         ids=list(SCIPY_REFUSES))
def test_csr_refuses_what_scipys_constructor_refuses(data, indices, indptr, shape):
    with pytest.raises(ValueError):
        scipy.sparse.csr_matrix((data, indices, indptr), shape=shape)
    with pytest.raises(ParameterError):
        Csr(indptr, indices, data, shape)


@pytest.mark.parametrize("data, indices, indptr, shape", CSR_ALSO_REFUSES.values(),
                         ids=list(CSR_ALSO_REFUSES))
def test_csr_refuses_what_scipys_constructor_would_prune_or_cast(data, indices, indptr, shape):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scipy.sparse.csr_matrix((data, indices, indptr), shape=shape)
    with pytest.raises(ParameterError):
        Csr(indptr, indices, data, shape)


def test_products_and_gathers_refuse_operands_of_another_shape():
    a = Csr.from_dense(np.arange(6.0).reshape(2, 3))
    for bad in (np.ones(2), np.ones((2, 2)), np.ones((3, 2, 1)), np.float64(1.0)):
        with pytest.raises(ParameterError, match="cannot multiply"):
            a @ bad
    with pytest.raises(ParameterError, match="cannot multiply the transpose"):
        a.rmatvec(np.ones(3))
    for rows, message in (([2], r"in 0\.\.1, got 2\.\.2"), ([-1, 0], r"got -1\.\.0"),
                          ([[0]], "1-D"), ([0.5], "1-D")):
        with pytest.raises(ParameterError, match=message):
            a.take(np.array(rows))
    assert a.take(np.zeros(0, dtype=int)).shape == (0, 3)


@pytest.mark.parametrize("indptr", [[0, 2, 1], [1, 1, 1], [0, 1, 2]],
                         ids=["row-past-the-entries", "from-1", "end-past-the-entries"])
def test_arrays_whose_pointers_leave_the_indices_are_not_canonical(indptr):
    # Row 0 of the first claims entries 0..2 of one: the kernel would read
    # past the indices.  Such pointers never become a Csr, so the property
    # runs the kernel on checked pointers alone.
    def csr(ptr):
        return Csr(np.array(ptr, np.int32), np.array([0], np.int32), np.ones(1), (2, 1))

    with pytest.raises(ParameterError, match="^row pointers must"):
        csr(indptr)
    assert csr([0, 1, 1]).has_canonical_format


def test_csr_is_frozen_and_never_writes_its_arrays():
    a = Csr.from_dense(np.eye(3))
    for arr in (a.indptr, a.indices, a.data):
        arr.setflags(write=False)
    assert np.array_equal(a @ np.ones(3), np.ones(3))
    assert np.array_equal(a.rmatvec(np.ones(3)), np.ones(3))
    assert a.take(np.array([2, 0])).indices.tolist() == [2, 0]
    assert a.has_canonical_format
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.data = np.zeros(3)


def rows_of(tmp_path):
    """The trace rows, without wall-clock values, of a small run on a
    LIBSVM file with a CSR exchange (50 agents at average degree 2)."""
    path = tmp_path / "rows.svm"
    path.write_text("".join(f"{(-1) ** k:+d} {1 + k % 4}:1 {5 + 3 * k % 4}:0.5 {9 + 7 * k % 4}:1\n"
                            for k in range(160)))
    config = ExperimentConfig(dataset=str(path), dim=12, n_agents=50, per_agent=3, batch_g=2,
                              batch_s=2, max_iters=4, out=str(tmp_path / "out"))
    result = run_experiment(config)
    assert isinstance(result.problem.P.operator, Csr)
    return [dataclasses.replace(r, wall_s=0.0) for r in result.traces[0].rows]


def test_without_the_extension_file_the_kernels_come_from_scipy_sparse(tmp_path, monkeypatch):
    direct = sparse.kernels()
    assert direct.__name__ == "_sparsetools"
    want = rows_of(tmp_path)
    # No suffix finds the file: scipy.sparse's own copy of the extension.
    monkeypatch.setattr(sparse, "EXTENSION_SUFFIXES", [])
    sparse.kernels.cache_clear()
    try:
        fallback = sparse.kernels()
        assert fallback is sys.modules["scipy.sparse._sparsetools"]
        assert fallback.__file__ == direct.__file__
        assert rows_of(tmp_path) == want
    finally:
        sparse.kernels.cache_clear()
