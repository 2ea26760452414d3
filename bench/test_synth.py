"""Run with ``python -m pytest bench``."""

import numpy as np
import pytest

from synth import SHAPES, generate, write_libsvm


def _read(path):
    labels, rows = [], []
    for line in path.read_text().splitlines():
        head, *feats = line.split()
        labels.append(int(head))
        pairs = [tok.split(":") for tok in feats]
        assert all(value == "1" for _, value in pairs)
        rows.append([int(index) for index, _ in pairs])
    return labels, rows


@pytest.mark.parametrize("name,nnz", [("a4a", 14), ("mushrooms", 22)])
def test_libsvm_shape_sparsity_and_labels(tmp_path, name, nnz):
    shape = SHAPES[name]
    path = tmp_path / "data.svm"
    write_libsvm(path, shape, 500, seed=3)
    labels, rows = _read(path)
    assert len(rows) == 500
    assert set(labels) == {-1, 1}
    for r in rows:
        assert len(r) == nnz
        assert r == sorted(set(r))
        assert 1 <= r[0] and r[-1] <= shape.columns
    assert max(r[-1] for r in rows) == shape.columns


def test_generate_is_a_function_of_its_seed():
    shape = SHAPES["a4a"]
    a = generate(shape, 200, seed=7)
    b = generate(shape, 200, seed=7)
    c = generate(shape, 200, seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])


def test_labels_follow_the_planted_model():
    # A planted model with w ~ N(0, I) leaves both classes well populated.
    _, labels = generate(SHAPES["mushrooms"], 4000, seed=1)
    assert 0.2 < np.mean(labels == 1) < 0.8
