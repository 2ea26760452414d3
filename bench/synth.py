"""Synthetic LIBSVM data shaped like the a4a and mushrooms sets.

Every row one-hot encodes a fixed number of categorical attributes over a
fixed number of binary columns, as the real files do (a4a: 14 attributes
over 123 columns, mushrooms: 22 over 112).  Each attribute draws its
category from its own Dirichlet(1) distribution, and the label is +1 with
probability ``sigmoid(a^T w)`` for a planted weight vector ``w ~ N(0, I)``.
Everything is a pure function of ``(shape, rows, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    attributes: int
    columns: int


SHAPES = {"a4a": Shape(attributes=14, columns=123), "mushrooms": Shape(attributes=22, columns=112)}


def generate(shape: Shape, rows: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Active column per (row, attribute), 0-based and ascending, and +-1 labels."""
    if rows < 1 or shape.attributes > shape.columns:
        raise ValueError(f"need rows >= 1 and attributes <= columns, got {rows}, {shape}")
    rng = np.random.default_rng(seed)
    # Split the columns into contiguous, nearly equal category ranges.
    sizes = np.full(shape.attributes, shape.columns // shape.attributes)
    sizes[: shape.columns % shape.attributes] += 1
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    cols = np.empty((rows, shape.attributes), dtype=np.int64)
    for a, (start, size) in enumerate(zip(starts, sizes)):
        cols[:, a] = start + rng.choice(size, size=rows, p=rng.dirichlet(np.ones(size)))
    w = rng.standard_normal(shape.columns)
    logits = w[cols].sum(axis=1)
    labels = np.where(rng.random(rows) < 1.0 / (1.0 + np.exp(-logits)), 1, -1)
    return cols, labels


def write_libsvm(path, shape: Shape, rows: int, seed: int) -> None:
    """Write ``rows`` generated rows as ``<+-1> <col>:1 ...`` with 1-based columns."""
    cols, labels = generate(shape, rows, seed)
    with open(path, "w") as f:
        for c, b in zip(cols + 1, labels):
            f.write(f"{b:+d} " + " ".join(f"{j}:1" for j in c) + "\n")
