"""Compressed sparse row (CSR) matrices as plain numpy arrays, multiplied
by scipy's compiled kernels.

Every product of a ``scipy.sparse`` CSR matrix runs in one compiled
extension, ``scipy/sparse/_sparsetools``.  Importing the ``scipy.sparse``
package to reach it costs resident memory: with numpy 2.4.6 and scipy
1.17.1, 14.5 MB after numpy and scipy are loaded, over 285 modules
(scipy's array-API layer, numpy.f2py, numpy.testing, unittest, email and
more).  The extension alone costs about 0.14 MB.  :func:`kernels` loads it
from the installed scipy's directory without importing any scipy package,
and :class:`Csr` holds a matrix as the three arrays of scipy's CSR matrix
and calls the kernels on them as scipy's methods do, so every product and
every row gather is bitwise equal to scipy's.

Arrays from outside the module, through the constructor (which
:func:`~soprolab.loss.partition` and :meth:`Csr.from_dense` use), pass
every check of :class:`Csr`.  A row gather, :meth:`Csr.take`, checks its
row numbers and returns its result without checking it again: it only
copies a checked matrix's entries, so the result holds by construction
what the constructor would check.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass
from functools import cache, cached_property
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .errors import ParameterError

__all__ = ["Csr", "index_type", "kernels"]


@cache
def kernels():
    """scipy's ``sparse/_sparsetools`` extension, loaded once.

    ``importlib.util.find_spec("scipy")`` finds scipy's directory and
    imports nothing; the extension is the first ``_sparsetools`` file there
    with a suffix of ``EXTENSION_SUFFIXES``.  When no such file exists, it
    is imported as ``scipy.sparse._sparsetools``: the same kernels, at the
    memory cost of the ``scipy.sparse`` package.
    """
    spec = importlib.util.find_spec("scipy")
    for where in (spec and spec.submodule_search_locations) or ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(where, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                found = importlib.util.spec_from_file_location("_sparsetools", path)
                module = importlib.util.module_from_spec(found)
                found.loader.exec_module(module)
                return module
    from scipy.sparse import _sparsetools

    return _sparsetools


def index_type(*sizes: int):
    """The type of CSR index arrays for the ``sizes`` (entry, row and
    column counts): int32 when each is below 2**31, as scipy chooses it,
    and int64 otherwise."""
    return np.int32 if max(sizes) < 2**31 else np.int64


@dataclass(frozen=True, eq=False)
class Csr:
    """An ``(m, n)`` float64 matrix in compressed sparse row form.

    Row ``r`` stores the values ``data[indptr[r]:indptr[r + 1]]`` in the
    columns ``indices[indptr[r]:indptr[r + 1]]``: the arrays of scipy's
    ``csr_matrix``.  A :class:`Csr` never writes them; their owner may mark
    them read-only.  Construction checks what scipy's constructor checked:
    1-D arrays, float64 values, one index type (int32 or int64) for
    ``indptr`` and ``indices``, ``m + 1`` row pointers from 0 to the number
    of stored entries, and as many indices as values.  It also checks what
    the kernels trust, which scipy left unchecked: that the row pointers
    never decrease and the column indices lie in ``0..n-1``, so no product
    or gather reads or writes outside its arrays.  Those checks, and the
    :attr:`row_lengths` computed once, hold only while the arrays do not
    change.  :meth:`take` builds its result without them, from arrays that
    satisfy them by construction.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        arrays = (self.indptr, self.indices, self.data)
        if not all(isinstance(a, np.ndarray) and a.ndim == 1 for a in arrays):
            raise ParameterError("need 1-D arrays indptr, indices and data")
        if len(self.shape) != 2 or min(self.shape) < 0:
            raise ParameterError(f"need a shape of two sizes, got {self.shape}")
        object.__setattr__(self, "shape", tuple(map(int, self.shape)))
        if self.data.dtype != np.float64:
            raise ParameterError(f"need float64 values, got {self.data.dtype}")
        index = self.indptr.dtype
        if index not in (np.int32, np.int64) or self.indices.dtype != index:
            raise ParameterError(
                f"need int32 or int64 indptr and indices of one type, got "
                f"{index} and {self.indices.dtype}"
            )
        if self.indptr.size != self.shape[0] + 1:
            raise ParameterError(
                f"need {self.shape[0] + 1} row pointers, got {self.indptr.size}"
            )
        if self.indices.size != self.data.size:
            raise ParameterError(
                f"need as many indices as values, got {self.indices.size} and {self.data.size}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.size:
            raise ParameterError(
                f"row pointers must run from 0 to {self.data.size}, got "
                f"{self.indptr[0]}..{self.indptr[-1]}"
            )
        if np.any(self.indptr[1:] < self.indptr[:-1]):
            raise ParameterError("row pointers must not decrease")
        cols = self.indices
        if cols.size and (cols.min() < 0 or cols.max() >= self.shape[1]):
            raise ParameterError(
                f"column indices must lie in 0..{self.shape[1] - 1}, got {cols.min()}..{cols.max()}"
            )

    @classmethod
    def from_dense(cls, rows: np.ndarray) -> Csr:
        """The nonzero entries of the dense ``(m, n)`` float rows: the arrays
        of ``scipy.sparse.csr_matrix(rows)``, which drops ``-0.0`` and keeps
        NaN, built from one boolean mask instead of scipy's COO copy."""
        nz = rows != 0
        per_row = np.count_nonzero(nz, axis=1)
        index = index_type(int(per_row.sum()), *rows.shape)
        indptr = np.zeros(rows.shape[0] + 1, dtype=index)
        np.cumsum(per_row, out=indptr[1:])
        indices = np.broadcast_to(np.arange(rows.shape[1], dtype=index), rows.shape)[nz]
        return cls(indptr, indices, rows[nz], rows.shape)

    @property
    def nnz(self) -> int:
        """The number of stored entries."""
        return self.data.size

    @cached_property
    def row_lengths(self) -> np.ndarray:
        """Every row's number of stored entries, ``indptr[1:] - indptr[:-1]``
        in the index type, computed once and read-only: :meth:`take` sizes
        its arrays and builds its row pointers from them."""
        lengths = np.diff(self.indptr)
        lengths.setflags(write=False)
        return lengths

    @property
    def has_canonical_format(self) -> bool:
        """Whether every row's column indices increase strictly (sorted, no
        duplicates): scipy's ``csr_has_canonical_format``, which the checked
        row pointers keep inside ``indices``."""
        return bool(kernels().csr_has_canonical_format(self.shape[0], self.indptr, self.indices))

    def __matmul__(self, other) -> np.ndarray:
        """``self @ other`` for an ``(n,)`` vector or an ``(n, k)`` block,
        as scipy computes it: ``csr_matvec`` for a vector or a one-column
        block, ``csr_matvecs`` otherwise, into zeroed float64 arrays."""
        other = np.asarray(other, dtype=np.float64)
        m, n = self.shape
        if other.ndim not in (1, 2) or other.shape[0] != n:
            raise ParameterError(f"cannot multiply a {self.shape} matrix by {other.shape}")
        if other.ndim == 1 or other.shape[1] == 1:
            out = np.zeros(m)
            kernels().csr_matvec(m, n, self.indptr, self.indices, self.data, other.ravel(), out)
            return out if other.ndim == 1 else out.reshape(-1, 1)
        k = other.shape[1]
        out = np.zeros((m, k))
        kernels().csr_matvecs(
            m, n, k, self.indptr, self.indices, self.data, other.ravel(), out.ravel()
        )
        return out

    def rmatvec(self, v) -> np.ndarray:
        """``self.T @ v`` for an ``(m,)`` vector: scipy's product with the
        transpose, a CSC matrix over the same arrays, ``csc_matvec``."""
        v = np.asarray(v, dtype=np.float64)
        m, n = self.shape
        if v.shape != (m,):
            raise ParameterError(f"cannot multiply the transpose of {self.shape} by {v.shape}")
        out = np.zeros(n)
        kernels().csc_matvec(n, m, self.indptr, self.indices, self.data, v, out)
        return out

    def take(self, rows) -> Csr:
        """The ``(len(rows), n)`` matrix of the rows ``rows``, integers in
        ``0..m-1``, in their order: scipy's ``csr[rows]``, which copies the
        rows' entries with ``csr_row_index`` into arrays allocated once and
        keeps the index type.  The row pointers are the running sum of the
        rows' :attr:`row_lengths`.

        Only the row numbers are checked: a 1-D integer array, each in
        ``0..m-1``.  The result is not checked again, as it holds what the
        constructor checks by construction: ``csr_row_index`` copies
        entries of this checked matrix, so the row pointers are a running
        sum of non-negative lengths from 0 to the copied count, and the
        indices keep their index type and their range ``0..n-1``."""
        rows = np.asarray(rows)
        m, n = self.shape
        if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
            raise ParameterError(f"need a 1-D array of row numbers, got {rows.dtype} {rows.shape}")
        if rows.size and (rows.min() < 0 or rows.max() >= m):
            raise ParameterError(f"row numbers must lie in 0..{m - 1}, got {rows.min()}..{rows.max()}")
        index = self.indptr.dtype
        at = rows.astype(np.intp, copy=False)  # int32 indices take a slow path
        indptr = np.zeros(rows.size + 1, dtype=index)
        np.cumsum(self.row_lengths[at], out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=index)
        data = np.empty(indptr[-1])
        kernels().csr_row_index(
            rows.size, rows.astype(index, copy=False), self.indptr, self.indices, self.data,
            indices, data,
        )
        return _unchecked(indptr, indices, data, (rows.size, n))


def _unchecked(indptr, indices, data, shape: tuple[int, int]) -> Csr:
    """The :class:`Csr` over arrays that hold by construction what its
    constructor checks, built without the checks: only :meth:`Csr.take`
    makes one, from entries it copied out of a checked matrix."""
    matrix = object.__new__(Csr)
    matrix.__dict__.update(indptr=indptr, indices=indices, data=data, shape=shape)
    return matrix
