"""l2-regularized logistic loss family, batch statistics, and data handling.

Per sample ``(a, b)`` with ``b in {-1, +1}`` the loss at ``x`` is
``(lam/2)||x||^2 + log(1 + exp(-b a^T x))``.  A local objective averages the
sample losses of one agent; batch gradients and Hessians average uniformly
chosen subsets and are unbiased for the full quantities.

Data stays in arrays from file to engine, and each phase holds the
training data once.  :func:`parse_libsvm` tokenizes each slice of
``_CHUNK_LINES`` lines as one array of code points, converts indices,
labels and values made of ASCII digits and an optional sign with array
arithmetic, and sends every other token through ``int()``/``float()`` once
per distinct string; it returns the rows as one compressed sparse row
(CSR) matrix, a :class:`~soprolab.sparse.Csr`, and ``(n,)`` labels.
Each slice writes its entries into index and value arrays allocated once,
with a slot for every colon in the text, so a parse holds the text, those
arrays and one slice's tokenizer arrays at once.
:func:`partition` takes the rows as a :class:`~soprolab.sparse.Csr` only
(the synthetic loader turns dense rows into one with
:meth:`~soprolab.sparse.Csr.from_dense`), gathers them with
:meth:`~soprolab.sparse.Csr.take` and copies each once into its slot: in
the block-diagonal CSR operator of one :class:`StackedSets`, which every
later layer takes, or in the CSR test set.  Every product of a CSR matrix
runs in scipy's compiled kernels, loaded without importing
``scipy.sparse`` (see :mod:`soprolab.sparse`).  A round reads only its
batches' rows: :func:`sets_grad` gathers the gradient batch's from
``csr`` once, and a proximal round then gathers its Hessian batch's.  A
batch that is the whole local sets is ``csr`` itself, gathered by no one.
The set-up reads the local sets densely through
:meth:`StackedSets.agent_chunks` alone, a run of whole agents of at most
``READ_CHUNK_ROWS`` rows at a time, in float64 for the noise estimate and
the Gram stack, and in float32 with every row scaled, for the reference
Hessian.  The stacked functions (:func:`sets_grad`,
:func:`sigma_sq_estimate`, and :func:`logistic_coef` and
:func:`logistic_curvature` of stacked margins) work on all agents at
once; :func:`sets_grad` is the one gradient over stacked sets, for the
set-up, the proximal rounds and the baselines alike.  Every logistic
probability is :func:`sigmoid`, ``scipy.special.expit``'s formula on
numpy's ``exp``: it equals ``expit`` on about 98% of inputs and is
within a few ulps of it on the rest, and it imports no scipy module.
The per-agent :class:`LocalDataset` and its :func:`batch_grad`,
:func:`batch_hess` (a :class:`LowRankHessian`) and :func:`full_grad`
compute one agent alone; the stacked functions are checked against them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvariantViolation, ParameterError, ParseError
from .sparse import Csr, index_type

__all__ = [
    "LocalDataset",
    "StackedSets",
    "TestSet",
    "SmoothnessBounds",
    "LowRankHessian",
    "parse_libsvm",
    "partition",
    "batch_grad",
    "batch_hess",
    "full_grad",
    "sets_grad",
    "sigmoid",
    "logistic_coef",
    "logistic_curvature",
    "sigma_sq_estimate",
    "predict",
]


@dataclass
class LocalDataset:
    """One agent's samples as stacked rows plus the shared regularizer."""

    features: np.ndarray  # (C, d)
    labels: np.ndarray  # (C,) of +-1
    lambda_reg: float

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ParameterError("need at least one sample")
        if self.labels.shape != (self.features.shape[0],):
            raise ParameterError("labels/features length mismatch")
        if not np.all(np.abs(self.labels) == 1):
            raise ParameterError("labels must be +-1")
        if not self.lambda_reg > 0:
            raise ParameterError(f"lambda_reg must be positive, got {self.lambda_reg}")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class StackedSets:
    """All agents' local sets, stacked, with their regularizers.

    Every agent holds ``C`` samples: agent ``i``'s have the labels
    ``labels[i]``.  The rows are one block-diagonal ``(N C, N d)`` CSR
    operator ``csr``: agent ``i``'s row ``j`` is row ``i C + j`` and its
    column ``c`` is column ``i d + c``.  The arrays are read-only.

    :meth:`matvec` reads the operator, a :class:`~soprolab.sparse.Csr`,
    with scipy's compiled CSR kernels.  The set-up reads the rows densely,
    a run of whole agents at a time, through :meth:`agent_chunks`.
    """

    csr: Csr = field(compare=False, repr=False)
    labels: np.ndarray  # (N, C) floats of +-1
    lam: np.ndarray  # (N,) positive

    def __post_init__(self):
        shapes = (self.labels.shape, self.lam.shape)
        if len(shapes[0]) != 2 or shapes[1] != shapes[0][:1]:
            raise ParameterError(f"need (N, C) and (N,) arrays, got {shapes}")
        n, per_agent = shapes[0]
        if n < 1 or per_agent < 1:
            raise ParameterError(
                f"need at least one agent and one sample each, got {n} x {per_agent}"
            )
        if not np.all(self.lam > 0):
            raise ParameterError(f"lambda_reg must be positive, got {self.lam}")
        if not np.all(np.abs(self.labels) == 1):
            raise ParameterError("labels must be +-1")
        if not isinstance(self.csr, Csr):
            raise ParameterError(f"need the operator as a Csr, got {type(self.csr).__name__}")
        if self.csr.shape[0] != n * per_agent or self.csr.shape[1] % n:
            raise ParameterError(
                f"need a ({n * per_agent}, {n} d) operator, got {self.csr.shape}"
            )
        for a in (self.labels, self.lam, self.csr.data, self.csr.indices, self.csr.indptr):
            a.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(N, C, d)``: the agents, the samples of each and the dimension."""
        n, per_agent = self.labels.shape
        return n, per_agent, self.csr.shape[1] // n

    @property
    def dim(self) -> int:
        return self.shape[2]

    @cached_property
    def row_sq(self) -> np.ndarray:
        """``(N, C)`` squared norms ``|a_j|^2`` of every row, computed once:
        the squares of the operator's stored entries, summed per row in
        their stored (column) order."""
        rows = np.repeat(np.arange(self.csr.shape[0]), self.csr.row_lengths)
        sums = np.bincount(rows, np.square(self.csr.data), minlength=self.csr.shape[0])
        return sums.reshape(self.labels.shape)

    @cached_property
    def curvature_bound(self) -> np.ndarray:
        """``(N,)`` bounds ``max_j |a_j|^2 / 4`` on the logistic part of
        every agent's batch Hessian: a row's weight ``p (1 - p)`` is at
        most ``1 / 4``."""
        return 0.25 * self.row_sq.max(axis=1)

    @cached_property
    def _flat_positions(self) -> np.ndarray:
        """Where each stored entry of ``csr`` sits in the flat ``(N C, d)``
        stack of the rows: row ``r``'s entry in column ``i d + c`` (``i =
        r // C``) at ``r d + c``.  Computed once, for :meth:`dense_rows`."""
        n, per_agent, d = self.shape
        index = np.int32 if n * per_agent * d < 2**31 else np.int64
        rows = np.repeat(np.arange(n * per_agent, dtype=index), self.csr.row_lengths)
        rows -= rows // per_agent
        rows *= d
        return np.add(rows, self.csr.indices, dtype=index)

    def dense_rows(
        self, start: int, stop: int, out: np.ndarray, scale: np.ndarray | None = None
    ) -> np.ndarray:
        """Rows ``start`` to ``stop`` of the flat ``(N C, d)`` stack of the
        rows (agent ``i``'s row ``j`` is row ``i C + j``), as a dense array:
        zeroes the C-contiguous ``(stop - start, d)`` array ``out``, writes
        the rows' stored entries into it and returns it.  Given the
        ``(stop - start,)`` per-row ``scale``, each stored entry is first
        multiplied by its row's scale, both rounded to ``out``'s dtype and
        multiplied in it.  A float32 ``out`` rounds the stored entries to
        float32.
        """
        d = self.dim
        if out.shape != (stop - start, d) or not out.flags.c_contiguous:
            raise ParameterError(
                f"need a C-contiguous ({stop - start}, {d}) array, got {out.shape}"
            )
        ptr = self.csr.indptr[start : stop + 1]
        values = self.csr.data[ptr[0] : ptr[-1]]
        if scale is not None:
            values = np.multiply(values, np.repeat(scale, np.diff(ptr)), dtype=out.dtype)
        out.fill(0.0)
        # An intp index takes numpy's fast scatter; the stored int32 would not.
        at = self._flat_positions[ptr[0] : ptr[-1]].astype(np.intp)
        at -= start * d
        out.reshape(-1)[at] = values
        return out

    def agent_chunks(self, dtype=np.float64, scale: np.ndarray | None = None):
        """Yield ``(a, b, feats)`` over consecutive runs of whole agents:
        ``feats`` is the ``(b - a, C, d)`` rows of agents ``a`` to ``b`` in
        ``dtype``, read by :meth:`dense_rows`, with every row multiplied by
        its entry of the ``(N, C)`` ``scale`` if one is given.  A run holds
        at most ``READ_CHUNK_ROWS`` rows, or one agent; every run is written
        into the same buffer, so ``feats`` is valid until the next run."""
        n, per_agent, d = self.shape
        step = max(1, READ_CHUNK_ROWS // per_agent)
        buffer = np.empty((min(step, n) * per_agent, d), dtype=dtype)
        for a in range(0, n, step):
            b = min(a + step, n)
            rows = self.dense_rows(a * per_agent, b * per_agent, buffer[: (b - a) * per_agent],
                                   None if scale is None else scale[a:b].ravel())
            yield a, b, rows.reshape(b - a, per_agent, d)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``(N, C)`` products ``F_i x_i`` of every agent's rows with its
        row of the ``(N, d)`` ``x``."""
        return (self.csr @ x.ravel()).reshape(self.labels.shape)


@dataclass
class TestSet:
    """Held-out samples for accuracy reporting; may be empty.

    ``features`` is an ``(n, d)`` :class:`~soprolab.sparse.Csr`, read
    through ``features @ x``.
    """

    features: Csr
    labels: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]


# Raw label sets the automatic rule accepts, in the order it tries them,
# and the raw label each maps to -1.
_LABEL_CONVENTIONS = (((-1.0, 1.0), -1.0), ((1.0, 2.0), 2.0), ((0.0, 1.0), 0.0))


def _map_labels(raw: np.ndarray, linenos: np.ndarray) -> np.ndarray:
    """Map raw labels to +-1 by the first convention that fits all of them.

    When none fits, the error names the first label in file order that no
    convention fits together with the labels before it.
    """
    breaks = []
    for allowed, negative in _LABEL_CONVENTIONS:
        outside = ~np.isin(raw, allowed)
        if not outside.any():
            return np.where(raw == negative, -1, 1)
        breaks.append(int(np.argmax(outside)))
    # The labels before the latest first break still fit one convention.
    k = max(breaks)
    raise ParseError(f"unmappable label {float(raw[k])}", line=int(linenos[k]))


# Lines per slice of a file: the tokenizer's index arrays grow with a
# slice, not with the file.
_CHUNK_LINES = 1024
# Rows per dense read of the local sets in the set-up: a run of
# StackedSets.agent_chunks holds whole agents, at least one, and at most
# this many rows unless one agent has more.  At d = 123 its buffer is
# about 1 MB of float64 (noise estimate, Gram stack) or 0.5 MB of float32
# (reference Hessian).
READ_CHUNK_ROWS = 1024
# The code points that ``str.split`` treats as whitespace, and those among
# them that ``str.splitlines`` ends a line at; none lies above U+3000.
_SPACES = (9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 0x85, 0xA0, 0x1680,
           *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
_BREAKS = (10, 11, 12, 13, 28, 29, 30, 0x85, 0x2028, 0x2029)
# A carriage return ends a line only when no line feed follows it.
_SPACE, _BREAK, _CR = 1, 2, 4
_CLASS = np.zeros(0x3002, dtype=np.uint8)
_CLASS[list(_SPACES)] |= _SPACE
_CLASS[list(_BREAKS)] |= _BREAK
_CLASS[13] |= _CR
# The longest field converted with array arithmetic: room for a sign and
# 15 digits.
_PLAIN_CHARS = 16


def _class_of(c: np.ndarray) -> np.ndarray:
    """Classes of the code points ``c``.  Those past the table read its
    last entry, U+3001, which has no class."""
    return _CLASS[c if c.dtype == np.uint8 else np.minimum(c, _CLASS.size - 1)]


def _breaks(codes: np.ndarray, at: np.ndarray, cls: np.ndarray) -> np.ndarray:
    """Mask of the positions ``at``, of classes ``cls``, whose characters
    end a line as ``str.splitlines`` ends them: ``\\r\\n`` is one break,
    ended by its ``\\n``."""
    brk = cls & _BREAK > 0
    cr = np.flatnonzero(cls & _CR)
    brk[cr[codes[np.minimum(at[cr] + 1, codes.size - 1)] == 10]] = False
    return brk


def _plain_integers(codes: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Convert the fields ``codes[start:end]`` that are plain integers.

    A field is plain when it is an optional sign and then ASCII digits, at
    most ``_PLAIN_CHARS`` characters in all, whose value is below 10**15.
    That value is an exact double and equals both ``int()`` and ``float()``
    of the field; the sign is applied last, so ``-0`` gives ``-0.0``.

    Returns ``(value, plain)``; ``value`` is arbitrary where not ``plain``.
    """
    size = end - start
    value = np.zeros(start.size)
    plain = np.zeros(start.size, dtype=bool)
    count = np.bincount(np.minimum(size, _PLAIN_CHARS + 1), minlength=_PLAIN_CHARS + 2)
    # The fields of one width at a time, one character of each at a time;
    # empty and overlong fields are not plain.
    for width in (np.flatnonzero(count[1 : _PLAIN_CHARS + 1]) + 1).tolist():
        at = np.flatnonzero(size == width)
        where = start[at].astype(np.intp)  # int32 indices take a slow path
        head = codes[where]
        digits = (head >= 48) & (head <= 57)
        mant = np.where(digits, head & 15, 0.0)
        digits |= ((head == 43) | (head == 45)) & (width > 1)
        for _ in range(width - 1):
            where += 1
            row = codes[where]
            digits &= (row >= 48) & (row <= 57)
            mant *= 10.0
            mant += row & 15
        plain[at] = digits & (mant < 1e15)
        value[at] = np.negative(mant, out=mant, where=head == 45)
    return value, plain


def _convert(codes: np.ndarray, text: str, start: np.ndarray, end: np.ndarray, convert):
    """``convert``, ``int`` or ``float``, of each field ``text[start:end]``.

    Plain integer fields (see :func:`_plain_integers`) are converted with
    array arithmetic.  Every other field goes through ``convert`` once per
    distinct string, so a field it refuses raises its ``ValueError``.
    """
    value, plain = _plain_integers(codes, start, end)
    if convert is int:
        value = value.astype(np.int64)
    slow = np.flatnonzero(~plain)
    if slow.size:
        fields = [text[s:e] for s, e in zip(start[slow].tolist(), end[slow].tolist())]
        converted = {f: convert(f) for f in set(fields)}
        value[slow] = [converted[f] for f in fields]
    return value


def _tokenize(codes: np.ndarray, text: str):
    """Lines, and the data lines' contents, of one slice of a file.

    ``codes`` holds the code points of ``text``, which starts a line and
    ends one.  Returns ``(n_lines, parsed)``: the number of line breaks in
    the slice, and ``(lines, raw labels, tokens per line, indices, values)``
    of its data lines, with ``lines`` 0-based within the slice, or ``None``
    when any token in it is malformed.  Each positional array is deleted
    after its last use, so few of them are alive at once.
    """
    # Positions in the slice are int32 when they fit.
    pos = np.int32 if codes.size < 2**31 else np.int64
    # Whitespace and colons in text order, and a space past the end.
    sep = np.flatnonzero((codes <= 32) | (codes == 58) | (codes >= 0x85))
    c = codes[sep]  # read before sep narrows: int32 indices take a slow path
    sep = sep.astype(pos)
    cls = _class_of(c)
    kept = (cls > 0) | (c == 58)
    sep = np.pad(sep[kept], (0, 1), constant_values=codes.size)
    cls = np.pad(cls[kept], (0, 1), constant_values=_SPACE)
    space_at = np.flatnonzero(cls[:-1])
    space = sep[space_at]
    brk = np.flatnonzero(_breaks(codes, space, cls[space_at]))
    # Tokens are the runs between whitespace: token k follows edge[gap[k]].
    edge = np.pad(space, 1, constant_values=(-1, codes.size))
    del space
    gap = np.flatnonzero(np.diff(edge) > 1)
    # The separator after a token's start is its first colon, if it has one.
    after = np.append(-1, space_at)[gap]
    del space_at
    after += 1
    colon = sep[after]
    colon[cls[after] > 0] = -1
    del sep, cls, after
    start = edge[gap] + 1
    end = edge[gap + 1]
    # Lines: edge[e] follows the breaks among space[:e].
    per_line = np.diff(np.concatenate(([0], brk + 1, [edge.size])))
    del edge
    line = np.repeat(np.arange(brk.size + 1, dtype=pos), per_line)[gap]
    del gap
    # The first token of a line is its label, or opens a comment.
    head = np.ones(start.size, dtype=bool)
    head[1:] = line[1:] != line[:-1]
    labels = np.flatnonzero(head)
    comment = codes[start[labels]] == 35
    if comment.any():
        in_comment = np.zeros(brk.size + 1, dtype=bool)
        in_comment[line[labels[comment]]] = True
        keep = ~in_comment[line]
        start, end, line, head, colon = (a[keep] for a in (start, end, line, head, colon))
        labels = np.flatnonzero(head)
    line = line[labels]
    lens = np.diff(np.append(labels, start.size)) - 1
    # A feature token splits at its first colon.  int() and float() refuse
    # empty text and any other colon, so the conversions reject the rest.
    # Each token array gives way to its features' part as it is taken.
    feat = ~head
    colon = colon[feat]
    if np.any(colon < 0):
        return brk.size, None
    try:
        raw = _convert(codes, text, start[labels], end[labels], float)
        start = start[feat]
        idx = _convert(codes, text, start, colon, int)
        del start
        end = end[feat]
        colon += 1
        val = _convert(codes, text, colon, end, float)
    except (ValueError, OverflowError):
        # OverflowError: an index past int64.
        return brk.size, None
    del colon, end
    # Indices start above 0 and increase strictly within each line.
    prev = np.empty_like(idx)
    prev[1:] = idx[:-1]
    prev[(np.cumsum(lens) - lens)[lens > 0]] = 0
    if np.any(idx <= prev):
        return brk.size, None
    return brk.size, (line, raw, lens, idx, val)


def _raise_first_error(text: str, first_line: int):
    """Raise the error of the first malformed token in ``text``, whose
    first line is line ``first_line`` of the file."""
    for lineno, line in enumerate(text.splitlines(), start=first_line):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        label, *features = tokens
        try:
            float(label)
        except ValueError:
            raise ParseError(f"bad label token {label!r}", line=lineno) from None
        prev = 0
        for tok in features:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s)
                float(val_s)
            except ValueError:
                raise ParseError(f"bad feature token {tok!r}", line=lineno) from None
            if idx < 1:
                raise ParseError(f"index {idx} is not 1-based", line=lineno)
            if idx >= 2**63:
                raise ParseError(f"feature token {tok!r} has an index past int64", line=lineno)
            if idx <= prev:
                raise ParseError(
                    f"indices must be strictly increasing, got {idx} after {prev}",
                    line=lineno,
                )
            prev = idx
    raise InvariantViolation("a rejected slice has no malformed token")


def _parse_lines(source):
    """``(labels, lens, indices, values)`` of the data lines of ``source``,
    as :func:`parse_libsvm` describes them: the mapped labels, the tokens
    per line, and every line's 1-based indices and values in file order.

    Every stored entry holds a colon, so the colons in the text bound the
    entries: the indices and values are allocated once at that length and
    each slice writes its entries into them at a running offset.  A parse
    holds the text, those two arrays, the small per-line arrays and one
    slice's tokenizer arrays at once.  The text and the slices' arrays are
    freed when it returns."""
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    elif not data.isascii():
        try:
            data.decode()  # invalid UTF-8 fails before any line is parsed
        except UnicodeDecodeError as e:
            # The line of the first undecodable byte, counted in the text before it.
            line = len((data[: e.start].decode() + "x").splitlines())
            raise ParseError(f"invalid UTF-8 byte {data[e.start]:#04x}", line=line) from None

    whole = np.frombuffer(data, dtype=np.uint8)
    # Bytes below 32 are never part of a multi-byte character.
    low = np.flatnonzero(whole < 32)
    ends = low[_breaks(whole, low, _class_of(whole[low]))][_CHUNK_LINES - 1 :: _CHUNK_LINES] + 1
    cuts = np.unique(np.concatenate(([0], ends, [whole.size]))).tolist()
    del low, ends
    # Indices that fit are kept as int32, so the rows take 12 bytes an
    # entry, not 16, while partition holds them; the first slice past
    # int32 makes the buffer int64.
    indices = np.empty(data.count(b":"), dtype=np.int32)
    values = np.empty(indices.size)
    written = 0
    first_line = 1
    # Line numbers, raw labels and tokens per line of each slice, after an
    # empty one.
    per_line = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64))]
    for a, b in zip(cuts[:-1], cuts[1:]):
        text = data[a:b].decode("utf-8", "surrogatepass")
        if text.isascii():
            codes = whole[a:b]
        else:
            codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        n_lines, parsed = _tokenize(codes, text)
        if parsed is None:
            _raise_first_error(text, first_line)
        line, raw, lens, idx, val = parsed
        del parsed, codes, text
        if idx.max(initial=0) >= 2**31 and indices.dtype == np.int32:
            indices = indices.astype(np.int64)
        indices[written : written + idx.size] = idx
        values[written : written + idx.size] = val
        written += idx.size
        del idx, val
        per_line.append((np.add(line, first_line, dtype=np.int64), raw, lens))
        first_line += n_lines

    # Colons in comment lines leave slack.
    if written < indices.size:
        indices = indices[:written].copy()
        values = values[:written].copy()
    lines, raw, lens = map(np.concatenate, zip(*per_line))
    return _map_labels(raw, lines), lens, indices, values


def parse_libsvm(source, dim: int | None = None):
    """Parse LIBSVM text into sparse rows and +-1 labels.

    ``source`` is the file's text, as ``str`` or ``bytes``, or an open file,
    which is read whole.  A ``str`` is always the text, never a file name;
    a path object (``os.PathLike``) is refused with a
    :class:`~soprolab.errors.ParameterError`.

    Each line that is neither blank nor a ``#`` comment is
    ``<label> <idx>:<val> ...`` with 1-based, strictly increasing indices.
    Lines, blanks and tokens are as ``str.splitlines`` and ``str.split``
    find them.  Labels are mapped to +-1: raw ``{-1,+1}`` pass through,
    ``{1,2}`` maps 2 to -1, ``{0,1}`` maps 0 to -1.  The dimension is the
    largest index seen, overridable upward via ``dim``.

    The text is cut after every ``_CHUNK_LINES``-th ASCII line break, so a
    slice holds that many lines unless U+0085, U+2028 or U+2029 break more.
    Each slice is tokenized as one array of code points: its ASCII bytes,
    or its UTF-32 when it is not ASCII.  Indices, labels and values that
    are an optional sign and ASCII digits below 10**15 (see
    :func:`_plain_integers`) are converted with array arithmetic, equal to
    ``int()`` and ``float()``.  Other fields, such as decimals with a dot,
    exponents, underscores, non-ASCII digits, ``inf``/``nan`` and long
    digit strings, go through ``int()`` or ``float()`` once per distinct
    string.  A slice with a malformed token, or with an index of 2**63 or
    more, is walked token by token, so the :class:`ParseError` names the
    first bad token or label in file order and its line.  Bytes that are
    not UTF-8 are refused before any line is parsed, with the line of the
    first bad one.

    Returns ``(rows, labels)``: the ``(n, d)`` rows as a
    :class:`~soprolab.sparse.Csr` of the parsed entries only, with sorted
    column indices, no duplicates and int32 indices when they and the
    entry count fit (the arrays of scipy's ``csr_matrix``), and ``(n,)``
    int labels.
    """
    if isinstance(source, os.PathLike):
        raise ParameterError(
            f"parse_libsvm got the path {os.fspath(source)!r}; pass the file's text "
            "or an open binary file"
        )
    labels, lens, idx, val = _parse_lines(source)
    d = max(dim or 0, int(idx.max()) if idx.size else 0)
    idx -= 1
    index = index_type(idx.size, lens.size, d)
    indptr = np.zeros(lens.size + 1, dtype=index)
    np.cumsum(lens, out=indptr[1:])
    return Csr(indptr, idx.astype(index, copy=False), val, (lens.size, d)), labels


def _block_diagonal(rows: Csr, n_agents: int) -> Csr:
    """The ``(N C, d)`` ``rows``, ``C`` consecutive rows an agent, as the
    block-diagonal ``(N C, N d)`` operator of :class:`StackedSets`: agent
    ``i``'s columns moved ``i d`` along.  The operator takes over the
    arrays of ``rows``, whose column indices it moves in place, one agent's
    at a time, when their type fits: no other array of an entry each is
    made."""
    total, d = rows.shape
    shape = (total, n_agents * d)
    index = index_type(rows.nnz, *shape)
    indices = rows.indices.astype(index, copy=False)
    ends = rows.indptr[:: total // n_agents].tolist()
    for i in range(1, n_agents):
        indices[ends[i] : ends[i + 1]] += i * d
    return Csr(rows.indptr.astype(index, copy=False), indices, rows.data, shape)


def partition(data, n_agents: int, per_agent: int, seed: int, lambda_reg: float):
    """Split uniformly permuted rows of ``data = (rows, labels)`` into
    equal local sets.

    ``rows`` is the ``(n, d)`` :class:`~soprolab.sparse.Csr` of
    :func:`parse_libsvm`, or of :meth:`~soprolab.sparse.Csr.from_dense` for
    dense rows; any other type is refused with a :class:`ParameterError`
    that names it.  ``labels`` is ``(n,)`` of +-1.
    The first ``n_agents * per_agent`` permuted rows form contiguous blocks
    of ``per_agent``; leftovers become the test set.  Deterministic per
    seed.

    Rows with a non-finite value, local or test, are refused with a
    :class:`ParameterError` that names the first of them (0-based, in data
    order) before any set is written, and so are rows with unsorted or
    repeated column indices.

    The rows are taken with :meth:`Csr.take`, each copied once into arrays
    allocated once: into the block-diagonal CSR operator of a
    :class:`StackedSets`, with agent ``i``'s columns moved ``i d`` along,
    or into the CSR test set.  No dense block is formed, and neither shares
    memory with ``data``.  Returns ``(local_sets, test_set)``.
    """
    if n_agents < 1 or per_agent < 1:
        raise ParameterError(f"need agents and samples per agent, got {n_agents} x {per_agent}")
    rows, labels = data
    if not isinstance(rows, Csr):
        raise ParameterError(f"need the rows as a Csr, got {type(rows).__name__}")
    if labels.shape != rows.shape[:1]:
        raise ParameterError(
            f"need (n, d) rows and (n,) labels, got {rows.shape} and {labels.shape}"
        )
    # The operator sums repeated entries, which dense_rows would write once.
    if not rows.has_canonical_format:
        raise ParameterError("sparse rows need sorted column indices without duplicates")
    finite = np.isfinite(rows.data)
    if not finite.all():
        k = int(np.argmin(finite))
        row = np.searchsorted(rows.indptr, k, side="right") - 1
        raise ParameterError(
            f"row {row} (0-based, in data order) has a non-finite feature value {rows.data[k]}"
        )
    need, total = n_agents * per_agent, rows.shape[0]
    if need > total:
        raise ParameterError(
            f"{n_agents} agents x {per_agent} samples need {need}, only {total} available"
        )
    perm = np.random.default_rng(seed).permutation(total)
    chosen, rest = perm[:need], perm[need:]
    csr = _block_diagonal(rows.take(chosen), n_agents)
    local_labels = labels[chosen].reshape(n_agents, per_agent).astype(float)
    lam = np.full(n_agents, float(lambda_reg))
    local = StackedSets(csr, local_labels, lam)
    return local, TestSet(features=rows.take(rest), labels=labels[rest])


@dataclass
class LowRankHessian:
    """Hessian in ``lam * I + feats^T diag(weights) feats`` form.

    ``weights`` already include the batch-averaging factor, so ``dense()``
    is the exact averaged Hessian.
    """

    lam: float
    weights: np.ndarray  # (k,)
    feats: np.ndarray  # (k, d)

    @property
    def dim(self) -> int:
        return self.feats.shape[1]

    def dense(self) -> np.ndarray:
        H = self.feats.T @ (self.weights[:, None] * self.feats)
        H.flat[:: H.shape[0] + 1] += self.lam
        return H


def _check_dim(x: np.ndarray, d: int):
    if x.shape != (d,):
        raise ParameterError(f"dimension mismatch: x has shape {x.shape}, expected ({d},)")


def _as_index_array(ds: LocalDataset, indices) -> np.ndarray:
    idx = np.asarray(sorted(indices) if not isinstance(indices, np.ndarray) else indices)
    if idx.size == 0:
        raise ParameterError("empty index set")
    if idx.min() < 0 or idx.max() >= ds.n_samples:
        raise ParameterError(
            f"index out of range 0..{ds.n_samples - 1}: {idx.min()}..{idx.max()}"
        )
    return idx


def batch_grad(x: np.ndarray, ds: LocalDataset, indices) -> np.ndarray:
    """Mean of per-sample gradients over ``indices`` (all of them: exact gradient).

    Summation follows ascending index order so a full batch is bitwise
    reproducible no matter how the indices were drawn.
    """
    idx = _as_index_array(ds, indices)
    _check_dim(x, ds.dim)
    F = ds.features[idx]
    b = ds.labels[idx]
    coef = b * sigmoid(-b * (F @ x))
    return ds.lambda_reg * x - (F.T @ coef) / idx.size


def batch_hess(x: np.ndarray, ds: LocalDataset, indices) -> LowRankHessian:
    """Mean of per-sample Hessians over ``indices`` in low-rank form."""
    idx = _as_index_array(ds, indices)
    _check_dim(x, ds.dim)
    F = ds.features[idx]
    p = sigmoid(F @ x)
    return LowRankHessian(lam=ds.lambda_reg, weights=p * (1.0 - p) / idx.size, feats=F)


def full_grad(x: np.ndarray, ds: LocalDataset) -> np.ndarray:
    return batch_grad(x, ds, np.arange(ds.n_samples))


def sets_grad(
    x: np.ndarray,
    local: StackedSets,
    idx: np.ndarray | None,
    margins: np.ndarray | None = None,
) -> np.ndarray:
    """Batch gradients of all agents at once, one row each.

    ``idx`` are the ``(N k,)`` flat positions ``i C + j`` of every agent's
    batch of ``k`` rows in the ``(N, C)`` rows of the local sets (see
    :func:`~soprolab.optimizer.batch_positions`; ``None``: the whole
    sets).  Only the batch's rows are read: one
    :meth:`~soprolab.sparse.Csr.take` of ``local.csr`` gathers them into
    the ``(N k, N d)`` block-diagonal batch operator (the whole sets are
    ``local.csr`` itself), whose product gives the margins and whose
    transpose product the gradient.  ``margins``, if given, are the whole
    sets' ``local.csr @ x``, which a caller shares with other work; with a
    batch they are refused with a :class:`ParameterError`.  Row ``i``
    equals :func:`batch_grad` on the same rows up to summation order: the
    sparse products sum a row's stored entries, and agent ``i``'s rows,
    in another order than the dense products of :func:`batch_grad`.
    """
    rows, labels = local.csr, local.labels.ravel()
    if idx is not None:
        if margins is not None:
            raise ParameterError("got both margins and a batch; margins serve the whole sets only")
        rows, labels = rows.take(idx), labels[idx]
    if margins is None:
        margins = rows @ x.ravel()
    coef = logistic_coef(margins.ravel(), labels)
    size = labels.size // len(local.lam)
    return local.lam[:, None] * x - rows.rmatvec(coef).reshape(x.shape) / size


def sigmoid(z):
    """The logistic function ``1 / (1 + exp(-z))`` of an array or a float.

    It is ``scipy.special.expit``'s formula, computed with numpy's ``exp``,
    which is within 1 ulp of the C library's.  Measured on uniform
    ``z`` in ``[-800, 800]`` (numpy 2.4, AVX-512), the two agree on about
    98% of inputs and differ by at most 2 ulps elsewhere, or by at most 4
    where ``1 + exp(-z)`` is at least ``2^53`` and rounds to even (``z <
    -36.7``); the relative gap stays below ``5.1e-16``.  ``exp(-z)``
    overflows to ``inf`` for ``z < -709.8``, where the result is the
    correct 0, so the overflow is not reported.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def logistic_coef(margins: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row gradient coefficients ``b * sigmoid(-b u)`` of the margins
    ``u = F x``: a batch gradient is ``lam x - F^T coef / count``."""
    return labels * sigmoid(-labels * margins)


def logistic_curvature(margins: np.ndarray) -> np.ndarray:
    """Per-row Hessian weights ``p (1 - p)``, ``p = sigmoid(u)``, of the
    margins ``u = F x``."""
    p = sigmoid(margins)
    return p * (1.0 - p)


@dataclass(frozen=True)
class SmoothnessBounds:
    """Network-level curvature bounds: vectors of the per-agent m_i, M_i."""

    m: np.ndarray  # (N,)
    M: np.ndarray  # (N,)

    def __post_init__(self):
        if self.m.shape != self.M.shape:
            raise ParameterError("m/M length mismatch")
        if np.any(self.m < 0) or np.any(self.M <= 0) or np.any(self.m > self.M):
            raise ParameterError("need 0 <= m_i <= M_i with M_i > 0")
        self.m.setflags(write=False)
        self.M.setflags(write=False)

    @classmethod
    def from_sets(cls, local: StackedSets) -> "SmoothnessBounds":
        """``m_i = lam_i`` and the tight logistic ``M_i = lam_i + max_j |a_j|^2 / 4``
        (:attr:`StackedSets.curvature_bound`)."""
        return cls(m=local.lam, M=local.lam + local.curvature_bound)

    @property
    def n_agents(self) -> int:
        return self.m.shape[0]

    @property
    def max_M(self) -> float:
        return float(self.M.max())

    @property
    def min_m(self) -> float:
        return float(self.m.min())


def sigma_sq_estimate(local: StackedSets, probe_points) -> float:
    """Empirical gradient-deviation bound.

    Maximum over agents, samples, and probe points of
    ``||grad l_ij(x) - grad f_i(x)||^2``.  The max over samples dominates the
    in-expectation deviation the certificates need, making the reported
    steady-state bounds conservative.  The ``P`` probes are evaluated
    together as the columns of one ``(d, P)`` block, over the runs of whole
    agents of :meth:`StackedSets.agent_chunks`: one matrix product gives
    every margin of a run, and stacked products give its agents' mean
    terms.
    """
    probes = [np.asarray(x, dtype=float) for x in probe_points]
    if not probes:
        raise ParameterError("need at least one probe point")
    _, per_agent, d = local.shape
    for x in probes:
        _check_dim(x, d)
    X = np.stack(probes, axis=1)
    row_sq, worst = local.row_sq, 0.0
    # per-sample grad_j = lam*x - c_j a_j and full grad = lam*x - u with
    # u the mean of c_j a_j, so the deviation is u - c_j a_j, whose
    # squared norm c_j (c_j |a_j|^2 - 2 a_j.u) + |u|^2 expands without
    # forming it.  Axis -1 runs over probes.  The sum is built in place,
    # so at most three (b - a, C, P) blocks are alive at once.
    for a, b, feats in local.agent_chunks():
        margins = (feats.reshape(-1, d) @ X).reshape(b - a, per_agent, -1)
        c = logistic_coef(margins, local.labels[a:b, :, None])
        u = (feats.transpose(0, 2, 1) @ c) / per_agent
        dev_sq = feats @ u
        dev_sq *= -2.0
        dev_sq += c * row_sq[a:b, :, None]
        dev_sq *= c
        dev_sq += np.einsum("ndp,ndp->np", u, u)[:, None, :]
        worst = max(worst, float(dev_sq.max()))
    return worst


def predict(x: np.ndarray, features) -> np.ndarray:
    """Classification rule ``sign(a^T x)`` with ties counted as +1, for the
    ``(n, d)`` rows ``features``, an array or a :class:`~soprolab.sparse.Csr`."""
    return np.where(features @ x >= 0.0, 1, -1)
