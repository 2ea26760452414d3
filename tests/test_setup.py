"""Array set-up (parse, partition, reference solve, noise estimate) against
the per-line, per-sample and per-agent loops and the dense set-up of
``oracles.py``."""

import json
import runpy
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Sample,
    agent_datasets,
    block_of,
    csr_rows,
    dense_block,
    densify,
    gradient_per_agent,
    hessian_per_agent,
    newton_per_agent,
    objective_per_agent,
    parse_and_partition_dense,
    parse_libsvm_per_token,
    parse_text,
    partition_samples,
    rel_err,
    scipy_csr,
    sigma_sq_per_agent,
    stack_sets,
)
from soprolab import loss, optimizer
from soprolab.errors import ParameterError, ParseError
from soprolab.harness import experiment, reference
from soprolab.harness.cli import main
from soprolab.harness.metrics import accuracy
from soprolab.harness.synthetic import gaussian_blob_samples
from soprolab.loss import (
    SmoothnessBounds,
    StackedSets,
    parse_libsvm,
    partition,
    sigma_sq_estimate,
)
from soprolab.sparse import Csr

# Small files parse in well under a millisecond; these bounds keep the
# property tests to about a second each.
PROPERTY = settings(max_examples=150, deadline=None, database=None)


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def dense_features(test):
    """The CSR test set's rows as a dense array, read by :func:`densify`."""
    return densify(test.features)


def outcome(parse, text, **kw):
    """Dense rows and labels, or the message and line of the ParseError raised."""
    try:
        rows, labels = parse(text, **kw)
    except ParseError as e:
        return str(e), e.line
    return (rows if isinstance(rows, np.ndarray) else densify(rows)), labels


def assert_same_outcome(text, dim=None):
    got = outcome(parse_text, text, dim=dim)
    want = outcome(parse_libsvm_per_token, text, dim=dim)
    if isinstance(want[0], str):
        assert got == want
    else:
        assert_same_arrays(got, want)


# ------------------------------------------------------------- LIBSVM files

LABELS = {
    "pm1": ["+1", "-1", "1", "-1.0", "1e0"],
    "01": ["0", "1", "0.0", "+1"],
    "12": ["1", "2", "2.0"],
}
# Plain decimals of up to 40 digits; those without a dot fall either side
# of the 15 digits that array arithmetic converts.
DIGITS = st.text("0123456789", max_size=20)
PLAIN = (
    st.tuples(st.sampled_from(["", "+", "-"]), DIGITS, st.sampled_from(["", "."]), DIGITS)
    .map("".join)
    .filter(lambda v: any(c.isdigit() for c in v))
)
VALUES = (st.floats(width=64).map(repr) | PLAIN
          | st.sampled_from(["1", "0", "-0", "1e-3", "+2.5"]))


@st.composite
def libsvm_lines(draw):
    """A valid file as a list of entries: a raw blank or comment line, or
    ``[label, tokens, separator]`` for a data line."""
    labels = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    dim = draw(st.integers(1, 9))
    entries = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["data"] * 4 + ["blank", "comment"]))
        if kind == "blank":
            entries.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "comment":
            entries.append(draw(st.sampled_from(["#", " # note", "#1 2:x"])))
        else:
            idxs = sorted(draw(st.sets(st.integers(1, dim), max_size=dim)))
            tokens = [f"{i}:{draw(VALUES)}" for i in idxs]
            entries.append([draw(st.sampled_from(labels)), tokens,
                            draw(st.sampled_from([" ", "  ", "\t"]))])
    return entries, dim


def render(entries, newline, pad=""):
    lines = [
        e if isinstance(e, str) else pad + e[2].join([e[0], *e[1]]) + pad
        for e in entries
    ]
    return newline.join(lines) + newline


NEWLINES = st.sampled_from(["\n", "\r\n"])
CHUNK_LINES = st.sampled_from([1, 2, 3, 1024])


@PROPERTY
@given(libsvm_lines(), NEWLINES, st.sampled_from(["", " ", "\t"]), st.integers(0, 3),
       st.booleans(), CHUNK_LINES)
def test_parse_matches_per_token_parser_on_valid_files(
    lines, newline, pad, extra_dim, override, chunk
):
    entries, dim = lines
    text = render(entries, newline, pad)
    with mock.patch.object(loss, "_CHUNK_LINES", chunk):
        rows, labels = parse_text(text, dim=dim + extra_dim if override else None)
        got = densify(rows), labels
    want = parse_libsvm_per_token(text, dim=dim + extra_dim if override else None)
    assert_same_arrays(got, want)
    assert set(np.unique(got[1])) <= {-1, 1}
    # The rows hold the parsed entries only.
    n_tokens = sum(len(e[1]) for e in entries if not isinstance(e, str))
    assert rows.indices.size == rows.data.size == n_tokens


@PROPERTY
@given(libsvm_lines(), st.integers(0, 3), st.booleans(), CHUNK_LINES, st.data())
def test_partition_of_parsed_rows_equals_the_dense_route_bitwise(
    lines, extra_dim, override, chunk, data
):
    # Comments, blanks, label-only rows and rows of unequal lengths come
    # from the strategy; each row is placed once from the sparse rows.
    # Rows with a non-finite value, which the parser accepts, are refused
    # by partition on both routes.
    entries, dim = lines
    n_rows = sum(not isinstance(e, str) for e in entries)
    if n_rows == 0:
        entries.append(["1", [], " "])
        n_rows = 1
    text = render(entries, "\n")
    n_agents = data.draw(st.integers(1, n_rows))
    per_agent = data.draw(st.integers(1, n_rows // n_agents))
    seed = data.draw(st.integers(0, 2**32 - 1))
    dim = dim + extra_dim if override else None
    bad = np.flatnonzero(~np.isfinite(parse_libsvm_per_token(text, dim=dim)[0]).all(axis=1))
    if bad.size:
        dense = csr_rows(*parse_libsvm_per_token(text, dim=dim))
        for rows in (parse_text(text, dim=dim), dense):
            with pytest.raises(ParameterError, match=rf"^row {bad[0]} \(0-based"):
                partition(rows, n_agents, per_agent, seed, 0.1)
        return
    with mock.patch.object(loss, "_CHUNK_LINES", chunk):
        got, got_test = partition(parse_text(text, dim=dim), n_agents, per_agent, seed, 0.1)
    block, labels, test_features, test_labels = parse_and_partition_dense(
        text, n_agents, per_agent, seed, dim=dim)
    assert got.shape[:2] == (n_agents, per_agent)
    assert_same_arrays((block_of(got), got.labels, got.lam),
                       (block, labels, np.full(n_agents, 0.1)))
    assert_same_arrays((dense_features(got_test), got_test.labels), (test_features, test_labels))


MUTATIONS = ("bad token", "zero index", "repeat index", "1:2:3", ":5", "5:",
             "bad label", "other label")


@PROPERTY
@given(libsvm_lines(), st.sampled_from(MUTATIONS), st.data(), CHUNK_LINES)
def test_parse_reports_the_first_error_like_the_per_token_parser(lines, mutation, data, chunk):
    entries, _ = lines
    data_lines = [k for k, e in enumerate(entries) if not isinstance(e, str)]
    if not data_lines:
        entries.append(["1", [], " "])
        data_lines = [len(entries) - 1]
    entry = entries[data.draw(st.sampled_from(data_lines))]
    tokens = entry[1] or ["1:1"]
    k = data.draw(st.integers(0, len(tokens) - 1))
    value = tokens[k].split(":")[1]
    if mutation == "bad label":
        entry[0] = data.draw(st.sampled_from(["x", "1:1", "3", "nan", "-2"]))
    elif mutation == "other label":
        entry[0] = data.draw(st.sampled_from(["-1", "0", "1", "2"]))
    elif mutation == "repeat index":
        tokens.insert(k, tokens[k])
    else:
        tokens[k] = {
            "bad token": "abc",
            "zero index": f"0:{value}",
            "1:2:3": "1:2:3",
            ":5": ":5",
            "5:": "5:",
        }[mutation]
    entry[1] = tokens
    text = render(entries, "\n")
    with mock.patch.object(loss, "_CHUNK_LINES", chunk):
        assert_same_outcome(text)


def test_parse_matches_per_token_parser_across_full_chunks():
    # About three chunks of one-hot rows, then the same file with one bad
    # token in the third chunk and another in the second.
    rng = np.random.default_rng(5)
    lines = []
    for k in range(3000):
        cols = np.sort(rng.choice(40, size=6, replace=False)) + 1
        lines.append(f"{rng.choice(['+1', '-1'])} " + " ".join(f"{c}:1" for c in cols))
    assert_same_outcome("\n".join(lines), dim=50)
    lines[2500] += " 3:x"
    lines[1500] = lines[1500].replace(":1", ":", 1)
    with pytest.raises(ParseError) as e:
        parse_text("\n".join(lines))
    assert e.value.line == 1501
    assert_same_outcome("\n".join(lines))


# (line, its error as (line number, message), or None).  The refused lines
# are those that str.splitlines and str.split read otherwise than LIBSVM's
# ASCII lines: non-ASCII text, and \v, \f, \x1c-\x1e or a lone \r as a
# line break.
TRICKY_LINES = [
    ("1 1 2:3:4", None),  # as many colons as tokens, and twice as many pieces
    ("1 5 1:2:3", None),
    ("1 4:1:2 3", None),
    ("1 1:2 :3 4:", None),
    ("1 1:1 2:2 2:3", None),
    ("1 3:1\n1 1:1 2:1 3:1\n1 2:0.5", None),  # indices restart on every line
    ("1 1_0:2 1_1:3e1_0", None),  # int and float accept underscores
    ("1 \u0661:2", (1, "non-ASCII byte 0xd9")),  # but no other Unicode digits
    ("1 1:inf 2:-nan", None),
    # 15, 16 and 17 significant digits.  Digits read into a double and
    # divided would miss 81.399717223787401 by one unit in the last place.
    ("1 1:0.123456789012345 2:-98765432109876.5 3:000123456789012345"
     " 4:0.1234567890123456 5:-9876543210987.654 6:1234567890123456"
     " 7:0.30000000000000004 8:-81.399717223787401 9:12345678901234567", None),
    # More than 22 digits after the dot, where 10**23 is no exact double.
    ("1 1:.00000000000000000049114 2:-.0000000000000000000054305", None),
    ("-1 1:1e-3 2:1E+2 3:.5 4:5. 5:+2.5 6:-0 7:-0.0 8:+0", None),  # -0 keeps its sign
    ("-1.0 1:1 2:.", None),
    ("+1 00012:1 00000000000000000013:2", None),  # the second index has 20 digits
    ("1\xa01:1\u30002:1 3:1\xa0", (1, "non-ASCII byte 0xc2")),
    ("1 1:1\x0b-1 2:1\x0c1 3:1\x1c-1 1:1\x85-1 2:1\u20281 3:1", (1, "non-ASCII byte 0xc2")),
    ("1 1:1\r\n\r-1 2:1\x1d\x1e1 3:1\u2029", (2, "non-ASCII byte 0xe2")),
    ("1 1:1\r\n-1 2:1\r\n1 3:x", (3, "bad feature token '3:x'")),  # \r\n ends one line
    ("1 1:1\u2028-1 2:1\x85 1 3:x", (1, "non-ASCII byte 0xe2")),
    ("1 1:1 2:\ud800", (1, "non-ASCII byte 0xed")),  # a lone surrogate in a str
    # \v, \f and \r separate tokens, and \x1c-\x1e are part of one.
    ("1 1:1\x0b2:1\x0c3:1\r\r\n-1\r1:2", None),
    ("1 1:1\x0b-1 2:1", (1, "bad feature token '-1'")),
    ("1 1:1\x0c-1 2:1", (1, "bad feature token '-1'")),
    ("1 1:1\r-1 2:1\r", (1, "bad feature token '-1'")),
    ("1 1:1\x1c-1 2:1", (1, "bad feature token '1:1\\x1c-1'")),
    ("1 1:1\x1d\x1e1 3:1", (1, "bad feature token '1:1\\x1d\\x1e1'")),
]


@pytest.mark.parametrize("line, error", TRICKY_LINES, ids=[line for line, _ in TRICKY_LINES])
def test_parse_matches_per_token_parser_on_tricky_lines(line, error):
    for chunk in (1, 2, 3, 1024):
        with mock.patch.object(loss, "_CHUNK_LINES", chunk):
            assert_same_outcome(line)
            assert_same_outcome("1 1:1\n" * 5 + line)
    if error is not None:
        assert outcome(parse_text, line) == (f"line {error[0]}: {error[1]}", error[0])


def test_parse_refuses_an_index_beyond_int64_like_the_per_token_parser():
    # 2**63 is the least index past int64; a huge negative index is not
    # 1-based first.
    for token in ("12345678901234567890:1", f"{2**63}:1", "-99999999999999999999:1"):
        text = f"1 1:1\n-1 2:1 {token}\n1 3:1"
        want = outcome(parse_libsvm_per_token, text)
        assert want[1] == 2
        assert outcome(parse_text, text) == want
    assert parse_text(f"1 1:1 {2**63 - 1}:1")[0].indices.tolist() == [0, 2**63 - 2]
    message = "line 1: feature token '9223372036854775808:1' has an index past int64"
    with pytest.raises(ParseError, match=message):
        parse_text(f"1 1:1 {2**63}:1")


@pytest.mark.parametrize(
    "data, line, byte",
    [
        (b"+1 1:1\n-1 2:1 \xff\n", 2, 0xFF),
        (b"\xff1 1:1\n", 1, 0xFF),
        (b"+1 1:1\n\xc3", 2, 0xC3),  # a byte that opens a line, and a cut-off character
        (b"+1 1:1\r\n-1 2:\xc3\xa9\r\r\x80", 2, 0xC3),  # valid UTF-8 before the bad byte
        (b"+1 1:1\xe2\x80\xa8-1 1:1\xc2\x85# \xed\xa0\x80", 1, 0xE2),  # U+2028 breaks no line
    ],
)
def test_parse_refuses_invalid_utf8_at_the_line_of_the_first_bad_byte(data, line, byte):
    # Bytes that are not UTF-8 are refused as every non-ASCII byte is: at
    # the first one, on its line counted by \n.
    with pytest.raises(ParseError) as e:
        parse_text(data)
    assert e.value.line == line
    assert str(e.value) == f"line {line}: non-ASCII byte {byte:#04x}"
    assert outcome(parse_libsvm_per_token, data) == (str(e.value), line)


@pytest.mark.parametrize(
    "text, line, byte",
    [
        ("1\xa01:1 2:1\n", 1, 0xC2),  # U+00A0 as a separator
        ("1 1:1\n-1 2:1\u20281 3:1\n", 2, 0xE2),  # U+2028 as a line break
        ("1 1:1\n1 1:x\n1 \u0661:2\n", 3, 0xD9),  # refused before any line is parsed
    ],
)
def test_parse_refuses_non_ascii_text_with_its_line_and_first_byte(text, line, byte):
    with pytest.raises(ParseError) as e:
        parse_text(text)
    assert str(e.value) == f"line {line}: non-ASCII byte {byte:#04x}"
    assert e.value.line == line
    assert outcome(parse_libsvm_per_token, text) == (str(e.value), line)


def test_parse_reads_a_path_and_names_it_in_its_error(tmp_path):
    path = tmp_path / "data.svm"
    path.write_text("+1 1:1\n-1 2:1\n")
    for source in (path, str(path)):
        rows, labels = parse_libsvm(source)
        assert labels.tolist() == [1, -1] and rows.shape == (2, 2)
    path.write_text("+1 1:1\n-1 2:x\n")
    with pytest.raises(ParseError, match=r"^line 2: bad feature token '2:x'$") as e:
        parse_libsvm(path)
    assert e.value.path == path
    # The file's text is a path that does not exist, and is never parsed.
    for text in ("+1 1:1\n-1 2:1\n", b"+1 1:1\n-1 2:1\n"):
        with pytest.raises((OSError, TypeError)):
            parse_libsvm(text)


@pytest.mark.parametrize("past", [False, True])
def test_parse_switches_its_index_buffer_to_int64_once_an_index_passes_int32(past):
    # One line a slice: the first two slices' entries are written into
    # the int32 buffer before the third one needs int64.
    lines = ["+1 2:0.5 7:1", "-1 1:2", "+1 3:-1 5:4"]
    if past:
        lines[2] += f" {2**31 + 5}:3"
    with mock.patch.object(loss, "_CHUNK_LINES", 1):
        rows, labels = parse_text("\n".join(lines))
    assert rows.indices.dtype == (np.int64 if past else np.int32)
    assert rows.indices.tolist() == [1, 6, 0, 2, 4] + [2**31 + 4] * past
    assert rows.data.tolist() == [0.5, 1.0, 2.0, -1.0, 4.0] + [3.0] * past
    assert rows.indptr.tolist() == [0, 2, 3, 5 + past]
    assert rows.shape == (3, 2**31 + 5 if past else 7)
    assert labels.tolist() == [1, -1, 1]


@pytest.mark.parametrize("edge", ["first", "last"])
@pytest.mark.parametrize("chunk", [1, 2, 3, 1024])
def test_parse_reports_an_error_on_a_slice_edge_like_the_per_token_parser(chunk, edge):
    lines = [f"{(-1) ** k} {k % 7 + 1}:0.5 9:{k}" for k in range(2 * chunk + 1)]
    # Line chunk + 1 opens the second slice and line 2 * chunk closes it.
    bad = chunk + 1 if edge == "first" else 2 * chunk
    lines[bad - 1] = lines[bad - 1].replace(":0.5", ":x")
    text = "\n".join(lines)
    with mock.patch.object(loss, "_CHUNK_LINES", chunk), pytest.raises(ParseError) as e:
        parse_text(text)
    assert e.value.line == bad
    assert outcome(parse_libsvm_per_token, text) == (str(e.value), bad)


@pytest.mark.parametrize("convert", [int, float])
def test_array_conversion_equals_int_and_float_at_its_boundaries(convert):
    fields = [
        "0", "7", "-0", "+0", "-7", "+12", "0000000000000012", "+000000000000012",
        "999999999999999", "-999999999999999", "1000000000000000",
        "9007199254740993", "-9007199254740993", "12345678901234567",
        "1.5", ".5", "1e3", "+", "-", "+-1", "1-", "1+1", "x", "1_0",
    ]
    text = " ".join(fields).encode()
    codes = np.frombuffer(text, dtype=np.uint8)
    end = np.cumsum([len(f) + 1 for f in fields]) - 1
    start = end - [len(f) for f in fields]
    accepted = []
    for k, f in enumerate(fields):
        one = start[k : k + 1], end[k : k + 1]
        try:
            want = convert(f)
        except ValueError:
            with pytest.raises(ValueError):
                loss._convert(codes, text, *one, convert)
            continue
        accepted.append(k)
        got = loss._convert(codes, text, *one, convert)
        assert got.tobytes() == np.array([want], dtype=got.dtype).tobytes(), f
    # The accepted fields at once, as one slice converts them.
    got = loss._convert(codes, text, start[accepted], end[accepted], convert)
    assert got.tolist() == [convert(fields[k]) for k in accepted]
    assert got.dtype == (np.int64 if convert is int else np.float64)


def test_tokens_are_separated_by_the_whitespace_of_bytes_split():
    spaces = [c for c in range(256) if bytes([c]).isspace()]
    assert sorted(loss._WHITESPACE) == spaces == [9, 10, 11, 12, 13, 32]
    assert np.flatnonzero(loss._SEPARATOR).tolist() == sorted([*spaces, ord(":")])
    # Each ASCII byte between two feature tokens: only whitespace other
    # than \n, which ends the line, keeps both.
    kept = []
    for c in range(128):
        text = b"1 1:1" + bytes([c]) + b"2:1"
        got = outcome(parse_text, text)
        assert_same_outcome(text)
        if not isinstance(got[0], str) and got[0].tolist() == [[1.0, 1.0]]:
            kept.append(c)
    assert kept == [9, 11, 12, 13, 32]


def one_hot_libsvm(rows, attributes, columns, seed):
    """Rows with one active column per attribute, each attribute owning a
    contiguous range of columns, as the a4a and mushrooms files do."""
    rng = np.random.default_rng(seed)
    edges = np.linspace(0, columns, attributes + 1).astype(int)
    cols = 1 + edges[:-1] + (rng.random((rows, attributes)) * np.diff(edges)).astype(int)
    labels = rng.choice(["+1", "-1"], size=rows)
    return "".join(
        f"{b} " + " ".join(f"{c}:1" for c in row) + "\n" for b, row in zip(labels, cols.tolist())
    )


@pytest.mark.parametrize(
    "rows, attributes, columns, n_agents, per_agent",
    [(4781, 14, 123, 20, 239), (8124, 22, 112, 10, 600), (9000, 14, 123, 200, 40)],
    ids=["a4a", "mushrooms", "scale200"],
)
def test_parse_and_partition_are_exact_and_peak_below_0_8x_the_matrix(
    rows, attributes, columns, n_agents, per_agent, tmp_path
):
    # The benchmark's file and split shapes.  Parsing to a dense matrix and
    # gathering the local block from it peaked at 2.03-2.04x that matrix;
    # writing a dense local block next to the sets' CSR operator, at
    # 1.41-1.68x.  With the operator and a CSR test set only, parse peaked
    # at 0.85 / 0.97 / 0.56x (a4a / mushrooms / scale200) while it gathered
    # each slice's entries and concatenated them.  Written into arrays
    # allocated once, parse peaked at 0.42 / 0.54 / 0.31x, with the file's
    # text read before the count began.  Partition, with the parsed rows
    # alive, peaked at 0.44 / 0.65 / 0.41x with scipy's row indexing and a
    # temporary of the agents' column offsets, and peaks at 0.40 / 0.65 /
    # 0.39x with Csr.take and the offsets added in place: at mushrooms the
    # parsed, local and test rows, alive together, set it.  The parse reads
    # the file itself, and with its text it peaks at 0.49 / 0.66 / 0.39x,
    # above partition at a4a and mushrooms.  The bounds leave 13% over the
    # highest.
    text = one_hot_libsvm(rows, attributes, columns, seed=rows)
    path = tmp_path / "data.svm"
    path.write_text(text)
    matrix = rows * columns * 8
    tracemalloc.start()
    try:
        parsed = parse_libsvm(path)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        local, test = partition(parsed, n_agents, per_agent, seed=1, lambda_reg=0.01)
        partition_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_arrays((densify(parsed[0]), parsed[1]), parse_libsvm_per_token(text))
    assert_same_arrays((block_of(local), local.labels, dense_features(test), test.labels),
                       parse_and_partition_dense(text, n_agents, per_agent, 1))
    assert isinstance(test.features, Csr)
    assert peak <= 0.75 * matrix
    assert max(peak, partition_peak) <= 0.8 * matrix


TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "source, rows, seed",
    [("a4a", 4781, 1), ("mushrooms", 8124, 2), ("a4a", 9000, 3), ("golden", None, None)],
)
def test_a_crlf_file_parses_bitwise_as_its_lf_copy(source, rows, seed, tmp_path):
    # The benchmark's files and the golden one-hot file, each written with
    # \n and then with \r\n: \r is whitespace, so the rows, shape and
    # labels are the same arrays.
    path = tmp_path / "lf.svm"
    if source == "golden":
        runpy.run_path(str(TESTS / "golden" / "make_golden.py"))["write_one_hot"](path)
    else:
        synth = runpy.run_path(str(TESTS.parent / "bench" / "synth.py"))
        synth["write_libsvm"](path, synth["SHAPES"][source], rows, seed)
    lf = path.read_bytes()
    assert b"\r" not in lf
    want, got = parse_text(lf), parse_text(lf.replace(b"\n", b"\r\n"))
    assert got[0].shape == want[0].shape
    assert_same_arrays((got[0].indptr, got[0].indices, got[0].data, got[1]),
                       (want[0].indptr, want[0].indices, want[0].data, want[1]))


@pytest.mark.parametrize(
    "labels, line, bad",
    [
        (["-1", "1", "0"], 3, "0.0"),
        (["0", "2"], 2, "2.0"),
        (["-1", "0", "1"], 2, "0.0"),
        (["1", "1", "2", "0"], 4, "0.0"),
        (["1", "5", "3"], 2, "5.0"),
    ],
)
def test_mixed_label_sets_name_the_first_label_that_fits_no_convention(labels, line, bad):
    text = "\n".join(f"{b} 1:1" for b in labels)
    with pytest.raises(ParseError) as e:
        parse_text(text)
    assert e.value.line == line
    assert str(e.value) == f"line {line}: unmappable label {bad}"
    assert outcome(parse_libsvm_per_token, text) == (str(e.value), line)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 1:1\n# comment\n-1 2:1\n0 1:1\n", "line 4: unmappable label 0.0"),
        ("1 1:1\n\n1 2:x\n", "line 3: bad feature token '2:x'"),
    ],
)
def test_cli_run_reports_a_bad_dataset_with_its_line_and_exit_code_1(
    tmp_path, capsys, text, message
):
    path = tmp_path / "bad.svm"
    path.write_text(text)
    code = main(["run", "--dataset", str(path), "--dim", "3", "--n-agents", "3",
                 "--per-agent", "1", "--batch-g", "1", "--batch-s", "1",
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------- partition


def test_partition_matches_the_sample_list_path_bitwise():
    for rows, labels in (
        csr_rows(*gaussian_blob_samples(130, 7, seed=3)),
        parse_text("\n".join(f"{(-1) ** k} {k % 5 + 1}:1 9:{k / 7!r}" for k in range(60))),
    ):
        feats = densify(rows)
        samples = [Sample(features=f, label=int(b)) for f, b in zip(feats, labels)]
        n, per_agent = 4, len(labels) // 5
        got, got_test = partition((rows, labels), n, per_agent, seed=11, lambda_reg=0.1)
        want_sets, want_test = partition_samples(samples, n, per_agent, 11, 0.1)
        assert got.shape[:2] == (len(want_sets), per_agent)
        for g, w in zip(agent_datasets(got), want_sets):
            assert_same_arrays((g.features, g.labels.astype(int)), (w.features, w.labels))
        assert_same_arrays((dense_features(got_test), got_test.labels),
                           (want_test.features, want_test.labels))
        # Dense and sparse rows alike are held as the sets' operator and a
        # CSR test set, neither sharing memory with the rows given.
        assert isinstance(got_test.features, Csr)
        assert not got.csr.data.flags.writeable
        assert not np.shares_memory(got.csr.data, rows.data)
        assert not np.shares_memory(got_test.features.data, rows.data)


@pytest.mark.parametrize("seed", [1, 7, 1024])
def test_partition_of_sparse_rows_builds_the_block_diagonal_operator(seed):
    # Rows of 0-3 stored entries over 10 columns, one of them an explicit
    # zero.
    rng = np.random.default_rng(seed)
    text = "".join(
        f"{(-1) ** k} " + " ".join(f"{c}:{v}" for c, v in zip(
            np.sort(rng.choice(np.arange(1, 11), k % 4, replace=False)), (k % 5, 1.5, -2))) + "\n"
        for k in range(50)
    )
    rows, labels = parse_text(text, dim=10)
    assert rows.indices.dtype == np.int32
    local, test = partition((rows, labels), 4, 10, seed=3, lambda_reg=0.1)
    block, want_labels, test_features, _ = parse_and_partition_dense(text, 4, 10, 3, dim=10)
    assert_same_arrays((block_of(local), local.labels, dense_features(test)),
                       (block, want_labels, test_features))
    A = local.csr
    assert isinstance(A, Csr) and A.shape == (40, 40)
    assert np.array_equal(densify(A), scipy.linalg.block_diag(*block))
    # Only the parsed entries of the local rows and of the test rows,
    # explicit zeros included.
    perm = np.random.default_rng(3).permutation(50)
    local_rows, test_rows = perm[:40], perm[40:]
    assert A.nnz == np.sum(rows.indptr[local_rows + 1] - rows.indptr[local_rows])
    assert isinstance(test.features, Csr) and test.features.shape == (10, 10)
    assert test.features.nnz == np.sum(rows.indptr[test_rows + 1] - rows.indptr[test_rows])
    assert not any(a.flags.writeable for a in (A.data, A.indices, A.indptr))
    # The products are scipy's, bitwise, with no transpose made.
    x, v = rng.standard_normal((4, 10)), rng.standard_normal((4, 10))
    assert np.array_equal(local.matvec(x), (scipy_csr(A) @ x.ravel()).reshape(4, 10))
    assert np.array_equal(local.csr.rmatvec(v.ravel()), scipy_csr(A).T @ v.ravel())
    # The products equal those of the dense block.
    want = dense_block(local, block)
    assert rel_err(local.matvec(x), want.matvec(x)) <= 1e-15
    assert rel_err(local.csr.rmatvec(v.ravel()), want.csr.rmatvec(v.ravel())) <= 1e-15


@pytest.mark.parametrize(
    "indices, indptr, refused_by, message",
    [
        ([0, 2, 2, 1], [0, 3, 4], "partition", "sorted column indices without duplicates"),
        ([2, 0, 1, 1], [0, 2, 4], "partition", "sorted column indices without duplicates"),
        ([1, 0], [0, 0, 2], "partition", "sorted column indices without duplicates"),
        ([0, 1, 2], [0, 4, 3], "Csr", "^row pointers must not decrease$"),
        ([0, 3], [0, 1, 2], "Csr", r"^column indices must lie in 0\.\.2, got 0\.\.3$"),
        ([-1, 0], [0, 1, 2], "Csr", r"^column indices must lie in 0\.\.2, got -1\.\.0$"),
    ],
    ids=["repeated", "unsorted", "unsorted-in-a-test-row", "decreasing-row-pointers",
         "column-past-d", "negative-column"],
)
def test_partition_refuses_malformed_sparse_rows(indices, indptr, refused_by, message):
    # Seed 0 puts row 0 in the local set and row 1 in the test set.
    # dense_rows writes each stored entry, while the operator's products
    # sum repeated entries: the two agree only on rows without them.
    # Pointers that decrease and columns outside 0..d-1, which would read
    # or write outside the arrays, never become a Csr.
    def rows():
        return Csr(np.array(indptr, np.int32), np.array(indices, np.int32),
                   np.ones(len(indices)), (2, 3))

    if refused_by == "Csr":
        with pytest.raises(ParameterError, match=message):
            rows()
        return
    with pytest.raises(ParameterError, match=message):
        partition((rows(), np.array([1, -1])), 1, 1, seed=0, lambda_reg=0.1)


@pytest.mark.parametrize("n_agents, per_agent", [(0, 5), (2, 0), (-1, -1)])
def test_partition_refuses_fewer_than_one_agent_or_sample(n_agents, per_agent):
    rows, labels = gaussian_blob_samples(12, 3, seed=0)
    message = f"^need agents and samples per agent, got {n_agents} x {per_agent}$"
    with pytest.raises(ParameterError, match=message):
        partition((Csr.from_dense(rows), labels), n_agents, per_agent, seed=0, lambda_reg=0.1)


@pytest.mark.parametrize("kind", ["ndarray", "csr_matrix"])
def test_partition_refuses_rows_that_are_not_a_csr_and_names_their_type(kind):
    rows, labels = gaussian_blob_samples(12, 3, seed=0)
    if kind == "csr_matrix":
        rows = scipy.sparse.csr_matrix(rows)
    with pytest.raises(ParameterError, match=f"^need the rows as a Csr, got {kind}$"):
        partition((rows, labels), 2, 5, seed=0, lambda_reg=0.1)


@pytest.mark.parametrize("dataset", ["synthetic", "libsvm"])
def test_load_data_hands_partition_csr_rows(dataset, tmp_path):
    # The loader alone decides the row type: synthetic rows become the Csr
    # of their nonzero entries, and a file's rows are parsed into one.
    config = experiment.ExperimentConfig(n_agents=3, per_agent=4, test_size=2, dim=5)
    if dataset == "libsvm":
        path = tmp_path / "data.svm"
        path.write_text("".join(f"{(-1) ** k} {k % 4 + 1}:1 5:{k / 3!r}\n" for k in range(14)))
        config = replace(config, dataset=str(path))
        want = densify(parse_libsvm(path, dim=5)[0])
    else:
        want = gaussian_blob_samples(14, 5, 7)[0]
    rows, labels = experiment._load_data(config, 7)
    assert isinstance(rows, Csr) and rows.shape == (14, 5) and labels.shape == (14,)
    assert np.array_equal(densify(rows), want)


@pytest.mark.parametrize("n_agents", [2, 3])
def test_partition_offsets_agent_columns_past_int32(n_agents):
    # N d >= 2**31 columns: the operator's indices are int64, and each
    # entry sits i d past its own column, with no dense array formed.
    d, per_agent = 2**30, 2
    n = n_agents * per_agent + 1
    cols = np.array([[0, 5], [7, d - 1]])[np.arange(n) % 2]
    ptr = np.arange(0, 2 * n + 1, 2)
    rows = Csr(ptr.astype(np.int32), cols.ravel().astype(np.int32), np.arange(1.0, 2 * n + 1),
               (n, d))
    local, test = partition((rows, np.ones(n)), n_agents, per_agent, seed=2, lambda_reg=0.1)
    A = local.csr
    assert A.shape == (n_agents * per_agent, n_agents * d) and local.shape[2] == d
    assert A.indices.dtype == A.indptr.dtype == np.int64
    perm = np.random.default_rng(2).permutation(n)
    for r, k in enumerate(perm[: n_agents * per_agent]):
        entries = slice(A.indptr[r], A.indptr[r + 1])
        assert A.indices[entries].tolist() == (r // per_agent * d + cols[k]).tolist()
        assert A.data[entries].tolist() == rows.data[ptr[k] : ptr[k + 1]].tolist()
    assert test.features.shape == (1, d)
    assert test.features.indices.tolist() == cols[perm[-1]].tolist()


def test_accuracy_reads_a_csr_test_set_as_the_dense_one():
    text = one_hot_libsvm(200, 3, 12, seed=6)
    _, sparse = partition(parse_text(text, dim=12), 4, 30, seed=2, lambda_reg=0.1)
    *_, features, labels = parse_and_partition_dense(text, 4, 30, 2, dim=12)
    assert isinstance(sparse.features, Csr)
    for x in np.random.default_rng(0).standard_normal((5, 12)):
        assert np.allclose(sparse.features @ x, features @ x, rtol=0, atol=1e-14)
        got = accuracy(x, sparse)
        want = np.mean(np.where(features @ x >= 0.0, 1, -1) == labels)
        assert type(got) is float and got.hex() == float(want).hex()


@pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
@pytest.mark.parametrize("row", [0, 4, 8])
def test_partition_refuses_parsed_rows_with_a_non_finite_value_and_names_the_row(value, row):
    # Seed 0 leaves rows 8 and 1 to the test set; the check covers them too.
    assert np.random.default_rng(0).permutation(10)[8:].tolist() == [8, 1]
    lines = [f"{(-1) ** k} 1:1 2:{k}" for k in range(10)]
    lines[row] = f"1 1:1 3:{value}"
    if row == 0:
        lines[7] = "-1 2:nan"  # only the first row is named
    parsed = parse_text("\n".join(lines), dim=3)
    assert not np.isfinite(parsed[0].data).all()  # the parser keeps what it was given
    with pytest.raises(ParameterError,
                       match=rf"^row {row} \(0-based, in data order\) has a non-finite"):
        partition(parsed, 2, 4, seed=0, lambda_reg=0.1)


def test_partition_refuses_a_dense_row_with_a_nan_and_names_it():
    rows, labels = gaussian_blob_samples(12, 3, seed=0)
    # In column-major memory row 7's bad value comes first; rows are named
    # in row order.
    rows = np.asfortranarray(rows)
    rows[5, 2] = np.nan
    rows[7, 0] = np.inf
    with pytest.raises(ParameterError, match=r"^row 5 \(0-based, in data order\) .* nan$"):
        partition(csr_rows(rows, labels), 2, 5, seed=0, lambda_reg=0.1)


def test_dense_rows_are_stored_as_the_csr_arrays_scipy_makes():
    # Zeros, negative zeros and an empty row, none of which csr_matrix stores.
    rows, _ = gaussian_blob_samples(40, 6, seed=1)
    rng = np.random.default_rng(1)
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[rng.random(rows.shape) < 0.1] = -0.0
    rows[3] = 0.0
    assert np.signbit(rows[rows == 0]).any()
    want = scipy.sparse.csr_matrix(rows)
    got = Csr.from_dense(rows)
    assert_same_arrays((got.data, got.indices, got.indptr),
                       (want.data, want.indices, want.indptr))


def test_cli_run_refuses_a_non_finite_value_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "nan.svm"
    path.write_text("1 1:1 3:nan\n-1 2:1\n1 1:1\n")
    code = main(["run", "--dataset", str(path), "--dim", "3", "--n-agents", "3",
                 "--per-agent", "1", "--batch-g", "1", "--batch-s", "1",
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "error: row 0 (0-based, in data order) has a non-finite feature value nan\n"
    )
    assert not (tmp_path / "out").exists()


def test_partition_of_a_dense_array_equals_that_of_its_csr_rows():
    # Four of ten columns set in every row, and Gaussian rows with every
    # entry set: a dense array becomes the CSR matrix of its nonzero
    # entries, so it gives the same operator and test set as those rows,
    # scipy's CSR arrays of the array.
    text = "".join(f"{(-1) ** k} 1:1 {k % 5 + 2}:1 8:2 10:1\n" for k in range(40))
    parsed, labels = parse_text(text)
    for dense, labels in ((densify(parsed), labels), gaussian_blob_samples(40, 6, seed=1)):
        got, got_test = partition(csr_rows(dense, labels), 3, 10, seed=4, lambda_reg=0.1)
        scipys = scipy.sparse.csr_matrix(dense)
        rows = Csr(scipys.indptr, scipys.indices, scipys.data, scipys.shape)
        want, want_test = partition((rows, labels), 3, 10, seed=4, lambda_reg=0.1)
        for a, b in ((got.csr, want.csr), (got_test.features, want_test.features)):
            assert isinstance(a, Csr) and isinstance(b, Csr)
            assert_same_arrays((a.data, a.indices, a.indptr), (b.data, b.indices, b.indptr))
        assert_same_arrays((got.labels, got.lam, got_test.labels),
                           (want.labels, want.lam, want_test.labels))
        assert np.array_equal(block_of(got).reshape(30, -1), dense[np.random.default_rng(4)
                                                                    .permutation(40)[:30]])


def test_build_problem_frees_the_parsed_matrix_before_the_reference_solve(tmp_path):
    path = tmp_path / "data.svm"
    path.write_text("\n".join(f"{(-1) ** k} {k % 3 + 1}:1 4:0.5" for k in range(30)))
    config = experiment.ExperimentConfig(dataset=str(path), dim=4, n_agents=3, per_agent=8)
    parsed, alive = [], []

    def parse(*args, **kwargs):
        out = parse_libsvm(*args, **kwargs)
        parsed.append(weakref.ref(out[0]))
        return out

    def solve(local):
        alive.append(parsed[0]() is not None)
        return reference.solve_reference(local)

    with mock.patch.object(experiment, "parse_libsvm", parse), \
            mock.patch.object(experiment, "solve_reference", solve):
        experiment.build_problem(config)
    assert alive == [False]


# ------------------------------------------------------------- reference and noise


def gaussian_sets(n, C, d, seed=0, lam=0.05):
    """``n`` local sets of ``C`` Gaussian rows, with regularizers ``lam``,
    ``2 lam`` and ``3 lam`` in turn."""
    feats, labels = gaussian_blob_samples(n * C, d, seed, separation=1.5, noise=0.7)
    lams = [lam * (1 + i % 3) for i in range(n)]
    return stack_sets(np.split(feats, n), np.split(labels, n), lams)


def one_hot_sets(d, seed=0, lam=0.05):
    """Four equal local sets of one-hot rows, from partition."""
    text = one_hot_libsvm(60, max(1, d // 4), d, seed)
    return partition(parse_text(text, dim=d), 4, 12, seed, lam)[0]


def local_sets(sizes, d, seed=0):
    return one_hot_sets(d, seed) if sizes == "one-hot" else gaussian_sets(*sizes, d, seed)


# (N, C) of sets of Gaussian rows, and one-hot sets from partition.
SIZES = [(4, 25), (3, 40), "one-hot"]


@pytest.mark.parametrize("sizes", SIZES)
def test_stacked_objective_gradient_and_hessian_match_per_agent_sums(sizes):
    local = local_sets(sizes, 6)
    datasets = agent_datasets(local)
    rng = np.random.default_rng(1)
    for x in (np.zeros(6), rng.standard_normal(6)):
        u = reference._margins(local, x)
        want = objective_per_agent(x, datasets)
        assert abs(reference._objective(local, x, u) - want) <= 1e-13 * abs(want)
        gradient = reference._local_gradients(local, x, u).sum(axis=0)
        assert rel_err(gradient, gradient_per_agent(x, datasets)) <= 1e-13
        # The Hessian is built in float32 (eps 1.2e-7): its rows, their
        # scaling and each run's products round there.
        assert rel_err(reference._hessian(local, u), hessian_per_agent(x, datasets)) <= 1e-6


@pytest.mark.parametrize("sizes", SIZES)
def test_solve_reference_matches_per_agent_newton(sizes):
    local = local_sets(sizes, 8, seed=2)
    sol = reference.solve_reference(local)
    want = newton_per_agent(agent_datasets(local))
    assert sol.grad_norm <= 1e-12
    assert np.max(np.abs(sol.x - want)) <= 1e-10
    assert rel_err(sol.x, want) <= 1e-12


def test_solve_reference_through_the_operator_matches_the_dense_block():
    local = one_hot_sets(12, seed=3)
    sparse = reference.solve_reference(local)
    dense = reference.solve_reference(dense_block(local))
    assert rel_err(sparse.x, dense.x) <= 1e-12
    assert rel_err(sparse.local_grads, dense.local_grads) <= 1e-12


def float64_hessians(local, calls):
    """Patch ``reference._hessian`` to the float64 oracle
    ``hessian_per_agent`` at the point whose margins ``reference._margins``
    returned, counting the builds in ``calls``."""
    datasets = agent_datasets(local)
    points = {}
    margins = reference._margins

    def remember(sets, x):
        u = margins(sets, x)
        points[id(u)] = (u, x)
        return u

    def hessian(sets, u):
        seen, x = points[id(u)]
        assert seen is u
        calls.append(x)
        return hessian_per_agent(x, datasets)

    return mock.patch.multiple(reference, _margins=remember, _hessian=hessian)


@pytest.mark.parametrize("lam", [1e-3, 1e-6])
def test_reference_solve_with_its_float32_hessian_keeps_the_float64_tolerance(lam):
    # a4a-shaped: 20 agents of 239 one-hot rows, 14 attributes over 123
    # columns, labelled +1 with probability sigmoid(a^T w) for a planted w,
    # so that the solve forms 4-5 Hessians.  The Hessian is only the metric
    # of a Newton step, and the float64 gradient test decides where the
    # solve stops.
    rows, _ = parse_text(one_hot_libsvm(20 * 239, 14, 123, seed=6), dim=123)
    rng = np.random.default_rng(6)
    logits = rows @ rng.standard_normal(123)
    labels = np.where(rng.random(rows.shape[0]) < 1.0 / (1.0 + np.exp(-logits)), 1.0, -1.0)
    local = partition((rows, labels), 20, 239, 6, lam)[0]
    tol = 1e-12
    got = reference.solve_reference(local, tol)
    calls = []
    with float64_hessians(local, calls):
        want = reference.solve_reference(local, tol)
    assert len(calls) == want.hessians > 0
    assert got.grad_norm <= tol and want.grad_norm <= tol
    assert (got.iterations, got.hessians) == (want.iterations, want.hessians)
    # Each x is within tol / sum(lam) of the optimum, by strong convexity.
    assert np.linalg.norm(got.x - want.x) <= 2 * tol / (len(local.lam) * lam)


@pytest.mark.parametrize("sizes", SIZES)
def test_sigma_sq_estimate_matches_per_agent_loop(sizes):
    local = local_sets(sizes, 5, seed=4)
    datasets = agent_datasets(local)
    x_star = newton_per_agent(datasets)
    probes = reference.probe_points(local, x_star)
    want = sigma_sq_per_agent(datasets, probes)
    assert abs(sigma_sq_estimate(local, probes) - want) <= 1e-12 * want
    assert abs(reference.estimate_sigma_sq(local, x_star) - want) <= 1e-12 * want


def reading_the_block(dense):
    """Serve every ``StackedSets.dense_rows`` from the dense block of the
    ``DenseBlockSets`` ``dense``: the set-up's dense route."""
    return mock.patch.object(StackedSets, "dense_rows", lambda self, *args: dense.dense_rows(*args))


@pytest.mark.parametrize("chunk", [1, 7, 1024])
@pytest.mark.parametrize("sizes", [(4, 20), "one-hot"], ids=["normal", "one-hot"])
def test_csr_sets_read_as_their_dense_block_bitwise_in_every_set_up_reader(sizes, chunk):
    # Sets of Gaussian rows, three of them empty, and from partition
    # (one-hot rows), against the same rows as a dense block, built without
    # the operator, and the sets read through that block.  Neither C (20,
    # 12) divides a chunk of 7 or 1024 rows.
    if sizes == "one-hot":
        text = one_hot_libsvm(60, 3, 12, seed=3)
        sets, _ = partition(parse_text(text, dim=12), 4, 12, 3, 0.05)
        block = parse_and_partition_dense(text, 4, 12, 3, dim=12)[0]
    else:
        n, C = sizes
        feats, labels = gaussian_blob_samples(n * C, 9, 5, separation=1.5, noise=0.7)
        feats[[0, C + 7, n * C - 1]] = 0.0  # the operator stores nothing of these
        sets = stack_sets(np.split(feats, n), np.split(labels, n),
                          [0.05 * (1 + i % 3) for i in range(n)])
        block = feats.reshape(sets.shape)
        assert np.diff(sets.csr.indptr).min() == 0
    dense = dense_block(sets, block)
    n, C, d = sets.shape
    assert block.shape == sets.shape and sets.dim == d
    stack = block.reshape(-1, d)
    # Row scales as the reference Hessian's, with a curvature weight that
    # underflowed to zero.
    scale = np.sqrt(np.random.default_rng(chunk).uniform(0.0, 0.25, (n, C)))
    scale[1, 2] = 0.0
    flat_scale = scale.reshape(-1)
    with mock.patch.object(loss, "READ_CHUNK_ROWS", chunk):
        # Any run of rows, written over whatever the buffer held: in
        # float64, and in float32 times the rows' scales, each entry and
        # its scale rounded to float32 and multiplied there.
        buffer = np.full((n * C, d), np.nan)
        buffer32 = np.full((n * C, d), np.nan, dtype=np.float32)
        last = n * C
        for start, stop in ((0, last), (0, 1), (C - 1, C + 2), (last - 3, last), (5, 5)):
            got = sets.dense_rows(start, stop, buffer[: stop - start])
            assert_same_arrays((got,), (stack[start:stop],))
            rows_scale = flat_scale[start:stop]
            got = sets.dense_rows(start, stop, buffer32[: stop - start], rows_scale)
            want = dense.dense_rows(start, stop, np.empty_like(got), rows_scale)
            assert_same_arrays((got, want), (np.multiply(stack[start:stop], rows_scale[:, None],
                                                         dtype=np.float32),) * 2)
        # Runs of whole agents, at most `chunk` rows or one agent each, in
        # float64 and in float32 with the scales.
        step = max(1, chunk // C)
        bounds = [(a, min(a + step, n)) for a in range(0, n, step)]
        for dtype, rows_scale in ((np.float64, None), (np.float32, scale)):
            runs = [(a, b, feats.copy()) for a, b, feats in sets.agent_chunks(dtype, rows_scale)]
            want_runs = [(a, b, feats.copy()) for a, b, feats in dense.agent_chunks(dtype,
                                                                                    rows_scale)]
            assert [(a, b) for a, b, _ in runs] == [(a, b) for a, b, _ in want_runs] == bounds
            for (a, b, got), (_, _, want) in zip(runs, want_runs):
                want_block = (block[a:b] if rows_scale is None else
                              np.multiply(block[a:b], scale[a:b, :, None], dtype=np.float32))
                assert_same_arrays((got, want), (want_block,) * 2)
        # The reference Hessian sums the float32 runs, whichever reads them.
        u = reference._margins(sets, np.linspace(-1.0, 1.0, d))
        assert_same_arrays((reference._hessian(sets, u),), (reference._hessian(dense, u),))
        # row_sq and the bounds: every row's squares summed in column
        # order, which the block's einsum matches on 0/1 rows.
        row_sq = np.array([[sum(v * v for v in row) for row in agent] for agent in block.tolist()])
        bounds = SmoothnessBounds.from_sets(sets)
        assert_same_arrays((sets.row_sq, bounds.m, bounds.M),
                           (row_sq, sets.lam, sets.lam + 0.25 * row_sq.max(axis=1)))
        if sizes == "one-hot":
            assert_same_arrays((sets.row_sq,), (np.einsum("ncd,ncd->nc", block, block),))
        # The Gram stack equals the whole block's.
        gram = block @ block.transpose(0, 2, 1)
        assert_same_arrays((optimizer.gram_stack(sets), optimizer.gram_stack(dense)), (gram,) * 2)
        # sigma^2 at given probes reads the rows through the runs only.
        probes = list(np.random.default_rng(chunk).standard_normal((3, d)))
        assert sigma_sq_estimate(sets, probes) == sigma_sq_estimate(dense, probes)
        # The reference solve and the noise probes also read the rows
        # through matvec and sets_grad, where the operator sums in another
        # order than the block; so they are held against the same sets
        # whose dense_rows serve the dense block.
        got = reference.solve_reference(sets)
        got_sigma = reference.estimate_sigma_sq(sets, got.x)
        with reading_the_block(dense):
            fresh = replace(sets)  # nothing cached
            want = reference.solve_reference(fresh)
            want_sigma = reference.estimate_sigma_sq(fresh, want.x)
    assert (got.iterations, got.hessians) == (want.iterations, want.hessians)
    assert_same_arrays((got.x, got.local_grads), (want.x, want.local_grads))
    assert got_sigma == want_sigma


# ------------------------------------------------------------- phase timers


def test_trace_summary_records_the_set_up_phases(tmp_path):
    config = experiment.ExperimentConfig(
        dim=4, n_agents=3, per_agent=20, test_size=10, batch_g=4, batch_s=4,
        max_iters=3, out=str(tmp_path),
    )
    result = experiment.run_experiment(config)
    summary = json.loads(result.trace_paths[0].read_text().splitlines()[-1])
    phases = ("data_s", "load_s", "reference_s", "certificate_s")
    assert summary["type"] == "summary"
    assert all(isinstance(summary[k], float) and summary[k] >= 0 for k in phases)
    assert set(result.problem.timings) == {"data_s", "load_s", "reference_s"}
