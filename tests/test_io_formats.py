import array
import csv
import io
import json
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tropfit.io_formats import (
    ModelRenderer,
    ParseError,
    PlotRenderer,
    _split_rows,
    load_dataset,
    load_matrix,
    load_vector,
    parse_dataset,
    parse_matrix,
    parse_vector,
    config_echo,
    write_dataset,
    write_json,
    write_matrix,
    write_model,
    write_plot_data,
    write_report,
    write_table,
    write_vector,
)
from tropfit import io_formats
from tropfit import _rows
from tropfit._rows import not_text, parse_cell
from tropfit.regression import Dataset, PwlModel
from tropfit.solver import FitProblem, greedy_sparse_solve

NEG = -np.inf

ext_values = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    st.just(math.inf),
    st.just(-math.inf),
)


class TestMatrixVector:
    def test_worked_matrix(self):
        got = parse_matrix("0,5,2\n4,1,0\n0,1,0")
        assert np.array_equal(got, [[0, 5, 2], [4, 1, 0], [0, 1, 0]])

    def test_single_bottom_cell(self):
        assert np.array_equal(parse_matrix("-inf"), [[NEG]])

    def test_inf_token_casings(self):
        got = parse_matrix("-inf,-Inf,-INF\ninf,Inf,+inf")
        assert np.isneginf(got[0]).all() and np.isposinf(got[1]).all()

    def test_header_checked(self):
        assert parse_matrix("# 2 2\n1,2\n3,4").shape == (2, 2)
        with pytest.raises(ParseError):
            parse_matrix("# 3 2\n1,2\n3,4")
        with pytest.raises(ParseError):
            parse_matrix("# nonsense\n1,2")

    def test_malformed_cell_position(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("1,x")
        assert exc.value.row == 1 and exc.value.col == 2

    def test_ragged_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("1,2\n3")

    def test_rejects_nan_and_overflow(self):
        with pytest.raises(ParseError):
            parse_matrix("nan")
        with pytest.raises(ParseError):
            parse_matrix("1e999")
        with pytest.raises(ParseError):
            parse_matrix("infinity")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("")
        with pytest.raises(ParseError):
            parse_matrix("# 1 1\n")

    def test_vector_both_layouts(self):
        assert np.array_equal(parse_vector("1\n2\n3"), [1, 2, 3])
        assert np.array_equal(parse_vector("1,2,3"), [1, 2, 3])
        with pytest.raises(ParseError):
            parse_vector("1,2\n3,4")

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(ext_values, min_size=1, max_size=4), min_size=1, max_size=4))
    def test_round_trip(self, rows):
        if len({len(r) for r in rows}) != 1:
            rows = [r[: min(len(r) for r in rows)] for r in rows]
        mat = np.array(rows, dtype=float)
        again = parse_matrix(write_matrix(mat))
        assert np.array_equal(mat, again)
        again2 = parse_matrix(write_matrix(mat, header=True))
        assert np.array_equal(mat, again2)

    def test_vector_round_trip_exact(self):
        v = np.array([0.1, -1e300, NEG, math.pi, 3.0])
        assert np.array_equal(parse_vector(write_vector(v)), v)

    def test_wide_first_row_then_ragged_is_a_parse_error(self):
        # the width is checked row by row before any rows x width array exists
        text = "0," * 10**6 + "0\n" + "0\n" * 10**6
        with pytest.raises(ParseError) as exc:
            parse_matrix(text)
        assert exc.value.row == 2


def per_cell_parse_matrix(text):
    """Reference parser: every cell through parse_cell, row by row."""
    lines, declared = _split_rows(text.splitlines())
    rows = []
    width = None
    for lineno, line in lines:
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(f"expected {width} cells, found {len(cells)}", lineno)
        rows.append([parse_cell(c, lineno, j + 1) for j, c in enumerate(cells)])
    mat = np.array(rows, dtype=np.float64)
    if declared is not None and declared != mat.shape:
        raise ParseError(f"header declares {declared[0]}x{declared[1]} but data is {mat.shape[0]}x{mat.shape[1]}")
    return mat


def per_cell_parse_dataset(text):
    """Reference dataset parser: every cell through parse_cell, as one (x | f) array."""
    lines = [(i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    while lines and lines[0][1].lstrip().startswith("#"):
        lines = lines[1:]
    if not lines:
        raise ParseError("empty document")
    try:
        [parse_cell(c, lines[0][0], j + 1) for j, c in enumerate(lines[0][1].split(","))]
    except ParseError:
        lines = lines[1:]
        if not lines:
            raise ParseError("dataset has a header but no rows") from None
    rows = []
    width = None
    for lineno, line in lines:
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if width < 2:
                raise ParseError("dataset needs at least one feature column and a target", lineno)
        elif len(cells) != width:
            raise ParseError(f"expected {width} cells, found {len(cells)}", lineno)
        vals = [parse_cell(c, lineno, j + 1) for j, c in enumerate(cells)]
        for j, v in enumerate(vals):
            if math.isinf(v):
                raise ParseError("dataset values must be finite", lineno, j + 1)
        rows.append(vals)
    return np.array(rows, dtype=np.float64)


def assert_dataset_parse_agrees(text):
    """parse_dataset gives the per-cell reference's values, or its error at its position."""
    try:
        ref = per_cell_parse_dataset(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_dataset(text)
        assert (str(got.value), got.value.row, got.value.col) == (str(exc), exc.row, exc.col)
    else:
        data = parse_dataset(text)
        got = np.column_stack([data.x, data.f])
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def inf_token(sign):
    word = st.sampled_from(["-inf"] if sign < 0 else ["inf", "+inf"])
    return word.flatmap(
        lambda w: st.lists(st.booleans(), min_size=len(w), max_size=len(w)).map(
            lambda up: "".join(c.upper() if u else c for c, u in zip(w, up))
        )
    )


finite_token = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda v: st.sampled_from([repr(v), "%.17g" % v])
)
padding = st.sampled_from(["", " ", "\t", "  \t "])
cell_token = st.tuples(
    padding, st.one_of(finite_token, inf_token(1), inf_token(-1)), padding
).map("".join)


@st.composite
def matrix_text(draw, cell=cell_token):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    rows = [",".join(draw(cell) for _ in range(n)) for _ in range(m)]
    if draw(st.booleans()):
        rows.insert(0, f"# {m} {n}")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(rows) + draw(st.sampled_from(["", end]))


class TestRowFastPath:
    @settings(max_examples=200, deadline=None)
    @given(matrix_text())
    def test_equals_per_cell_parse_bit_for_bit(self, text):
        got = parse_matrix(text)
        ref = per_cell_parse_matrix(text)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        assert_dataset_parse_agrees(text)

    @pytest.mark.parametrize(
        "text",
        [
            "1,nan\n2,3",
            "1,2\n3,Infinity",
            "1,-INFINITY",
            "1e400,2",
            "1,-1e400",
            "1,,2",
            "1, ,2",
            "1,2\n3",
            "1,2\n3,4,5",
            "1,2\n3,4\n5,x",
            "1,2\n3,4\n-inf,NaN",
            "# 2 2\n1,2\n3,4\n5,6",
        ],
    )
    def test_same_error_as_per_cell_parse(self, text):
        with pytest.raises(ParseError) as ref:
            per_cell_parse_matrix(text)
        with pytest.raises(ParseError) as got:
            parse_matrix(text)
        assert (str(got.value), got.value.row, got.value.col) == (
            str(ref.value),
            ref.value.row,
            ref.value.col,
        )
        assert_dataset_parse_agrees(text)

    @settings(max_examples=200, deadline=None)
    @given(
        matrix_text(
            st.one_of(
                cell_token,
                st.sampled_from(["nan", "-NaN", "Infinity", "1e400", "-1e999", "", " ", "x", "1,2"]),
            )
        )
    )
    def test_agrees_with_per_cell_parse_on_near_valid_input(self, text):
        try:
            ref = per_cell_parse_matrix(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_matrix(text)
            assert (str(got.value), got.value.row, got.value.col) == (str(exc), exc.row, exc.col)
        else:
            assert parse_matrix(text).tobytes() == ref.tobytes()
        assert_dataset_parse_agrees(text)


class TestDataset:
    def test_basic(self):
        d = parse_dataset("1,2,3\n4,5,6")
        assert d.dim == 2 and len(d) == 2
        assert np.array_equal(d.f, [3, 6])

    def test_header_skipped(self):
        d = parse_dataset("x,y,f\n1,2,3")
        assert len(d) == 1

    def test_rejects_infinite_values(self):
        with pytest.raises(ParseError):
            parse_dataset("1,inf\n2,3")

    def test_needs_two_columns(self):
        with pytest.raises(ParseError):
            parse_dataset("1\n2")

    def test_round_trip(self):
        d = Dataset(np.array([[1.5, -2.0], [0.25, 1e-8]]), np.array([3.0, -4.5]))
        again = parse_dataset(write_dataset(d))
        assert np.array_equal(d.x, again.x) and np.array_equal(d.f, again.f)

    def test_comment_lines_skipped(self):
        d = Dataset(np.array([[1.0], [2.0]]), np.array([3.0, 4.0]))
        text = write_dataset(d, comment='config: {"seed": 0}')
        assert text.startswith("# config")
        again = parse_dataset(text)
        assert np.array_equal(d.f, again.f)


# Every line boundary str.splitlines knows, and CR LF.
LINE_ENDS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
LOADERS = [(load_matrix, parse_matrix), (load_vector, parse_vector), (load_dataset, parse_dataset)]


@st.composite
def document_text(draw, ends=st.sampled_from(LINE_ENDS), max_lines=8):
    """CSV text on mixed line ends: rows of one width, mostly finite, with
    inf tokens, bad cells, ragged rows, blank lines and headers among them."""
    width = draw(st.integers(1, 4))
    cell = st.one_of(
        st.tuples(padding, finite_token, padding).map("".join),
        cell_token,
        st.sampled_from(["x", "nan", "", "1e400"]),
    )
    row = st.lists(cell, min_size=width, max_size=width).map(",".join)
    other = st.one_of(
        st.lists(cell, min_size=1, max_size=5).map(",".join),
        st.sampled_from(["", " ", "\t ", "#", "# comment", "x,y,f"]),
    )
    lines = draw(st.lists(st.one_of(row, row, row, other), max_size=max_lines))
    if draw(st.booleans()):
        lines.insert(0, f"# {len(lines)} {width}")
    ends = [draw(ends) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""  # no final newline
    return "".join(map(operator.add, lines, ends))


@st.composite
def damaged_bytes(draw, document=document_text()):
    """A document's UTF-8 bytes with a few random bytes put in somewhere."""
    raw = draw(document).encode()
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(st.binary(min_size=1, max_size=3)) + raw[at:]


def load_outcome(fn, arg):
    """A loader's or parser's value, bit for bit, or its ParseError with its position."""
    try:
        out = fn(arg)
    except ParseError as exc:
        return (str(exc), exc.row, exc.col)
    if isinstance(out, Dataset):
        return (out.x.shape, out.x.tobytes(), out.f.tobytes())
    return (out.shape, out.tobytes())


def expected_outcome(parse, raw):
    """The outcome of a load of the bytes ``raw``: ``parse`` of their text.

    For bytes that do not decode it is ``parse`` of the whole lines before
    the first bad byte, when that is a ParseError with a row, and otherwise
    the decode's ParseError with no position.
    """
    try:
        return load_outcome(parse, raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        lines = raw[: exc.start].decode("utf-8").splitlines(keepends=True)
        if lines and lines[-1].splitlines() == [lines[-1]]:
            lines.pop()  # the start of the bad byte's line
        try:
            parse("".join(lines))
        except ParseError as err:
            if err.row is not None:
                return (str(err), err.row, err.col)
        return (str(not_text(exc)), None, None)


def assert_loads_as_expected(path):
    """Each loader on ``path`` has expected_outcome of its parser on the file's bytes."""
    raw = path.read_bytes()
    for load, parse in LOADERS:
        assert load_outcome(load, path) == expected_outcome(parse, raw)


@pytest.fixture(scope="class")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders") / "doc.csv"


def table_file(path, end="\n"):
    """A 400x500 matrix, and its text with ``end`` after each row, which is written to ``path``."""
    A = np.random.default_rng(0).normal(size=(400, 500))
    text = write_matrix(A).replace("\n", end)
    path.write_text(text, newline="")
    return A, text


def traced_load(path):
    """load_matrix(path), and the peak of the memory that tracemalloc traced in it."""
    tracemalloc.start()
    try:
        got = load_matrix(path)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingLoaders:
    @settings(max_examples=300, deadline=None)
    @given(text=document_text())
    def test_load_equals_parse_of_the_file_text(self, doc_path, text):
        doc_path.write_bytes(text.encode("utf-8"))
        assert_loads_as_expected(doc_path)

    @settings(max_examples=200, deadline=None)
    @given(raw=st.one_of(st.binary(max_size=64), damaged_bytes()))
    def test_random_bytes_raise_only_parse_error(self, doc_path, raw):
        doc_path.write_bytes(raw)
        assert_loads_as_expected(doc_path)

    def test_truncated_last_character_before_a_bad_row(self, tmp_path):
        # the bad row comes before the lone lead byte, so it is raised
        path = tmp_path / "doc.csv"
        path.write_bytes(b"1,2\nx,y\n\xc2")
        assert_loads_as_expected(path)
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert (exc.value.row, exc.value.col) == (2, 1)

    @settings(max_examples=200, deadline=None)
    @given(raw=st.one_of(st.binary(max_size=64), damaged_bytes(), document_text().map(str.encode)), limit=st.integers(1, 5))
    def test_a_small_read_limit_changes_no_outcome(self, doc_path, raw, limit):
        # serially, and in ranges with no helper, so that every range is
        # read here, a few bytes at a time
        doc_path.write_bytes(raw)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_rows, "_BLOCK_BYTES", limit)
            patch.setattr(io_formats, "_RANGE_BYTES", 1)
            patch.setattr(io_formats, "_spawn", lambda *args: None)
            for cpus in (1, 8):
                patch.setattr(io_formats, "_usable_cpus", lambda: cpus)
                assert_loads_as_expected(doc_path)

    def test_bad_bytes_past_the_first_chunk(self, tmp_path):
        good = write_matrix(np.ones((4000, 3))).encode()
        path = tmp_path / "A.csv"
        path.write_bytes(good + b"1,\xff,1\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert (exc.value.row, exc.value.col) == (None, None)
        # the first error in file order is raised: a bad row before bad bytes
        path.write_bytes(b"1,x,1\n" + good + b"\xff\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert (exc.value.row, exc.value.col) == (1, 2)

    def test_a_load_holds_the_matrix_once(self, tmp_path):
        A, text = table_file(tmp_path / "A.csv")
        longest = max(map(len, text.splitlines()))
        got, peak = traced_load(tmp_path / "A.csv")
        assert got.tobytes() == A.tobytes()
        # the packed values, their growth slack, and a few lines' worth of
        # cells: no copy of the file's text
        assert peak <= 1.25 * A.nbytes + 8 * longest

    def test_a_cr_ended_load_holds_the_matrix_once(self, tmp_path):
        # no read finds a newline, and each ends after its last CR
        A, text = table_file(tmp_path / "A.csv", "\r")
        longest = max(map(len, text.splitlines()))
        got, peak = traced_load(tmp_path / "A.csv")
        assert got.tobytes() == A.tobytes()
        assert peak <= 1.25 * A.nbytes + 8 * longest

    def test_a_pipe_is_read_to_its_end(self):
        # it cannot seek, and its size reads 0
        text = "1,2\r3,inf\r\n\r5,6"
        read, write = os.pipe()
        with os.fdopen(write, "wb") as fh:
            fh.write(text.encode())
        assert load_outcome(load_matrix, read) == load_outcome(parse_matrix, text)

    def test_inputs_are_utf_8_in_any_locale(self, tmp_path):
        text = "# caf\u00e9 \u2028x,f\r\n1,2\u20283,4\x855,6\n"
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        code = (
            "import sys; from tropfit.io_formats import load_dataset; d = load_dataset(sys.argv[1]); "
            "sys.stdout.write(d.x.tobytes().hex() + ' ' + d.f.tobytes().hex())"
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(io_formats.__file__).resolve().parents[1]),
            "LC_ALL": "C",
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
        }
        out = subprocess.run(
            [sys.executable, "-c", code, str(path)], capture_output=True, text=True, check=True, env=env
        )
        want = parse_dataset(text)
        assert out.stdout.split() == [want.x.tobytes().hex(), want.f.tobytes().hex()]


# Line ends weighted to the newline byte that a range ends after, so that
# short documents are cut into several ranges.
RANGED_ENDS = st.sampled_from(["\n"] * 8 + ["\r\n"] * 3 + LINE_ENDS)


@pytest.fixture(scope="class")
def ranged():
    """Loads that cut every file of two bytes or more into up to eight ranges."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_formats, "_RANGE_BYTES", 1)
        patch.setattr(io_formats, "_usable_cpus", lambda: 8)
        yield


@pytest.mark.usefixtures("ranged")
class TestRangedLoaders:
    @settings(max_examples=100, deadline=None)
    @given(text=document_text(RANGED_ENDS, max_lines=16))
    def test_load_equals_parse_of_the_file_text(self, doc_path, text):
        doc_path.write_bytes(text.encode("utf-8"))
        assert_loads_as_expected(doc_path)

    @settings(max_examples=60, deadline=None)
    @given(raw=damaged_bytes(document_text(RANGED_ENDS, max_lines=16)))
    def test_random_bytes_raise_only_parse_error(self, doc_path, raw):
        doc_path.write_bytes(raw)
        assert_loads_as_expected(doc_path)


class Helpers(list):
    """The helper processes that loads started; ``argv`` maps the command
    each was asked to run to the one it runs."""

    @staticmethod
    def argv(command):
        return command


@pytest.fixture
def helpers(monkeypatch):
    """Every helper process started, with loads cutting a file into four ranges."""
    started = Helpers()

    class Recorded(subprocess.Popen):
        def __init__(self, args, **kwargs):
            super().__init__(started.argv(args), **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    monkeypatch.setattr(io_formats, "_RANGE_BYTES", 1)
    monkeypatch.setattr(io_formats, "_usable_cpus", lambda: 4)
    return started


# A helper that runs the row parser but sends only the first half of what it writes.
HALF_STREAM = """
import io, sys, types
sys.path.insert(0, sys.argv[1])
import _rows
stdout, sys.stdout = sys.stdout, types.SimpleNamespace(buffer=io.BytesIO())
_rows.main(sys.argv[2:])
sent = sys.stdout.buffer.getvalue()
stdout.buffer.write(sent[: len(sent) // 2])
"""
FAILED_HELPERS = {
    "exits 1": lambda command: [command[0], "-c", "raise SystemExit(1)"],
    "writes half a stream": lambda command: [command[0], "-c", HALF_STREAM, os.path.dirname(command[3]), *command[4:]],
    "cannot start": lambda command: [os.devnull, *command[1:]],
    # as a helper that is handed /dev/stdin but has no such standard input
    "reads another file": lambda command: [*command[:4], os.devnull, *command[5:]],
}


def table_text(rows=40, width=6, bad=()):
    """A matrix's text, with an unparsable cell at each 1-based row in ``bad``."""
    lines = write_matrix(np.random.default_rng(rows).normal(size=(rows, width))).splitlines()
    for row in bad:
        lines[row - 1] = ",".join(["x", *lines[row - 1].split(",")[1:]])
    return "\n".join(lines) + "\n"


class TestRangedLoadHelpers:
    @pytest.mark.parametrize("bad", [(), (2,), (38,), (20, 38)], ids=["clean", "first range", "helper", "two helpers"])
    def test_every_helper_has_exited_when_a_load_returns(self, tmp_path, helpers, bad):
        path = tmp_path / "A.csv"
        path.write_text(table_text(bad=bad))
        for load, parse in LOADERS[::2]:  # the table as a matrix and a dataset
            assert load_outcome(load, path) == load_outcome(parse, path.read_text())
        assert len(helpers) == 6
        assert all(helper.returncode is not None for helper in helpers)

    def test_a_helper_checks_rows_against_the_first_rows_width(self, tmp_path, helpers):
        # the first row is over a third of the file, so this process parses
        # it alone, and each helper's range starts with a narrow row
        narrow = table_text(30, 5)
        path = tmp_path / "A.csv"
        path.write_text("1,2,3,4,5," + "6".ljust(len(narrow)) + "\n" + narrow)
        for load, parse in LOADERS[::2]:
            assert load_outcome(load, path) == load_outcome(parse, path.read_text())
        with pytest.raises(ParseError, match="expected 6 cells, found 5 at row 2$"):
            load_matrix(path)
        assert helpers and all(helper.returncode is not None for helper in helpers)

    def test_an_interrupted_load_reaps_every_helper(self, tmp_path, helpers, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        path = tmp_path / "A.csv"
        path.write_text(table_text())
        monkeypatch.setattr(io_formats._rows, "parse_table", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_matrix(path)
        assert len(helpers) == 3
        assert all(helper.returncode is not None for helper in helpers)

    @pytest.mark.parametrize("bad", [(), (38,)], ids=["clean", "helper"])
    @pytest.mark.parametrize("failure", sorted(FAILED_HELPERS))
    def test_a_failed_helper_range_is_parsed_here(self, tmp_path, helpers, failure, bad):
        helpers.argv = FAILED_HELPERS[failure]
        path = tmp_path / "A.csv"
        path.write_text(table_text(bad=bad))
        assert load_outcome(load_matrix, path) == load_outcome(parse_matrix, path.read_text())
        assert all(helper.returncode is not None for helper in helpers)
        if failure != "cannot start":
            assert len(helpers) == 3

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_a_file_given_as_standard_input_loads_whole(self, tmp_path):
        # this process finds a regular file there and cuts it; each helper
        # finds its own standard input, which is not that file
        path = tmp_path / "A.csv"
        path.write_text(table_text())
        code = (
            "import sys; from tropfit import io_formats as f; f._RANGE_BYTES = 1; f._usable_cpus = lambda: 4; "
            "sys.stdout.write(f.load_matrix('/dev/stdin').tobytes().hex())"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(io_formats.__file__).resolve().parents[1])}
        with path.open("rb") as stdin:
            out = subprocess.run(
                [sys.executable, "-c", code], stdin=stdin, capture_output=True, text=True, check=True, env=env
            )
        assert bytes.fromhex(out.stdout) == parse_matrix(path.read_text()).tobytes()

    def test_a_bad_row_before_a_truncated_last_character(self, tmp_path, helpers, monkeypatch):
        # each line is decoded as it is parsed, so the bad row, first in the
        # file, is raised, serially as in ranges
        path = tmp_path / "A.csv"
        for raw, bad in [(table_text(bad=(38,)).encode(), (38, 1)), (b"1,2\nx,y\n", (2, 1))]:
            path.write_bytes(raw + b"\xc2")
            for cpus in (4, 1):
                monkeypatch.setattr(io_formats, "_usable_cpus", lambda: cpus)
                with pytest.raises(ParseError) as exc:
                    load_matrix(path)
                assert (exc.value.reason, exc.value.row, exc.value.col) == ("cannot parse cell 'x'", *bad)
        assert len(helpers) == 3 + 2

    @staticmethod
    def run_helper(path, start, width):
        """The exit status and standard output of a helper for the rows of
        ``path`` from byte ``start`` to its end."""
        st = path.stat()
        args = [path, start, st.st_size, width, 0, st.st_dev, st.st_ino, st.st_size]
        out = subprocess.run(
            [sys.executable, "-I", "-S", _rows.__file__, *map(str, args)], stdin=subprocess.DEVNULL, capture_output=True
        )
        return out.returncode, out.stdout

    def test_a_helper_sends_its_ranges_values(self, tmp_path):
        text = table_text()
        path = tmp_path / "A.csv"
        path.write_text(text)
        start = len("".join(text.splitlines(keepends=True)[:20]))
        values = array.array("d")
        with path.open("rb") as fh:
            lines = _rows.parse_range(fh, start, path.stat().st_size, 6, False, values)
        assert (lines, len(values)) == (20, 120)
        assert self.run_helper(path, start, 6) == (0, _rows.HEAD.pack(lines, len(values)) + values.tobytes())

    @pytest.mark.parametrize("damage", [b"x,", b"\xff"], ids=["bad row", "bad bytes"])
    def test_a_helper_that_finds_an_error_sends_nothing(self, tmp_path, damage):
        # it exits 1 like any failed helper, and the loading process parses
        # its range and raises the error
        rows = table_text().encode().splitlines(keepends=True)
        rows[29] = damage + rows[29]
        path = tmp_path / "A.csv"
        path.write_bytes(b"".join(rows))
        start = len(b"".join(rows[:20]))
        with path.open("rb") as fh, pytest.raises(ParseError):
            _rows.parse_range(fh, start, path.stat().st_size, 6, False, array.array("d"))
        assert self.run_helper(path, start, 6) == (1, b"")

    def test_a_long_column_loads_as_a_vector(self, tmp_path, helpers):
        path = tmp_path / "b.csv"
        path.write_text(table_text(rows=50, width=1, bad=(45,)))
        assert load_outcome(load_vector, path) == load_outcome(parse_vector, path.read_text())
        path.write_text(table_text(rows=50, width=1))
        assert load_outcome(load_vector, path) == load_outcome(parse_vector, path.read_text())
        assert len(helpers) == 6 and all(helper.returncode is not None for helper in helpers)

    def test_one_cpu_or_a_small_file_starts_no_helper(self, tmp_path, helpers, monkeypatch):
        path = tmp_path / "A.csv"
        path.write_text(table_text())
        monkeypatch.setattr(io_formats, "_usable_cpus", lambda: 1)
        for load, parse in LOADERS[::2]:
            assert load_outcome(load, path) == load_outcome(parse, path.read_text())
        monkeypatch.setattr(io_formats, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(io_formats, "_RANGE_BYTES", path.stat().st_size // 2 + 1)
        for load, parse in LOADERS[::2]:
            assert load_outcome(load, path) == load_outcome(parse, path.read_text())
        assert helpers == []

    def test_more_usable_cpus_than_eight_cut_eight_ranges(self, tmp_path, monkeypatch):
        path = tmp_path / "A.csv"
        path.write_text(table_text())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
        monkeypatch.setattr(io_formats, "_RANGE_BYTES", 1)
        assert io_formats._usable_cpus() == 8
        with path.open("rb") as fh:
            bounds = io_formats._bounds(fh)
        assert len(bounds) == 9 and bounds == sorted(set(bounds))
        assert (bounds[0], bounds[-1]) == (0, path.stat().st_size)

    def test_a_file_given_as_a_descriptor_starts_no_helper(self, tmp_path, helpers):
        # it has no name that a helper could open
        path = tmp_path / "A.csv"
        path.write_text(table_text())
        assert load_outcome(load_matrix, os.open(path, os.O_RDONLY)) == load_outcome(parse_matrix, path.read_text())
        assert helpers == []

    def test_a_ranged_load_holds_the_matrix_once(self, tmp_path, helpers):
        A, text = table_file(tmp_path / "A.csv")
        longest = max(map(len, text.splitlines()))
        got, peak = traced_load(tmp_path / "A.csv")
        assert got.tobytes() == A.tobytes()
        assert len(helpers) == 3
        # as test_a_load_holds_the_matrix_once: the helpers' values arrive
        # a pipe's worth at a time
        assert peak <= 1.25 * A.nbytes + 8 * longest


# Reference serializers: each writer's own formula, which the shared row
# writer must reproduce byte for byte.
def reference_cell(v):
    v = float(v)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return repr(v)


def reference_write_matrix(mat, header=False):
    mat = np.asarray(mat, dtype=np.float64)
    out = []
    if header:
        out.append(f"# {mat.shape[0]} {mat.shape[1]}")
    out.extend(",".join(reference_cell(v) for v in row) for row in mat)
    return "\n".join(out) + "\n"


def reference_write_vector(vec):
    vec = np.asarray(vec, dtype=np.float64)
    return "\n".join(reference_cell(v) for v in vec) + "\n"


def reference_write_dataset(data, comment=None):
    rows = np.column_stack([data.x, data.f])
    head = f"# {comment}\n" if comment else ""
    return head + "\n".join(",".join(reference_cell(v) for v in row) for row in rows) + "\n"


def reference_write_plot_data(data, predicted, comment=None):
    predicted = np.asarray(predicted, dtype=np.float64)
    rows = np.column_stack([data.x, data.f, predicted])
    head = f"# {comment}\n" if comment else ""
    return head + "\n".join(",".join(reference_cell(v) for v in row) for row in rows) + "\n"


def reference_write_table(header, rows, comment=None):
    # csv.writer, as tables were first written, with bare newlines for its "\r\n"
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# The JSON writer's first formula: every float at any depth of dicts, lists
# and tuples as itself or its inf token, an array as its nested list, then
# json.dumps, whose indented layout runs on the pure-Python encoder.
def reference_json_value(val):
    if isinstance(val, dict):
        return {key: reference_json_value(v) for key, v in val.items()}
    if isinstance(val, (list, tuple)):
        return [reference_json_value(v) for v in val]
    if isinstance(val, np.ndarray):
        return reference_json_value(val.tolist())
    if isinstance(val, float) and math.isinf(val):
        return "inf" if val > 0 else "-inf"
    return val


def reference_dumps(doc, indent=None):
    return json.dumps(reference_json_value(doc), indent=indent, allow_nan=False)


def reference_write_json(doc):
    return reference_dumps(doc, indent=2) + "\n"


def reference_write_model(m):
    doc = {
        "dim": m.dim,
        "slopes": m.slopes.tolist(),
        "intercepts": m.intercepts.tolist(),
        "p": m.p,
        "theta": m.theta,
        "estimator": m.estimator,
        "errors": {"rms": m.rms, "max_abs": m.max_abs},
        "support": m.support_size,
    }
    return reference_write_json(doc)


EDGE_FINITE = [0.0, -0.0, 5e-324, -5e-324, 2.225e-309, 1e308, -1e308, 1.7976931348623157e308, 0.1]
finite_cells = st.one_of(st.sampled_from(EDGE_FINITE), st.floats(allow_nan=False, allow_infinity=False))
extended_cells = st.one_of(finite_cells, st.sampled_from([math.inf, -math.inf]))
comments = st.one_of(st.none(), st.just(""), st.just('config: {"p_list": ["inf", 1.0]}'), st.text(max_size=12))


def finite_matrix(rows, cols):
    return hnp.arrays(np.float64, (rows, cols), elements=finite_cells)


@st.composite
def datasets(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    return Dataset(draw(finite_matrix(m, n)), draw(finite_matrix(m, 1))[:, 0])


class TestOneRowWriter:
    @settings(max_examples=150, deadline=None)
    @given(
        hnp.arrays(
            np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4), elements=extended_cells
        ),
        st.booleans(),
    )
    def test_matrix_bytes(self, mat, header):
        assert write_matrix(mat, header=header) == reference_write_matrix(mat, header=header)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 6), elements=extended_cells))
    def test_vector_bytes(self, vec):
        assert write_vector(vec) == reference_write_vector(vec)

    @settings(max_examples=100, deadline=None)
    @given(datasets(), comments)
    def test_dataset_bytes(self, data, comment):
        assert write_dataset(data, comment) == reference_write_dataset(data, comment)

    @settings(max_examples=100, deadline=None)
    @given(datasets(), comments, st.data())
    def test_plot_data_bytes(self, data, comment, draw):
        predicted = draw.draw(hnp.arrays(np.float64, len(data), elements=extended_cells))
        assert write_plot_data(data, predicted, comment) == reference_write_plot_data(data, predicted, comment)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 5), comments, st.data())
    def test_table_bytes(self, width, comment, draw):
        # two columns at least: csv.writer quotes a lone empty cell as ""
        names = st.sampled_from(["p", "theta", "rms", "support", "infeasible"])
        cells = st.one_of(extended_cells, st.integers(), st.booleans(), st.none())
        header = draw.draw(st.lists(names, min_size=width, max_size=width))
        rows = draw.draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=4))
        assert write_table(header, rows, comment) == reference_write_table(header, rows, comment)


# text a JSON token must escape, or that spells a float token if unquoted
json_text = st.one_of(
    st.sampled_from([", ", "\n", '"', "Infinity", "-Infinity", "NaN", "inf", "é ☃ 𝄞", "%s", ""]),
    st.text(max_size=6),
)


def json_docs(nan=False):
    floats = st.one_of(extended_cells, st.just(math.nan)) if nan else extended_cells
    arrays = hnp.arrays(
        np.float64,
        st.one_of(st.tuples(st.integers(0, 4)), st.tuples(st.integers(0, 4), st.integers(0, 3))),
        elements=floats,
    )
    scalars = st.one_of(floats, st.integers(-(2**70), 2**70), st.booleans(), st.none(), json_text)
    return st.recursive(
        st.one_of(scalars, arrays),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(json_text, children, max_size=4),
        ),
        max_leaves=16,
    )


class TestOneJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(json_docs())
    def test_json_and_config_echo_bytes(self, doc):
        assert write_json(doc) == reference_write_json(doc)
        assert config_echo(doc) == "config: " + reference_dumps(doc)

    @settings(max_examples=200, deadline=None)
    @given(json_docs(nan=True))
    def test_nan_anywhere_raises_on_both_sides(self, doc):
        try:
            want = reference_write_json(doc), "config: " + reference_dumps(doc)
        except ValueError:
            with pytest.raises(ValueError):
                write_json(doc)
            with pytest.raises(ValueError):
                config_echo(doc)
            return
        assert (write_json(doc), config_echo(doc)) == want


def cased(word):
    return st.tuples(*[st.sampled_from([c.lower(), c.upper()]) for c in word]).map("".join)


blanks = st.sampled_from(["", " ", "  ", "\t", " \t"])
inf_tokens = st.builds(
    lambda left, word, right: left + word + right,
    blanks,
    st.one_of(cased("inf"), cased("-inf"), cased("+inf")),
    blanks,
)


class TestOneInfDecoder:
    @settings(max_examples=200, deadline=None)
    @given(inf_tokens)
    def test_every_inf_token_decodes_to_its_infinity(self, token):
        want = -math.inf if token.strip().startswith("-") else math.inf
        assert parse_cell(token, 1, 1) == want

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=" \t+-.0123456789eEiInNfFtyY", max_size=8))
    def test_no_other_text_decodes_to_an_infinity(self, text):
        try:
            cell_value = parse_cell(text, 1, 1)
        except ParseError:
            cell_value = None
        if cell_value is not None and math.isinf(cell_value):
            token = text.strip().lower()
            assert token in ("inf", "+inf", "-inf")
            assert cell_value == (-math.inf if token == "-inf" else math.inf)


def sample_model(**kw):
    defaults = dict(
        slopes=np.array([[1.0, 2.0], [0.0, -1.0], [3.5, 0.25]]),
        intercepts=np.array([0.5, NEG, -2.0]),
        p=2.0,
        theta=0.75,
        estimator="smmae",
        rms=0.125,
        max_abs=0.5,
    )
    defaults.update(kw)
    return PwlModel(**defaults)


class TestModelJson:
    def test_round_trip_with_pruned_region(self, read_model):
        m = sample_model()
        again = read_model(write_model(m))
        assert np.array_equal(m.slopes, again.slopes)
        assert np.array_equal(m.intercepts, again.intercepts)
        assert (m.p, m.theta, m.estimator) == (again.p, again.theta, again.estimator)
        assert (m.rms, m.max_abs) == (again.rms, again.max_abs)

    def test_infinite_p_round_trips(self, read_model):
        m = sample_model(p=math.inf)
        assert read_model(write_model(m)).p == math.inf

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_model_that_constructs_round_trips(self, read_model, draw):
        pieces, dim = draw.draw(st.integers(1, 4)), draw.draw(st.integers(1, 3))
        extended = st.one_of(st.floats(allow_nan=False), st.sampled_from([math.inf, -math.inf]))
        m = PwlModel(
            slopes=draw.draw(finite_matrix(pieces, dim)),
            intercepts=draw.draw(hnp.arrays(np.float64, pieces, elements=st.one_of(extended_cells, st.just(NEG)))),
            p=draw.draw(st.one_of(st.integers(1, 200), extended)),
            theta=draw.draw(st.one_of(st.integers(0, 10), extended)),
            estimator=draw.draw(st.sampled_from(["sgle", "smmae"])),
            rms=draw.draw(st.one_of(st.none(), extended)),
            max_abs=draw.draw(st.one_of(st.none(), extended)),
        )
        text = write_model(m)
        assert text == reference_write_model(m)

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(text, parse_constant=refuse)
        assert type(m.p) is float and type(m.theta) is float
        assert all(type(doc[key]) in (float, str) for key in ("p", "theta"))  # an int p is written as 1.0
        again = read_model(text)
        assert again.slopes.tobytes() == m.slopes.tobytes()
        assert again.intercepts.tobytes() == m.intercepts.tobytes()
        assert (again.p, again.theta, again.estimator) == (m.p, m.theta, m.estimator)
        assert (again.rms, again.max_abs) == (m.rms, m.max_abs)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_one_renderer_writes_many_models_on_one_slope_set(self, draw):
        pieces, dim = draw.draw(st.integers(1, 4)), draw.draw(st.integers(1, 3))
        slopes = draw.draw(finite_matrix(pieces, dim))
        render = ModelRenderer(slopes)
        extended = st.one_of(st.none(), extended_cells)
        intercepts = st.one_of(
            hnp.arrays(np.float64, pieces, elements=st.one_of(extended_cells, st.just(NEG))),
            st.just(np.full(pieces, NEG)),
        )
        for _ in range(draw.draw(st.integers(1, 6))):
            m = PwlModel(
                # the renderer's own array, or a copy with the same bits
                slopes=slopes if draw.draw(st.booleans()) else slopes.copy(),
                intercepts=draw.draw(intercepts),
                p=draw.draw(st.one_of(st.integers(1, 200), extended_cells)),
                theta=draw.draw(extended_cells),
                estimator=draw.draw(st.sampled_from(["sgle", "smmae"])),
                rms=draw.draw(extended),
                max_abs=draw.draw(extended),
            )
            assert render(m) == reference_write_model(m)
            assert write_model(m) == reference_write_model(m)

    def test_a_model_on_other_slopes_is_refused(self):
        slopes = np.array([[1.0, 0.0], [5e-324, 1e308]])
        render = ModelRenderer(slopes)
        assert render(sample_model(slopes=slopes, intercepts=[0.0, NEG])) == reference_write_model(
            sample_model(slopes=slopes, intercepts=[0.0, NEG])
        )
        others = [
            np.array([[1.0, -0.0], [5e-324, 1e308]]),  # equal values, other bits
            np.array([[1.0, 0.0], [0.0, 1e308]]),
            np.array([[1.0, 0.0], [5e-324, 1e308], [2.0, 2.0]]),
            np.array([[1.0], [0.0]]),
        ]
        for other in others:
            with pytest.raises(ValueError, match="slopes"):
                render(sample_model(slopes=other, intercepts=np.zeros(other.shape[0])))


class TestReportJson:
    def test_round_trip(self):
        A = np.array([[0.0, 5, 2], [4, 1, 0], [0, 1, 0]])
        sol = greedy_sparse_solve(FitProblem(A, np.array([3.0, 1, 0]), p=1, theta=1.0))
        text = write_report(sol, config={"command": "solve", "p": 1.0})
        doc = json.loads(text)
        assert doc["support"] == [2, 0]
        assert doc["error_p"] == 1.0
        assert doc["infeasible"] is False
        assert doc["config"] == {"command": "solve", "p": 1.0}

    def test_infeasible_report(self):
        doc = json.loads(write_report(None))
        assert doc["infeasible"] is True and doc["support"] == []

    def test_infeasible_report_keeps_full_support_error(self):
        doc = json.loads(write_report(None, full_support_error=math.inf))
        assert float(doc["full_support_error"]) == math.inf


class TestPlotRenderer:
    @settings(max_examples=100, deadline=None)
    @given(datasets(), comments, st.data())
    def test_one_renderer_writes_many_models_on_one_dataset(self, data, comment, draw):
        render = PlotRenderer(data, comment)
        for _ in range(draw.draw(st.integers(1, 5))):
            predicted = draw.draw(hnp.arrays(np.float64, len(data), elements=extended_cells))
            want = reference_write_plot_data(data, predicted, comment)
            assert render(predicted) == want
            assert write_plot_data(data, predicted, comment) == want

    def test_a_value_count_other_than_the_points_is_refused(self):
        render = PlotRenderer(Dataset(np.array([[1.0], [2.0]]), np.array([3.0, 4.0])))
        for predicted in ([1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(ValueError, match="2 points"):
                render(predicted)


def test_plot_data_columns():
    d = Dataset(np.array([[1.0], [2.0]]), np.array([3.0, 4.0]))
    text = write_plot_data(d, [2.5, 4.0])
    rows = [line.split(",") for line in text.strip().splitlines()]
    assert [float(c) for c in rows[0]] == [1.0, 3.0, 2.5]


PARSERS = {
    "matrix": parse_matrix,
    "vector": parse_vector,
    "dataset": parse_dataset,
}


class TestFuzz:
    def test_mutations_never_crash(self):
        # a smaller sibling of the acceptance-scale fuzz run
        rng = np.random.default_rng(0)
        seeds = {
            "matrix": write_matrix(np.array([[1.0, NEG], [2.5, math.inf]]), header=True),
            "vector": write_vector(np.array([1.0, -2.0, NEG])),
            "dataset": write_dataset(Dataset(np.array([[1.0], [2.0]]), np.array([0.5, 1.5]))),
        }
        alphabet = b"0123456789.,-+einf{}[]\"\n #"
        for _ in range(3000):
            kind = list(seeds)[rng.integers(len(seeds))]
            raw = bytearray(seeds[kind].encode())
            for _ in range(rng.integers(1, 4)):
                op = rng.integers(3)
                pos = rng.integers(max(len(raw), 1))
                if op == 0 and raw:
                    raw[pos % len(raw)] = alphabet[rng.integers(len(alphabet))]
                elif op == 1:
                    raw.insert(pos, alphabet[rng.integers(len(alphabet))])
                elif raw:
                    del raw[pos % len(raw)]
            try:
                PARSERS[kind](raw.decode(errors="replace"))
            except ParseError:
                pass
