"""Parsers and serializers for the on-disk formats.

Matrix/vector CSV dialect: one row per line, comma-separated cells,
literal tokens ``-inf`` / ``inf`` (any casing on read, lowercase on
write) for the extended values, optional first-line header ``# m n``.
Finite cells are written with shortest round-trip precision, so
serialize(parse(text)) is value-identical.  Dataset CSV holds n feature
columns plus one target column; tables (fit, sweep, bench) a header row.
Every line written ends in a bare newline.  Models, solve reports and run
summaries are written, never read, as strict JSON with infinities as the
same tokens, as is the one-line ``config: {...}`` echo that tables and CSV
outputs start with.

The loaders read a file as UTF-8, whatever the locale, a line at a time,
through the same row parser as the ``parse_*`` functions on a whole text,
and hold only the packed values: a matrix load peaks near the matrix's own
size, not at its text's.  A file opened by name, of at least two ranges of
3 MiB and read with more than one usable CPU, is cut into one byte range
per CPU (at most eight), each ending just after a newline byte; a file
whose lines end in lone CRs has no such byte, and loads serially.  This
process reads the head, up to and including the first data row, which
fixes the width, and parses the first range; a helper process running the
stdlib-only row parser (``_rows``) parses each later range at the same
time and sends back its values as raw doubles, which are appended in file
order.  Each helper is an interpreter of its own that holds its range's
values until it has sent them, memory that the loading process's own peak
does not count.  A helper sends its values or nothing: one that finds an
error in its range exits 1, as one that opens a file other than the one
cut does, and the range of any failed helper is parsed here, where its
error is raised.  No helper outlives the load.

Malformed input raises ParseError with the offending position; no other
exception type escapes a parser or a loader, undecodable bytes included.
A load raises the first error in file order, its row counted from the
start of the file, whatever the file's size or the usable CPUs: a bad row,
or bytes that do not decode, which have no row.
"""

from __future__ import annotations

import array
import bisect
import functools
import itertools
import json
import math
import operator
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import _rows
from ._rows import ParseError
from .regression import Dataset, PwlModel
from .solver import SparseSolution

if TYPE_CHECKING:
    import subprocess

__all__ = [
    "ParseError",
    "parse_matrix",
    "parse_vector",
    "parse_dataset",
    "write_matrix",
    "write_vector",
    "write_dataset",
    "write_model",
    "write_report",
    "write_plot_data",
    "ModelRenderer",
    "PlotRenderer",
    "write_table",
    "write_json",
    "config_echo",
    "load_matrix",
    "load_vector",
    "load_dataset",
    "save_text",
]


def _split_rows(lines: Iterable[str]) -> tuple[Iterator[tuple[int, str]], tuple[int, int] | None]:
    """Non-empty (lineno, line) pairs, lazily, plus the `# m n` header shape, if any."""
    rows = _rows.nonblank(lines)
    first = next(rows, None)
    if first is None:
        raise ParseError("empty document")
    declared = None
    if first[1].lstrip().startswith("#"):
        lineno, header = first
        parts = header.lstrip()[1:].split()
        try:
            declared = (int(parts[0]), int(parts[1]))
            if len(parts) != 2:
                raise ValueError
        except (ValueError, IndexError):
            raise ParseError("header must be '# m n'", lineno) from None
        first = next(rows, None)
        if first is None:
            raise ParseError("document has a header but no rows")
    return itertools.chain([first], rows), declared


def _width(rows: Iterator[tuple[int, str]]) -> tuple[int, Iterator[tuple[int, str]]]:
    """The cell count of the first of ``rows``, which must have one, and the rows."""
    first = next(rows)
    return len(first[1].split(",")), itertools.chain([first], rows)


def _packed(values: array.array, width: int) -> np.ndarray:
    return np.frombuffer(values, dtype=np.float64).reshape(-1, width)


def _table(rows: Iterator[tuple[int, str]], finite: bool) -> np.ndarray:
    """Rows of the first row's width, as a 2-D array.

    Rows are converted one at a time into a packed buffer, so no array is
    sized before every row's width has been checked.  With ``finite`` an
    inf value is an error at its cell.
    """
    width, rows = _width(rows)
    values = array.array("d")
    _rows.parse_table(rows, width, finite, values)
    return _packed(values, width)


def _matrix(lines: Iterable[str], table=_table) -> np.ndarray:
    """The matrix that ``lines`` hold, its rows parsed by ``table``: the core
    of parse_matrix and load_matrix."""
    rows, declared = _split_rows(lines)
    mat = table(rows, False)
    if declared is not None and declared != mat.shape:
        raise ParseError(f"header declares {declared[0]}x{declared[1]} but data is {mat.shape[0]}x{mat.shape[1]}")
    return mat


def _vector(lines: Iterable[str], table=_table) -> np.ndarray:
    mat = _matrix(lines, table)
    if mat.shape[1] == 1:
        return mat[:, 0].copy()
    if mat.shape[0] == 1:
        return mat[0].copy()
    raise ParseError(f"expected a vector, got a {mat.shape[0]}x{mat.shape[1]} matrix")


def _dataset(lines: Iterable[str], table=_table) -> Dataset:
    rows = _rows.nonblank(lines)
    first = next(rows, None)
    while first is not None and first[1].lstrip().startswith("#"):
        first = next(rows, None)
    if first is None:
        raise ParseError("empty document")
    try:
        for j, cell in enumerate(first[1].split(",")):
            _rows.parse_cell(cell, first[0], j + 1)
    except ParseError:
        first = next(rows, None)  # the first line was a column header
        if first is None:
            raise ParseError("dataset has a header but no rows") from None
    if len(first[1].split(",")) < 2:
        raise ParseError("dataset needs at least one feature column and a target", first[0])
    arr = table(itertools.chain([first], rows), True)
    return Dataset(arr[:, :-1], arr[:, -1])


def parse_matrix(text: str) -> np.ndarray:
    """Matrix from the CSV dialect; rows must be rectangular."""
    return _matrix(text.splitlines())


def parse_vector(text: str) -> np.ndarray:
    """Vector: one value per line, or a single comma-separated line."""
    return _vector(text.splitlines())


def parse_dataset(text: str) -> Dataset:
    """Dataset CSV: n feature columns then one target column, all finite.

    Leading '#' lines are comments.  A first data line that does not parse
    as numbers is taken as a column header and skipped.
    """
    return _dataset(text.splitlines())


def _write_rows(rows: Iterable[list], head: str | None = None) -> str:
    """CSV text: the ``head`` line, if any, then one line of comma-separated
    cells per row, None as an empty cell; every line ends in a bare newline.

    ``str`` of a float is its shortest repr, and ``inf``/``-inf`` for the
    infinities, which are the dialect's tokens."""
    lines = (",".join(["" if v is None else str(v) for v in row]) for row in rows)
    return "\n".join(itertools.chain([head] if head else [], lines)) + "\n"


def write_matrix(mat, header: bool = False) -> str:
    mat = np.asarray(mat, dtype=np.float64)
    return _write_rows(mat.tolist(), f"# {mat.shape[0]} {mat.shape[1]}" if header else None)


def write_vector(vec) -> str:
    return _write_rows(np.asarray(vec, dtype=np.float64)[:, np.newaxis].tolist())


def write_dataset(data: Dataset, comment: str | None = None) -> str:
    return _write_rows(np.column_stack([data.x, data.f]).tolist(), f"# {comment}" if comment else None)


def write_table(header: list[str], rows: Iterable[list], comment: str | None = None) -> str:
    """Result table: the ``# comment`` line, if any, the header, then one line per row."""
    return _write_rows(itertools.chain([header], rows), f"# {comment}" if comment else None)


# The C encoder's tokens for the infinities, as written; its NaN token raises.
_INF_TOKENS = {"Infinity": '"inf"', "-Infinity": '"-inf"'}


def _bracket(opening: str, items: list[str], closing: str, depth: int, indent: int | None) -> str:
    """One container's text in ``json.dumps``'s layout, around its laid-out items."""
    if not items:
        return opening + closing
    if indent is None:
        return opening + ", ".join(items) + closing
    pad = "\n" + " " * (indent * (depth + 1))
    return opening + pad + ("," + pad).join(items) + "\n" + " " * (indent * depth) + closing


class _Rendered(str):
    """JSON text already laid out at the depth where a document holds it."""


def _layout(val, depth: int, indent: int | None, leaves: list) -> str:
    """The text of ``val`` with a ``%s`` slot for each scalar, which is appended to ``leaves``.

    Dict keys (strings only) are scalars too, so no text of the document
    but its brackets, commas, blanks and _Rendered parts ever enters the
    layout; a _Rendered part has its '%' escaped.
    """
    if isinstance(val, _Rendered):
        return val.replace("%", "%%")
    if isinstance(val, dict):
        items = []
        for key, v in val.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            leaves.append(key)
            items.append("%s: " + _layout(v, depth + 1, indent, leaves))
        return _bracket("{", items, "}", depth, indent)
    if isinstance(val, (list, tuple)):
        return _bracket("[", [_layout(v, depth + 1, indent, leaves) for v in val], "]", depth, indent)
    if isinstance(val, np.ndarray):
        leaves.extend(val.ravel().tolist())
        layout = "%s"
        for level in range(val.ndim - 1, -1, -1):
            layout = _bracket("[", [layout] * val.shape[level], "]", depth + level, indent)
        return layout
    leaves.append(val)
    return "%s"


def _dumps(doc, indent: int | None = None, depth: int = 0) -> str:
    """Strict JSON of ``doc`` in ``json.dumps(doc, indent=indent)``'s layout, byte for byte.

    Dicts, lists, tuples and numpy arrays are laid out here; every scalar
    token comes from one C-encoder dump of the flat list of scalars, split
    on the newline no JSON token holds.  Infinities are written as the
    "inf"/"-inf" strings; NaN raises ValueError.  With ``depth`` the text is
    laid out as a value nested that deep in a document.
    """
    leaves: list = []
    layout = _layout(doc, depth, indent, leaves)
    if not leaves:
        return layout % ()
    tokens = json.dumps(leaves, separators=("\n", ": "))[1:-1].split("\n")
    if "NaN" in tokens:
        raise ValueError("Out of range float values are not JSON compliant: nan")
    return layout % tuple(map(_INF_TOKENS.get, tokens, tokens))


def write_json(doc) -> str:
    """A JSON document: a model, a report or a run summary."""
    return _dumps(doc, indent=2) + "\n"


def config_echo(config: dict) -> str:
    """The one-line config comment of tables and CSV outputs, without its '# '."""
    return "config: " + _dumps(config)


class ModelRenderer:
    """The model document of each of many models on one slope array.

    The slopes, the bulk of a document, are laid out once, at the depth
    the document holds them; each model then renders only its own fields.
    A model whose slopes differ from these, in shape or in any bit, is
    refused with ValueError.
    """

    def __init__(self, slopes: np.ndarray):
        self.slopes = slopes
        self._slopes = _Rendered(_dumps(slopes, indent=2, depth=1))

    def __call__(self, model: PwlModel) -> str:
        s = model.slopes
        if s is not self.slopes and (s.shape != self.slopes.shape or s.tobytes() != self.slopes.tobytes()):
            raise ValueError("the model's slopes are not the slopes this renderer lays out")
        doc = {
            "dim": model.dim,
            "slopes": self._slopes,
            "intercepts": model.intercepts,
            "p": model.p,
            "theta": model.theta,
            "estimator": model.estimator,
            "errors": {"rms": model.rms, "max_abs": model.max_abs},
            "support": model.support_size,
        }
        return write_json(doc)


def write_model(model: PwlModel) -> str:
    return ModelRenderer(model.slopes)(model)


def write_report(
    solution: SparseSolution | None,
    config: dict | None = None,
    full_support_error: float | None = None,
) -> str:
    """Solve report JSON: support, errors, certificate, iteration count.

    Without a solution the budget was infeasible, and the report records
    the full-support error that missed it.
    """
    if solution is None:
        doc = {
            "support": [],
            "error_p": None,
            "error_inf": None,
            "ratio_bound": None,
            "iterations": 0,
            "infeasible": True,
            "full_support_error": full_support_error,
        }
    else:
        doc = {
            "support": [int(j) for j in solution.support],
            "error_p": solution.error_p,
            "error_inf": solution.error_inf,
            "ratio_bound": solution.ratio_bound,
            "iterations": len(solution.support),
            "infeasible": False,
        }
    if config is not None:
        doc["config"] = config
    return write_json(doc)


class PlotRenderer:
    """The per-point plot CSV of each of many models on one dataset.

    The ``# comment`` line, if any, and each point's x and target cells
    are rendered once; each model's text then adds only its values, one
    per point.  The text is _write_rows' for the rows (x..., f, value).
    """

    def __init__(self, data: Dataset, comment: str | None = None):
        self._head = f"# {comment}\n" if comment else ""
        self._cells = [",".join(map(str, row)) + "," for row in np.column_stack([data.x, data.f]).tolist()]

    def __call__(self, predicted) -> str:
        values = np.asarray(predicted, dtype=np.float64).ravel()
        if values.size != len(self._cells):
            raise ValueError(f"{values.size} model values for {len(self._cells)} points")
        return self._head + "\n".join(map(operator.add, self._cells, map(str, values.tolist()))) + "\n"


def write_plot_data(data: Dataset, predicted, comment: str | None = None) -> str:
    """Per-point CSV (x columns, target, model value) for external plotting."""
    return PlotRenderer(data, comment)(predicted)


# A file is cut into one range per usable CPU, of at least _RANGE_BYTES
# each.  A helper takes 18-24 ms from spawn to reap, and the loading process
# then waits for the helper's parse and reads its values.  On a shared
# 2-core machine two ranges were slower than the serial read in most runs
# of a 2 or 3 MiB file, by up to 35 ms; they moved a 4 MiB load by -28 to
# +37 ms, and saved 42-78 ms in every run at 5 and 6 MiB
# (BENCH_solve-ranges.json, "range_size").  No load of more than two
# ranges has been timed.
_RANGE_BYTES = 3 << 20


def _usable_cpus() -> int:
    """The worker count of every parallel step, a ranged load's and a bench's:
    the CPUs this process may run on, at most 8, which bounds the memory of a
    load's helpers (about 8 MB each) and of a bench's concurrent trials."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, 8)


def _line_start(fh, at: int) -> int:
    """The first position from ``at`` (> 0) on that follows a ``\\n`` byte
    of the binary file ``fh``, or the file's end."""
    pos = fh.seek(at - 1)
    while block := fh.read(_rows._BLOCK_BYTES):
        end = block.find(b"\n")
        if end >= 0:
            return pos + end + 1
        pos += len(block)
    return pos


def _bounds(fh) -> list[float]:
    """Byte offsets that cut the open binary file ``fh`` into ranges: 0, the
    line start that begins each later range, and the file's size.

    A ``\\n`` byte ends a line of UTF-8 text whatever precedes it.  Only a
    file opened by name, which a helper can open, is cut; one with fewer
    than two ranges, or a pipe, is [0, inf]: it is read to its end.  A cut
    is made only after a ``\\n``, so a file whose lines end in lone CRs
    is one range, [0, size]: it loads serially.
    """
    size = os.fstat(fh.fileno()).st_size
    count = min(_usable_cpus(), size // _RANGE_BYTES)
    if count < 2 or isinstance(fh.name, int):
        return [0, math.inf]
    cuts = {_line_start(fh, size * k // count) for k in range(1, count)}
    fh.seek(0)
    return [0, *sorted(cuts - {size}), size]


def _spawn(path, start: int, stop: int, width: int, finite: bool, cut: tuple) -> subprocess.Popen | None:
    """A helper process that parses the rows from byte ``start`` to ``stop``
    of the file at ``path``, or None when none could start.  The helper
    exits 1 unless the file it opens has the identity ``cut``."""
    # imported here, so that `import tropfit` and a load of a small file go
    # without subprocess's modules: about 6 ms and 0.5 MB
    import subprocess

    argv = [sys.executable, "-I", "-S", _rows.__file__, path, *map(str, (start, stop, width, int(finite), *cut))]
    try:
        return subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None


def _receive(helper: subprocess.Popen | None, values: array.array) -> int | None:
    """The line count of a helper's range, whose values are appended to
    ``values``.  None, with ``values`` as it was, for a helper that did not
    start, sent a short stream or exited non-zero, as one that found an
    error in its range does."""
    if helper is None:
        return None
    out = helper.stdout
    head = out.read(_rows.HEAD.size)
    if len(head) != _rows.HEAD.size:
        return None
    count, size = _rows.HEAD.unpack(head)
    mark = len(values)
    while len(values) - mark < size:
        want = min(_rows._BLOCK_BYTES, (size - len(values) + mark) * values.itemsize)
        chunk = out.read(want)
        if len(chunk) != want:
            break
        values.frombytes(chunk)
    out.close()  # a helper that writes more than it declared fails, not blocks
    if helper.wait() != 0 or len(values) - mark != size:
        del values[mark:]
        return None
    return count


def _ranged_table(lines: _rows.Lines, bounds: list[float], rows: Iterator[tuple[int, str]], finite: bool) -> np.ndarray:
    """_table of ``rows``, the rows of ``lines`` after the head, parsed in
    the byte ranges between ``bounds`` at the same time.

    This process parses ``rows`` up to the first bound after the head, while
    a helper process parses each later range; a range whose helper fails,
    or finds an error, is parsed here, its rows numbered from the top of
    the file.  With bounds [0, stop] this is the serial load.  The values
    are appended in file order, and the first error in file order is
    raised.  Every helper has exited when this returns or raises.
    """
    width, rows = _width(rows)
    first = min(bisect.bisect_left(bounds, lines.pos), len(bounds) - 1)
    lines.stop = bounds[first]
    ranges = list(itertools.pairwise(bounds[first:]))
    # a helper reopens the file by its name, and must find the file cut here
    st = os.fstat(lines.fh.fileno())
    cut = (st.st_dev, st.st_ino, bounds[-1])
    values = array.array("d")
    helpers: list[subprocess.Popen | None] = []
    try:
        for start, stop in ranges:
            helpers.append(_spawn(lines.fh.name, start, stop, width, finite, cut))
        _rows.parse_table(rows, width, finite, values)
        before = lines.count
        for helper, (start, stop) in zip(helpers, ranges):
            count = _receive(helper, values)
            if count is None:
                count = _rows.parse_range(lines.fh, start, stop, width, finite, values, before + 1)
            before += count
    finally:
        for helper in helpers:
            if helper is not None:
                helper.kill()
                helper.wait()
                helper.stdout.close()
    return _packed(values, width)


def _load(path, parse):
    """``parse(lines, table)`` of the CSV file at ``path``, read as UTF-8
    bytes by one _rows.Lines: the head, up to and including the first data
    row, and then the rest, in the ranges that _bounds cuts, by
    _ranged_table."""
    with open(path, "rb") as fh:
        bounds = _bounds(fh)
        lines = _rows.Lines(fh, 0, bounds[-1])
        return parse(lines, functools.partial(_ranged_table, lines, bounds))


def load_matrix(path) -> np.ndarray:
    return _load(path, _matrix)


def load_vector(path) -> np.ndarray:
    return _load(path, _vector)


def load_dataset(path) -> Dataset:
    return _load(path, _dataset)


def save_text(path, text: str) -> None:
    """Write ``text`` to ``path``, creating its parent directory first, so
    an output directory comes into being with the first file written to it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
