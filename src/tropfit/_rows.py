"""The CSV row parser and line reader that every matrix, vector and
dataset load runs: a file is read as UTF-8 bytes, whatever the locale.

This module imports only the standard library, so that a loader can run
it as a helper process that starts in milliseconds:

    python -I -S _rows.py PATH START STOP WIDTH FINITE DEV INO SIZE

parses the lines of the UTF-8 file PATH from byte START to byte STOP, both
just after a ``\\n`` byte or at the file's end, as rows of WIDTH cells each
(FINITE is 1 when an inf value is an error).  It writes to stdout a HEAD
of (lines, values), then the values as raw doubles.

DEV, INO and SIZE are the ``os.fstat`` device, inode and size of the file
that the loader cut.  A helper whose open PATH is another file (PATH names
the loader's standard input, say, or was renamed over), that does not read
up to STOP, or that finds an error in its range (a ParseError, bytes that
do not decode among them) exits 1 and writes nothing: it sends values or
nothing.  The loader parses such a range itself and raises its error.
"""

from __future__ import annotations

import array
import math
import os
import struct
import sys
from collections.abc import Iterable, Iterator

# lines in the range and values in it
HEAD = struct.Struct("=qq")
# Bytes are read from a file, and from a helper's pipe, at most this many
# at a time: a multiple of 8, so that a pipe read holds whole doubles.
_BLOCK_BYTES = 1 << 16


class ParseError(ValueError):
    """Malformed document; carries the 1-based row/column when known."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        self.reason = message
        self.row = row
        self.col = col
        if row is not None:
            where = f" at row {row}" + (f" col {col}" if col is not None else "")
            message = message + where
        super().__init__(message)


def not_text(exc: UnicodeDecodeError) -> ParseError:
    """The ParseError, with no row, of bytes that do not decode."""
    return ParseError(f"file is not {exc.encoding} text: {exc.reason}")


def parse_cell(token: str, row: int, col: int) -> float:
    """A cell's value: a finite number, or the infinity an inf token spells
    (any casing, surrounding blanks, an optional '+')."""
    t = token.strip()
    low = t.lower()
    if low == "-inf":
        return -math.inf
    if low in ("inf", "+inf"):
        return math.inf
    try:
        v = float(t)
    except ValueError:
        raise ParseError(f"cannot parse cell {t!r}", row, col) from None
    if math.isnan(v) or math.isinf(v):
        # rejects 'nan', alternate infinity spellings, and overflowing literals
        raise ParseError(f"cell {t!r} is not a finite number or inf token", row, col)
    return v


def nonblank(lines: Iterable[str], first: int = 1) -> Iterator[tuple[int, str]]:
    """(lineno, line) for each line of ``lines`` that is not all blanks, lazily,
    numbered from ``first`` among all of them; the test copies no line."""
    return ((i, ln) for i, ln in enumerate(lines, first) if ln and not ln.isspace())


def parse_row(cells: list[str], lineno: int) -> list[float]:
    """One row's values: ``float`` on every cell, and the per-cell parser
    for a row where that raises or yields a non-finite value.

    A finite ``float(cell)`` equals ``parse_cell(cell)``, so the per-cell
    parser alone decides the inf tokens and every error and its position.
    """
    try:
        vals = list(map(float, cells))
    except ValueError:
        vals = None
    # a sum is finite only when every term is; a finite row whose sum
    # overflows merely takes the per-cell path
    if vals is None or not math.isfinite(sum(vals)):
        vals = [parse_cell(c, lineno, j + 1) for j, c in enumerate(cells)]
    return vals


def parse_table(rows: Iterable[tuple[int, str]], width: int, finite: bool, values: array.array) -> None:
    """Append to ``values`` the cells of ``rows``, each of which must hold
    ``width`` of them.

    Rows are split and converted one at a time, so no row is held past its
    own conversion.  With ``finite`` an inf value is an error at its cell.
    """
    for lineno, line in rows:
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"expected {width} cells, found {len(cells)}", lineno)
        vals = parse_row(cells, lineno)
        if finite and not math.isfinite(sum(vals)):
            for j, v in enumerate(vals):
                if math.isinf(v):
                    raise ParseError("dataset values must be finite", lineno, j + 1)
        values.extend(vals)


class Lines:
    """The lines of a UTF-8 binary file from byte ``start``, where it
    stands, up to byte ``stop``, as ``str.splitlines`` gives them, and a
    count of them.

    The file is read a ``\\n``-ended line at a time, at most _BLOCK_BYTES
    at a time.  A read that finds no ``\\n`` ends just after its last CR
    but its own last byte, which may begin a CR LF, and the bytes after
    that CR begin the next read; a read with no such CR is part of a longer
    line.  Neither byte is ever part of another character, and there each
    ends a line, so a range that ends just after a ``\\n`` splits into the
    lines that the whole text's ``splitlines`` has there.  ``pos`` is
    the byte after the last line read, and ``stop`` is checked before each
    read, so a reader may move it on the way.  ``count`` is the number of
    lines read, which is the range's once it has been iterated to its end
    without an error.
    Bytes that do not decode are a ParseError with no row, raised after the
    whole lines before them, so a reader meets the first error in file order.
    """

    def __init__(self, fh, start: int, stop: float):
        self.fh = fh
        self.pos = start
        self.stop = stop
        self.count = 0

    def _read(self, rest: bytes) -> tuple[bytes, bytes]:
        """The bytes of the next lines, ``rest`` first, and those read past them."""
        parts = [rest] if rest else []  # the join of one part is that part, not a copy
        while block := self.fh.readline(_BLOCK_BYTES):
            cut = len(block) if block.endswith(b"\n") else block.rfind(b"\r", 0, -1) + 1
            if cut:
                parts.append(block[:cut])
                return b"".join(parts), block[cut:]
            parts.append(block)
        return b"".join(parts), b""

    def __iter__(self) -> Iterator[str]:
        rest = b""
        while self.pos < self.stop:
            raw, rest = self._read(rest)
            if not raw:
                return
            self.pos += len(raw)
            try:
                lines = raw.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                # the whole lines before the first bad byte, then its error
                yield from (raw[: exc.start].decode("utf-8") + "x").splitlines()[:-1]
                raise not_text(exc) from None
            self.count += len(lines)
            yield from lines
            del raw, lines  # not held through the next read


def parse_range(fh, start: int, stop: int, width: int, finite: bool, values: array.array, first: int = 1) -> int:
    """Append to ``values`` the rows of the binary file ``fh`` from byte
    ``start`` to byte ``stop``, and return the number of lines there.

    A ParseError's row counts lines from ``first``, the number of the
    range's first line."""
    fh.seek(start)
    lines = Lines(fh, start, stop)
    parse_table(nonblank(lines, first), width, finite, values)
    return lines.count


def main(argv: list[str]) -> None:
    path, start, stop, width, finite, dev, ino, size = argv
    values = array.array("d")
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if (st.st_dev, st.st_ino, st.st_size) != (int(dev), int(ino), int(size)):
            raise SystemExit(f"{path} is not the file that was cut")
        # a ParseError is uncaught: the helper exits 1 without writing
        lines = parse_range(fh, int(start), int(stop), int(width), finite == "1", values)
        if fh.tell() != int(stop):
            raise SystemExit(f"{path} was not read up to byte {stop}")
    sys.stdout.buffer.write(HEAD.pack(lines, len(values)))
    sys.stdout.buffer.write(values)
    sys.stdout.buffer.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
