"""The historian log and the variable-spec file: their one reader, and the
map of a log's cells to states.

A historian log is delimiter-separated text: one header row of design
parameter (DP) names, then one numeric record per timestep. Sensors carry
real values, actuators small integer codes. Everything downstream works on
discrete state indices, so each DP gets a :class:`datafile.VariableSpec`
that fixes its state vocabulary, and a sensor a strictly increasing list of
bin edges. Bin edges are half-open ``[lo, hi)``: a value equal to an edge
belongs to the upper interval. Timestamp columns are carried as opaque text
and never enter the discrete data. Missing values are rejected.

Every log is read by one block reader, :func:`_read_log`, from a
:class:`LogText`, a source that gives the text a block at a time as often
as the reader asks. Plain numeric text comes in blocks of at least
``_BLOCK_CHARS`` characters cut at line ends, and each block's value cells
in one ``split``, a column at a time by a stride slice; any other text, or
a block whose cells are not all readings, comes as batches of :mod:`csv`
rows. One scan of the whole text names any fault
(:func:`_raise_first_fault`). :class:`StateMaps` maps a block's cells to
states with one ``map`` per spec: ``float`` then ``bisect_right`` over a
sensor's edges, and a dict of the cells met so far for an actuator, which
reads and checks each distinct cell once; a column that no spec maps is
read by ``float`` only to check it. :func:`discretize_log` gathers the
states into one ``bytes`` per spec, which :func:`datafile.dataset_chunks`
writes, so that ``discretize`` runs on the standard library alone and
holds the dataset and one block, never the whole log as numbers. A
:class:`LogText` of a file (:meth:`LogText.of_file`) reads the file twice,
a block at a time, and holds its whole text only to name a fault.
"""

from __future__ import annotations

import codecs
import csv
import io
import sys
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, islice, repeat
from math import isfinite
from numbers import Real
from pathlib import Path
from typing import NoReturn

from .datafile import SENSOR, VariableSpec
from .errors import (
    EmptyInput,
    MissingColumn,
    NonNumericCell,
    ParseError,
    RaggedRow,
    UnmappedActuatorValue,
)
from .jsontext import split_lines

# The log reader reads plain records in blocks of at least this many
# characters, each cut at a line end, and csv rows in batches of the lines
# of a quarter block; a log file is read in blocks of this many bytes. A
# block's cells take some 28 bytes per character of its text, their str
# objects most of it: beyond the dataset, discretizing a 40k-record log
# of the 12-DP fixture held 0.7 MB with 24 KiB blocks, 1.7 MB with
# 64 KiB ones and 6.9 MB with 256 KiB ones, against its text of 1.9 MB.
# The benchmark's 51-DP and 12-DP logs map to states in 115 and 134 ms with
# 24 KiB blocks, 109 and 134 ms with 64 KiB and 105 and 130 ms with 256 KiB
# (2-core x86-64 VM): a block costs a few calls per column, which tells on
# a wide log
_BLOCK_CHARS = 24 << 10

# a block's value cells, one sequence per value column, and whether a cell
# may hold an underscore or a character outside ASCII, to what a reader of
# the log makes of the block
Convert = Callable[[list[Sequence[str]], bool], list]


@dataclass(frozen=True)
class LogText:
    """The text of a historian log as its block reader reads it, and what
    one pass over the whole text tells of it.

    ``blocks()`` gives the text from its start, as often as it is called:
    its first line, then blocks of at least ``_BLOCK_CHARS`` characters, or
    of a file's bytes, each cut at a line end. ``text()`` gives the whole
    text, which the reader asks for only to name a fault."""

    blocks: Callable[[], Iterator[str]]
    text: Callable[[], str]
    n_lines: int  # the line ends, plus one when the text does not end in one
    size: int  # the length of the text in the unit its blocks are cut in
    plain: bool  # no quote or NUL, and no carriage return outside a CRLF line end

    @classmethod
    def of_str(cls, text: str) -> LogText:
        first = text.find("\n") + 1 or len(text)
        return cls(blocks=lambda: chain([text[:first]], _cuts(text, first)), text=lambda: text,
                   n_lines=text.count("\n") + (not text.endswith("\n")), size=len(text),
                   plain='"' not in text and "\0" not in text and text.count("\r") == text.count("\r\n"))

    @classmethod
    def of_file(cls, path: str) -> LogText:
        """The UTF-8 text of the file at ``path`` without a leading byte-order
        mark, as ``open(path, encoding="utf-8-sig", newline="")`` reads it.
        One pass over the file's blocks counts its lines and makes the
        whole-text checks; each later call of ``blocks()`` reads it again.
        Raises :class:`OSError` when the file cannot be read and
        :class:`UnicodeDecodeError` when it is not UTF-8."""
        n_lines, size, ends, plain = 0, 0, False, True
        for block in _file_blocks(path):
            if not block.isascii():
                block.decode()  # cut at a line end, so a block of UTF-8 is UTF-8 on its own
            n_lines += block.count(b"\n")
            size += len(block)
            ends = block.endswith(b"\n") if block else ends
            plain = plain and b'"' not in block and b"\0" not in block and \
                (b"\r" not in block or block.count(b"\r") == block.count(b"\r\n"))
        return cls(blocks=lambda: map(bytes.decode, _file_blocks(path)),
                   text=lambda: Path(path).read_bytes().removeprefix(codecs.BOM_UTF8).decode(),
                   n_lines=n_lines + (not ends), size=size, plain=plain)


def _file_blocks(path: str) -> Iterator[bytes]:
    """The bytes of the file at ``path`` after a leading UTF-8 byte-order
    mark: its first line, then blocks of at least ``_BLOCK_CHARS`` bytes,
    each cut at a line end."""
    with open(path, "rb") as fh:
        yield fh.readline().removeprefix(codecs.BOM_UTF8)
        while block := fh.read(_BLOCK_CHARS):
            yield block if block.endswith(b"\n") else block + fh.readline()


def _cuts(text: str, at: int) -> Iterator[str]:
    """``text[at:]`` in blocks of at least ``_BLOCK_CHARS`` characters, each
    cut at a line end."""
    while at < len(text):
        end = text.find("\n", at + _BLOCK_CHARS - 1) + 1 or len(text)
        yield text[at:end]
        at = end


def _header_columns(header: list[str]) -> tuple[list[int], list[int], tuple[str, ...]]:
    """The positions of the timestamp columns and of the value columns in
    the stripped ``header``, and the value columns' names."""
    ts_idx = [k for k, name in enumerate(header) if name.lower() == "timestamp"]
    value_idx = [k for k in range(len(header)) if k not in ts_idx]
    return ts_idx, value_idx, tuple(header[k] for k in value_idx)


def _unique_names(columns: tuple[str, ...]) -> bool:
    return len(set(columns)) == len(columns) and all(columns)


def _read_log(log: LogText, stamps: bool = False) -> tuple[tuple[str, ...], int, Callable[[Convert], Iterator[tuple]]]:
    """The value columns of the log, a bound on its record count, exact
    when no line is blank and no cell spans lines, and a function that
    reads the records a block at a time: given ``convert``, which takes a
    block's value cells, one sequence per value column, and whether a cell
    may hold an underscore or a character outside ASCII, it yields each
    block's record count, what ``convert`` makes of its cells, and its
    timestamps when ``stamps`` is true and the log has a timestamp column,
    else None. ``convert`` raises :class:`_NotAReading` to refuse a block.

    Plain numeric text (no quotes, NUL or ``\\r`` outside a CRLF line end,
    the header on the first line, a value column) is split into cells a
    block at a time, as it is. :mod:`csv` splits into rows any block whose
    cells ``convert`` refuses, and any other text. Any fault is raised
    through :func:`_raise_first_fault`: the header's at once, a record's
    when its block is read."""
    # the first line is a block of its own, so that the header of plain
    # text, which is all that csv reads of it, costs no block
    chunks = log.blocks()
    reader = csv.reader(chain.from_iterable(map(io.StringIO, chunks)))
    header = None
    with suppress(StopIteration, csv.Error):
        header = [cell.strip() for cell in next(row for row in reader if any(map(str.strip, row)))]
    if header is None:
        _raise_first_fault(log.text())
    ts_idx, value_idx, columns = _header_columns(header)
    if not _unique_names(columns):
        _raise_first_fault(log.text())
    # csv.reader gives these a meaning of its own: quoting, a line end, and
    # on Python 3.10 an error; with no value column, a blank line, which csv
    # skips, would pass for a record
    plain = reader.line_num == 1 and bool(columns) and log.plain
    ts = ts_idx[0] if stamps and ts_idx else None
    width = len(header)

    # csv's rows take some four times the memory of their text, so a batch
    # holds as many rows as a quarter of a block holds lines, on average
    size = max(1, _BLOCK_CHARS * log.n_lines // log.size // 4)

    def rows_read(source: Iterator[list[str]], convert: Convert) -> Iterator[tuple]:
        """The records of the csv rows of ``source`` that are not blank, a
        batch of rows at a time."""
        for batch in iter(lambda: list(islice(source, size)), []):
            rows = [row for row in batch if any(map(str.strip, row))]
            if not rows:
                continue
            done = None
            if all(len(row) == width for row in rows):
                cells = list(zip(*rows))
                with suppress(_NotAReading):
                    done = convert([cells[k] for k in value_idx], True)
            if done is None:
                _raise_first_fault(log.text())
            yield len(rows), done, None if ts is None else [row[ts].strip() for row in rows]

    def plain_batches(convert: Convert) -> Iterator[tuple]:
        n_commas, limit = width - 1, csv.field_size_limit()
        for block in chunks:  # after the first line, which csv has read
            lines = block.split("\n")
            if not lines[-1]:
                lines.pop()
            done = None
            # only csv names a field longer than its limit
            if set(map(str.count, lines, repeat(","))) == {n_commas} and \
                    (len(block) <= limit or max(map(len, lines)) <= limit):
                cells = ",".join(lines).split(",")
                with suppress(_NotAReading):
                    done = convert([cells[k::width] for k in value_idx], "_" in block or not block.isascii())
            if done is None:
                yield from rows_read(csv.reader(io.StringIO(block)), convert)
            else:
                yield len(lines), done, None if ts is None else [cell.strip() for cell in cells[ts::width]]

    def read(convert: Convert) -> Iterator[tuple]:
        n = 0
        with suppress(csv.Error):  # a carriage return inside a field, or a field above csv's limit
            for block in plain_batches(convert) if plain else rows_read(reader, convert):
                n += block[0]
                yield block
            if n:
                return
        _raise_first_fault(log.text())

    return columns, log.n_lines - reader.line_num, read


class _NotAReading(Exception):
    """A value cell of a block is not a reading."""


def _reading(cell: str) -> float | None:
    """The reading of a value cell: ``float`` of the cell stripped, when it
    is a finite number written in ASCII without digit-group underscores;
    else None. ``float`` also reads "nan", "inf", "1_0" and "\u0661"."""
    cell = cell.strip()
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if isfinite(value) and "_" not in cell and cell.isascii() else None


def readings(cells: Sequence[str], suspect: bool) -> list[float]:
    """The readings of a column of value cells, as :func:`_reading` reads
    each; raises :class:`_NotAReading` when a cell is not a reading. Only
    when ``suspect`` may a cell hold an underscore or a character outside
    ASCII."""
    try:
        values = list(map(float, cells))
    except ValueError:
        # float strips less than str.strip does: not the separators \x1c to \x1f
        try:
            values = list(map(float, map(str.strip, cells)))
        except ValueError:
            raise _NotAReading from None
    # the sum of floats is finite only when each is, and may overflow when each is
    if not isfinite(sum(values)) and not all(map(isfinite, values)):
        raise _NotAReading
    if suspect and any("_" in cell or not cell.strip().isascii() for cell in cells):
        raise _NotAReading
    return values


def _raise_first_fault(text: str) -> NoReturn:
    """Raise the error of the log ``text``, the one place that names it: a
    :mod:`csv` error anywhere, then a missing header or records, then the
    column names, then the first faulty record, naming the line it starts
    on and its bad cell. Blank lines and quoted cells that span lines count,
    as in the text."""
    reader = csv.reader(io.StringIO(text))
    records, line = [], 1  # line: where the next record starts
    try:
        for row in reader:
            if any(map(str.strip, row)):
                records.append((line, row))
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if not records:
        raise EmptyInput("log has no header row")
    if len(records) == 1:
        raise EmptyInput("log has a header but no records")
    header = [cell.strip() for cell in records[0][1]]
    _, value_idx, columns = _header_columns(header)
    if not _unique_names(columns):
        raise ParseError("column names must be unique and non-empty")
    for r, row in records[1:]:
        if len(row) != len(header):
            raise RaggedRow(f"line {r}: expected {len(header)} cells, got {len(row)}")
        for k in value_idx:
            if _reading(row[k]) is None:
                raise NonNumericCell(f"line {r}, column {header[k]!r}: {row[k].strip()!r}")
    raise AssertionError("parse_log found a fault that the line scan does not")


# --- readings to states ---------------------------------------------------------

class _CodeStates(dict):
    """An actuator's state of each value cell or reading met so far. A
    reading goes to the position of its rounded value in the spec's codes
    (``0..n-1`` when omitted); the first that is not within 1e-9 of an
    integer, or whose integer is not a code, is kept in ``fault`` and goes
    to state 0. A cell that is not a reading raises :class:`_NotAReading`."""

    def __init__(self, spec: VariableSpec):
        super().__init__()
        self.name = spec.name
        self.codes = spec.codes if spec.codes is not None else tuple(range(spec.cardinality))
        # a reading is a float, so a code that no float equals matches none
        self.state_of = {c: k for k, c in enumerate(self.codes)
                         if isinstance(c, Real) and abs(c) <= sys.float_info.max and float(c) == c}
        self.fault: UnmappedActuatorValue | None = None

    def __missing__(self, key: str | float) -> int:
        reading = _reading(key) if isinstance(key, str) else key
        if reading is None:
            raise _NotAReading
        code = round(reading) if isfinite(reading) else None
        integral = code is not None and abs(reading - code) <= 1e-9
        state = self.state_of.get(code, 0) if integral else 0
        if self.fault is None and not (integral and code in self.state_of):
            self.fault = UnmappedActuatorValue(f"{self.name}: code {code} not in declared codes {self.codes}"
                                               if integral else f"{self.name}: non-integer actuator value {reading!r}")
        self[key] = state
        return state


class StateMaps:
    """The map of each spec from the values of its column of the log
    ``columns`` to states: a sensor's readings to their bins, and an
    actuator's cells, or readings, through its :class:`_CodeStates`. The
    states of a block are a ``bytes`` per spec of at most 256 states, else
    a list. :meth:`check` then raises the error of the maps, once every
    block is mapped."""

    def __init__(self, columns: tuple[str, ...], specs: Sequence[VariableSpec]):
        self.missing = next((spec.name for spec in specs if spec.name not in columns), None)
        self.maps = [] if self.missing is not None else [
            (columns.index(spec.name), bytes if spec.cardinality <= 1 << 8 else list,
             [float(e) for e in spec.bin_edges] if spec.kind == SENSOR else None,
             _CodeStates(spec) if spec.kind != SENSOR else None) for spec in specs]
        # the columns that no spec maps, whose cells are read only to check them
        self.unmapped = sorted(set(range(len(columns))) - {at for at, *_ in self.maps})

    def of_cells(self, cells: list[Sequence[str]], suspect: bool) -> list:
        """The states of a block of value cells, one sequence per column, as
        :func:`_read_log` hands them over; raises :class:`_NotAReading` when
        a cell is not a reading, whether a spec maps it or not."""
        for at in self.unmapped:
            readings(cells[at], suspect)
        return [pack(map(codes.__getitem__, cells[at])) if codes is not None
                else pack(map(bisect_right, repeat(edges), readings(cells[at], suspect)))
                for at, pack, edges, codes in self.maps]

    def of_readings(self, values: Sequence[Sequence[float]]) -> list:
        """The states of a block of readings, one sequence per column."""
        return [pack(map(codes.__getitem__, values[at])) if codes is not None
                else pack(map(bisect_right, repeat(edges), values[at]))
                for at, pack, edges, codes in self.maps]

    def check(self) -> None:
        """Raise :class:`MissingColumn` for the first spec whose column the
        log lacks, then the first unmapped reading of the first spec that
        has one."""
        if self.missing is not None:
            raise MissingColumn(f"log has no column {self.missing!r}")
        for *_, codes in self.maps:
            if codes is not None and codes.fault is not None:
                raise codes.fault


def discretize_log(log: LogText, specs: Sequence[VariableSpec]) -> tuple[int, list[bytearray | list[int]]]:
    """The record count of the historian log and each spec's states in
    record order, a ``bytearray`` for a spec of at most 256 states, else a
    list: the one path from a log to a dataset, whose columns these are once
    :class:`datafile.DiscreteDataset` checks them against the specs, as
    ``ingest.discretize(ingest.parse_log(text), specs)`` gives them. Every
    block is read before :meth:`StateMaps.check` raises."""
    columns, _, read = _read_log(log)
    maps = StateMaps(columns, specs)
    out: list = [bytearray() if spec.cardinality <= 1 << 8 else [] for spec in specs]
    n = 0
    for k, states, _ in read(maps.of_cells):
        for column, block in zip(out, states):
            column += block
        n += k
    maps.check()
    return n, out


# --- variable-spec file -------------------------------------------------------
#
# Line-oriented, one record per variable, '#' comments allowed:
#
#   LIT101 sensor Low,Medium,High edges=210,750
#   MV101 actuator Close,Open codes=1,2
#   P101 actuator Off,On
#
# Round-trips losslessly through parse_spec_file / format_spec_file.

def parse_spec_file(text: str) -> tuple[VariableSpec, ...]:
    """The specs of a variable-spec file. Edges and codes are read as
    ``float`` and ``int`` read them, but only in ASCII and without
    digit-group underscores, as a log cell is; a line that breaks the
    format raises :class:`ParseError` naming it."""
    specs = []
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ParseError(f"line {lineno}: expected 'name kind states [edges=...|codes=...]'")
        name, kind, state_csv = parts[0], parts[1], parts[2]
        states = tuple(state_csv.split(","))
        edges = codes = None
        if len(parts) == 4:
            key, _, val = parts[3].partition("=")
            if key not in ("edges", "codes"):
                raise ParseError(f"line {lineno}: unknown attribute {key!r}")
            try:
                # float() and int() also read "1_0" and "\u0661", which no log reading may hold
                if "_" in val or not val.isascii():
                    raise ValueError(val)
                if key == "edges":
                    edges = tuple(float(v) for v in val.split(","))
                else:
                    codes = tuple(int(v) for v in val.split(","))
            except ValueError:
                raise ParseError(f"line {lineno}: bad {key} list {val!r}") from None
        try:
            specs.append(VariableSpec(name=name, kind=kind, states=states, bin_edges=edges, codes=codes))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if not specs:
        raise EmptyInput("spec file declares no variables")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name in spec file")
    return tuple(specs)


def format_spec_file(specs: tuple[VariableSpec, ...] | list[VariableSpec]) -> str:
    lines = []
    for s in specs:
        rec = f"{s.name} {s.kind} {','.join(s.states)}"
        if s.bin_edges is not None:
            rec += " edges=" + ",".join(repr(e) for e in s.bin_edges)
        if s.codes is not None:
            rec += " codes=" + ",".join(str(c) for c in s.codes)
        lines.append(rec)
    return "\n".join(lines) + "\n"
