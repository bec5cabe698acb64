"""Historian-log ingestion and discretization.

A historian log is delimiter-separated text: one header row of design
parameter (DP) names, then one numeric record per timestep. Sensors carry
real values, actuators small integer codes. Everything downstream works on
discrete state indices, so each variable gets a :class:`VariableSpec` that
fixes its state vocabulary, and sensors additionally a strictly increasing
list of bin edges.

Bin edges are half-open ``[lo, hi)``: a value equal to an edge belongs to
the upper interval. Timestamp columns are carried as opaque text and never
enter the discrete data. Missing values are rejected at parse time.

Every log is read by one block reader from a :class:`LogText`, a source
that gives the text a block at a time as often as the reader asks: plain
numeric text in blocks of at least ``_BLOCK_CHARS`` characters cut at line
ends, and any other text, or a block that numpy's reader refuses, in
batches of :mod:`csv` rows; one scan of the whole text names any fault.
:func:`parse_log` fills one float array from the blocks;
:func:`discretize_text` maps each block to states as soon as it is read,
so that it holds the dataset and one block, and never the whole log as
numbers. A :class:`LogText` of a file (:meth:`LogText.of_file`) reads the
file twice, a block at a time, and holds its whole text only to name a
fault.

The dataset JSON file's layout is :mod:`datafile`'s, which also holds
:class:`VariableSpec`. The CLI writes the file a block of records at a
time with :func:`dataset_json_chunks`, the same bytes as
:func:`jsontext.json_text`, which lays out a dataset's records with
:func:`records_json`, writes for it. :func:`read_dataset_file` and
:func:`dataset_from_text` read the writer's text of a dataset whose DPs
have at most 10 states, and so one digit per cell, into one array from the
checked blocks of :func:`datafile.written_records`, and any other text
through :mod:`json`.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, repeat
from math import isfinite, nan
from numbers import Real
from pathlib import Path
from typing import BinaryIO, NoReturn

import numpy as np

from .datafile import (  # noqa: F401  ACTUATOR, SENSOR: still named here
    _BLOCK_CHARS,
    _DATA_END,
    _DATA_KEY,
    _RECORD_SEP,
    _ROW_END,
    ACTUATOR,
    SENSOR,
    VariableSpec,
    _specs_from_json,
    _specs_to_json,
    _written_head,
    row_bytes,
    written_records,
)
from .errors import (
    CpsCausalError,
    EmptyDataset,
    EmptyInput,
    MissingColumn,
    NonNumericCell,
    ParseError,
    RaggedRow,
    UnknownColumn,
    UnmappedActuatorValue,
)
from .jsontext import split_lines

# The largest contingency table that estimation._tally counts from the
# per-state bitsets (DiscreteDataset._state_bits) rather than by bincount
BITSET_CELLS = 128


@dataclass(frozen=True)
class RawLog:
    """Parsed historian log: named numeric columns plus optional timestamps."""

    columns: tuple[str, ...]
    values: np.ndarray  # shape (n_records, n_columns), float64
    timestamps: tuple[str, ...] | None = None

    @property
    def n_records(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise UnknownColumn(f"no column named {name!r}")
        return self.values[:, self.columns.index(name)]


def state_dtype(cards: Iterable[int]) -> np.dtype:
    """The dtype of the state indices of DPs with ``cards`` states: the
    smallest unsigned integer that holds the largest index, so uint8 up to
    256 states and uint16 up to 65,536, and int64 beyond that."""
    most = max(cards, default=1)
    return np.dtype(np.uint8 if most <= 1 << 8 else np.uint16 if most <= 1 << 16 else np.int64)


@dataclass(frozen=True)
class DiscreteDataset:
    """Records-by-variables matrix of state indices with per-variable specs.

    ``data`` may be given as any integer array; once its indices are checked
    against the specs it is held as ``state_dtype(cards)``, uint8 when every
    DP has at most 256 states, and kept as given when it has that dtype."""

    specs: tuple[VariableSpec, ...]
    data: np.ndarray = field(repr=False)  # shape (n_records, n_vars), state_dtype(cards)

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] != len(self.specs):
            raise EmptyDataset("data shape does not match specs")
        if self.data.shape[0] < 1:
            raise EmptyDataset("dataset needs at least one record")
        if len(self._column_of) != len(self.specs):
            repeated = sorted({name for name in self.names if self.names.count(name) > 1})
            raise ParseError(f"variable names must be unique; repeated: {', '.join(map(repr, repeated))}")
        if self.data.dtype.kind not in "iu":
            raise TypeError(f"state indices must be integers, got {self.data.dtype}")
        lows = self.data.min(axis=0) if self.data.dtype.kind == "i" else repeat(0)
        for spec, low, high in zip(self.specs, lows, self.data.max(axis=0)):
            if low < 0 or high >= spec.cardinality:
                raise UnmappedActuatorValue(f"{spec.name}: state index out of range")
        dtype = state_dtype(self.cards)
        if self.data.dtype != dtype:
            object.__setattr__(self, "data", self.data.astype(dtype))

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    @cached_property
    def _column_of(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.names)}

    @cached_property
    def cards(self) -> tuple[int, ...]:
        """The cardinality of each column, in column order."""
        return tuple(spec.cardinality for spec in self.specs)

    @cached_property
    def _state_bits(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-state bitsets of every column, stacked: a
        ``(states, ceil(n_records / 64))`` uint64 array in which bit
        ``n % 64`` of word ``n // 64`` in row ``first[k] + s`` is set iff
        record ``n`` has column ``k`` in state ``s``; the bits past the last
        record are zero. Returns the array and ``first``. A DP with more than
        ``BITSET_CELLS`` states, whose families the bitsets never count, gets
        no rows and ``first`` -1."""
        n = self.n_records
        width = -(-n // 64) * 64
        cards = np.array(self.cards)
        kept = np.where(cards <= BITSET_CELLS, cards, 0)
        first = np.where(kept > 0, np.cumsum(kept) - kept, -1)
        bits = np.empty((int(kept.sum()), width // 64), dtype=np.uint64)
        for k in np.flatnonzero(kept).tolist():
            member = np.zeros((kept[k], width), dtype=bool)
            np.equal(self.data[:, k], np.arange(kept[k], dtype=self.data.dtype)[:, None], out=member[:, :n])
            # popcounts and ANDs do not depend on the byte order inside a word
            bits[first[k]:first[k] + kept[k]] = np.packbits(member, axis=1, bitorder="little").view(np.uint64)
        return bits, first

    @property
    def columns(self) -> tuple[bytes | list[int], ...]:
        """Each DP's state indices in record order, as ``fit`` counts them
        (see :class:`datafile.Columns`): a ``bytes`` for a DP of at most 256
        states, else a list."""
        return tuple(col.astype(np.uint8).tobytes() if card <= 1 << 8 else col.tolist()
                     for col, card in zip(self.data.T, self.cards))

    @property
    def n_records(self) -> int:
        return self.data.shape[0]

    def index(self, name: str) -> int:
        try:
            return self._column_of[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownColumn(f"no variable named {name!r}") from None

    def spec(self, name: str) -> VariableSpec:
        return self.specs[self.index(name)]

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.index(name)]

    def cardinality(self, name: str) -> int:
        return self.spec(name).cardinality


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
                block.count(b"\r") == block.count(b"\r\n")
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


def parse_log(text: str) -> RawLog:
    """Parse historian log text into a :class:`RawLog`.

    The text is comma-separated, with the quoting rules of :mod:`csv`'s
    default dialect; rows whose cells are all blank are skipped. The first
    other row names the columns, and a column named ``Timestamp`` (any
    case) is set aside verbatim. Every other cell, stripped of whitespace,
    must be a finite number written in ASCII, as ``float`` reads it. Raises
    :class:`EmptyInput` when there is no header or no data row,
    :class:`ParseError` when :mod:`csv` cannot read the text or the value
    columns' names are not unique and non-empty, :class:`RaggedRow` on
    length mismatches, and :class:`NonNumericCell` when a value cell is not
    a finite number (``nan``, ``inf``, ``1_0`` and ``\\u0661`` included).
    The first faulty record decides which error is raised, and the message
    names the line of the text on which that record starts. The records
    are read a block at a time (:func:`_read_log`) into one float array.
    """
    columns, n_records, blocks = _read_log(LogText.of_str(text), stamps=True)
    values = np.empty((n_records, len(columns)))
    stamps, row = [], 0
    for numbers, block_stamps in blocks:
        values[row:row + len(numbers)] = numbers
        row += len(numbers)
        stamps.append(block_stamps)
    timestamps = None if stamps[0] is None else tuple(chain.from_iterable(stamps))
    return RawLog(columns=columns, values=values[:row], timestamps=timestamps)


def _header_columns(header: list[str]) -> tuple[list[int], list[int], tuple[str, ...]]:
    """The positions of the timestamp columns and of the value columns in
    the stripped ``header``, and the value columns' names."""
    ts_idx = [k for k, name in enumerate(header) if name.lower() == "timestamp"]
    value_idx = [k for k in range(len(header)) if k not in ts_idx]
    return ts_idx, value_idx, tuple(header[k] for k in value_idx)


def _unique_names(columns: tuple[str, ...]) -> bool:
    return len(set(columns)) == len(columns) and all(columns)


def _cuts(text: str, at: int) -> Iterator[str]:
    """``text[at:]`` in blocks of at least ``_BLOCK_CHARS`` characters, each
    cut at a line end."""
    while at < len(text):
        end = text.find("\n", at + _BLOCK_CHARS - 1) + 1 or len(text)
        yield text[at:end]
        at = end


def _read_log(log: LogText, stamps: bool = False) -> tuple[tuple[str, ...], int,
                                                       Iterator[tuple[np.ndarray, list[str] | None]]]:
    """The value columns of the log, a bound on its record count, exact
    when no line is blank and no cell spans lines, and its records a block
    at a time: their readings as a float array, and their timestamps when
    ``stamps`` is true and the log has a timestamp column, else None.

    Plain numeric text (no quotes, NUL or ``\\r`` outside a CRLF line end,
    the header on the first line, a value column) goes to numpy's C reader
    a block at a time, as it is. :mod:`csv` splits into rows any block that
    the C reader refuses and any other text, and the C reader reads the
    value cells of a batch of rows at a time. Any fault is raised through
    :func:`_raise_first_fault`: the header's at once, a record's when its
    block is read."""
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
    # on Python 3.10 an error; with no value column, loadtxt cannot tell a
    # blank line, which csv skips, from a record
    plain = reader.line_num == 1 and bool(columns) and log.plain
    ts = ts_idx[0] if stamps and ts_idx else None

    # csv's rows take some four times the memory of their text, so a batch
    # holds as many rows as a quarter of a block holds lines, on average
    size = max(1, _BLOCK_CHARS * log.n_lines // log.size // 4)

    def rows_read(source: Iterator[list[str]]) -> Iterator[tuple[np.ndarray, list[str] | None]]:
        """The readings and timestamps of the csv rows of ``source`` that
        are not blank, a batch of rows at a time."""
        for batch in iter(lambda: list(islice(source, size)), []):
            rows = [row for row in batch if any(map(str.strip, row))]
            if not rows:
                continue
            values = None
            if all(len(row) == len(header) for row in rows):
                cells = "\n".join([",".join([row[k].strip() for k in value_idx]) for row in rows])
                # a cell that holds a line end would read as a record of its own
                if "\r" not in cells and cells.count("\n") == len(rows) - 1:
                    values = _read_numbers(cells, (len(rows), len(columns)))
            if values is None:
                _raise_first_fault(log.text())
            yield values, None if ts is None else [row[ts].strip() for row in rows]

    def plain_batches() -> Iterator[tuple[np.ndarray, list[str] | None]]:
        n_commas, limit = len(header) - 1, csv.field_size_limit()
        for block in chunks:  # after the first line, which csv has read
            lines = block.split("\n")
            if not lines[-1]:
                lines.pop()
            # usecols would drop the extra cells of a long row without a word,
            # and only csv names a field longer than its limit
            values = None
            if set(map(str.count, lines, repeat(","))) == {n_commas} and max(map(len, lines)) <= limit:
                values = _read_numbers(block, (len(lines), len(columns)), value_idx)
            if values is None:
                yield from rows_read(csv.reader(io.StringIO(block)))
            else:
                yield values, None if ts is None else [line.split(",", ts + 1)[ts].strip() for line in lines]

    def blocks(batches: Iterator[tuple[np.ndarray, list[str] | None]]) -> Iterator[tuple[np.ndarray, list[str] | None]]:
        read = 0
        with suppress(csv.Error):  # a carriage return inside a field, or a field above csv's limit
            for batch in batches:
                read += len(batch[0])
                yield batch
            if read:
                return
        _raise_first_fault(log.text())

    return columns, log.n_lines - reader.line_num, blocks(plain_batches() if plain else rows_read(reader))


def _read_numbers(body: str, shape: tuple[int, int], usecols: list[int] | None = None) -> np.ndarray | None:
    """The comma-separated cells of ``body``, one record per line, read by
    numpy's C reader as a float array of ``shape``; None when a cell is not a
    finite number or the records do not fill ``shape``. ``loadtxt`` strips
    cells as ``str.strip`` does and reads them as ``float`` does, but for
    digit-group underscores and digits outside ASCII, which it refuses."""
    if not shape[1]:
        return np.empty(shape)
    if body.isspace() or not body:  # loadtxt warns on text that holds no record
        return None
    try:
        values = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.float64, comments=None, ndmin=2,
                            usecols=usecols)
    except ValueError:  # a cell that is not a number, or records of unequal length
        return None
    # loadtxt skips blank lines, and reads "nan", "inf" and "1e400", none of them a reading
    if values.shape != shape or not np.isfinite(values).all():
        return None
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
            cell = row[k].strip()
            try:
                value = float(cell)
            except ValueError:
                value = nan
            # float() also reads "nan", "inf", "1_0" and "١"; none of them is a reading
            if not isfinite(value) or "_" in cell or not cell.isascii():
                raise NonNumericCell(f"line {r}, column {header[k]!r}: {cell!r}")
    raise AssertionError("parse_log found a fault that the line scan does not")


def discretize(log: RawLog, specs: list[VariableSpec] | tuple[VariableSpec, ...]) -> DiscreteDataset:
    """Map raw readings to state indices, one column per spec, in spec order."""
    return _discretize_blocks(log.columns, log.n_records, [log.values], specs)


def discretize_text(text: str | LogText, specs: list[VariableSpec] | tuple[VariableSpec, ...]) -> DiscreteDataset:
    """The dataset of historian log ``text``, a str or a :class:`LogText`:
    the same dataset, or the same error, as ``discretize(parse_log(text),
    specs)``. Each block of records is mapped to states as it is read, so
    that no more than the dataset and one block are held."""
    columns, n_records, blocks = _read_log(text if isinstance(text, LogText) else LogText.of_str(text))
    return _discretize_blocks(columns, n_records, (values for values, _ in blocks), specs)


def _discretize_blocks(columns: tuple[str, ...], n_records: int, blocks: Iterable[np.ndarray],
                       specs: list[VariableSpec] | tuple[VariableSpec, ...]) -> DiscreteDataset:
    """The dataset of the readings ``blocks`` of the log ``columns``, which
    hold at most ``n_records`` records. Every block is read before an error
    is raised: :class:`MissingColumn` for the first spec whose column the
    log lacks, then the first unmapped reading of the first spec that has
    one."""
    specs = tuple(specs)
    maps = [(k, columns.index(spec.name), _state_map(spec)) for k, spec in enumerate(specs) if spec.name in columns]
    data = np.empty((n_records, len(specs)), dtype=state_dtype(spec.cardinality for spec in specs))
    unmapped, row = {}, 0  # unmapped: the first error of each spec that has one
    for values in blocks:
        for k, at, states in maps:
            try:
                data[row:row + len(values), k] = states(values[:, at])
            except UnmappedActuatorValue as exc:
                unmapped.setdefault(k, exc)
        row += len(values)
    for spec in specs:
        if spec.name not in columns:
            raise MissingColumn(f"log has no column {spec.name!r}")
    if unmapped:
        raise unmapped[min(unmapped)]
    return DiscreteDataset(specs=specs, data=data[:row])


def _state_map(spec: VariableSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The map from readings of the spec's column to state indices. A sensor
    reading goes to its bin. An actuator reading goes to the position of its
    rounded value in the spec's codes (``0..n-1`` when omitted); the first
    reading that is not within 1e-9 of an integer, or whose integer is not a
    code, raises :class:`UnmappedActuatorValue`."""
    if spec.kind == SENSOR:
        edges = np.asarray(spec.bin_edges)
        return lambda raw: edges.searchsorted(raw, side="right")
    codes = spec.codes if spec.codes is not None else tuple(range(spec.cardinality))
    # readings are float64, so a code that float64 cannot hold matches none of them
    held = sorted((c, k) for k, c in enumerate(codes)
                  if isinstance(c, Real) and abs(c) <= sys.float_info.max and float(c) == c)
    # the NaN after the largest code is where searchsorted puts a reading above
    # every code (and NaN itself); it equals no reading
    table = np.array([float(c) for c, _ in held] + [nan])
    state_at = np.array([k for _, k in held], dtype=np.int64)

    def states(raw: np.ndarray) -> np.ndarray:
        code = np.rint(raw)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, and NaN fails the test as it should
            non_integer = ~(np.abs(raw - code) <= 1e-9)
        pos = table.searchsorted(code)
        fault = non_integer | (table[pos] != code)
        if fault.any():
            i = int(fault.argmax())
            if non_integer[i]:
                raise UnmappedActuatorValue(f"{spec.name}: non-integer actuator value {float(raw[i])!r}")
            raise UnmappedActuatorValue(f"{spec.name}: code {int(code[i])} not in declared codes {codes}")
        return state_at[pos]

    return states


def project(ds: DiscreteDataset, names: list[str] | tuple[str, ...]) -> DiscreteDataset:
    """Column-subset dataset preserving record order."""
    idx = [ds.index(n) for n in names]
    specs = tuple(ds.specs[i] for i in idx)
    # the subset's dtype may be narrower than the dataset's
    data = ds.data[:, idx].astype(state_dtype(spec.cardinality for spec in specs), order="C")
    return DiscreteDataset(specs=specs, data=data)


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


# --- dataset JSON -------------------------------------------------------------
#
# The layout of the file, and its reader of one-digit records, are in datafile.

def dataset_to_json(ds: DiscreteDataset) -> dict:
    """The dataset as a dict for the CLI's JSON writer; ``data`` is the
    records array itself (its dtype is ``state_dtype`` of the specs), which
    the writer lays out with :func:`records_json`."""
    return {"specs": _specs_to_json(ds.specs), "data": ds.data}


def dataset_from_json(obj: dict) -> DiscreteDataset:
    """Validate a parsed dataset JSON object. Every ``data`` cell must be an
    integer: a bool, a float, a string or an integer outside int64 raises
    :class:`ParseError`. ``data`` may also be an integer array. The cells
    are read as int64 and narrowed by :class:`DiscreteDataset` once their
    range is checked."""
    try:
        specs = _specs_from_json(obj["specs"])
        data = np.asarray(obj["data"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed dataset JSON: {exc}") from None
    except OverflowError:
        raise ParseError("malformed dataset JSON: a data cell is outside the int64 range") from None
    ds = DiscreteDataset(specs=specs, data=data)
    # checked last, so that a dataset that fails a check above keeps its error
    if not _integer_cells(obj["data"]):
        raise ParseError("malformed dataset JSON: every data cell must be an integer")
    return ds


def _integer_cells(data) -> bool:
    """Whether every cell of ``data``, an array or a sequence of rows, is an
    integer and none a bool."""
    if isinstance(data, np.ndarray):
        return data.dtype.kind in "iu"
    return all(issubclass(t, (int, np.integer)) and t is not bool
               for t in set(map(type, chain.from_iterable(data))))


def dataset_json_chunks(ds: DiscreteDataset) -> Iterator[bytes]:
    """The bytes of ``json_text(dataset_to_json(ds), "\\n") + "\\n"``, the
    dataset's file as the CLI writes it, in pieces: its specs, its records a
    block of about ``_BLOCK_CHARS`` bytes at a time, and its end."""
    yield (_written_head(ds.specs) + _DATA_KEY).encode()
    step = max(1, _BLOCK_CHARS // (2 * len(ds.specs) + len(_ROW_END)))
    for at in range(0, ds.n_records, step):
        yield records_json(ds.data[at:at + step], _RECORD_SEP) + (_RECORD_SEP if at + step < ds.n_records else b"")
    yield _DATA_END


def read_dataset_file(path: str) -> DiscreteDataset | None:
    """The dataset in the file at ``path`` when its bytes are exactly the
    writer's (:func:`dataset_json_chunks`) and each DP has at most 10
    states, read a block of records at a time into one array; else None,
    also when the file cannot be read, and the caller reads the file whole
    through :mod:`json`, which reads it or names its error."""
    try:
        with open(path, "rb") as fh:
            return _dataset_as_written(fh)
    except OSError:
        return None


def dataset_from_text(text: str) -> DiscreteDataset:
    """Read dataset JSON text: the same dataset, or the same error, as
    ``dataset_from_json(json.loads(text))``. The text of a file exactly as
    ``discretize`` writes it, for DPs of at most 10 states each, has its
    records read as one array instead of a list per record: its specs are
    written back and compared with the text, and its records are checked
    byte by byte against the writer's layout. Text that is not JSON raises
    :class:`json.JSONDecodeError`, with json's own message."""
    ds = _dataset_as_written(io.BytesIO(text.encode()))
    return ds if ds is not None else dataset_from_json(json.loads(text))


def _dataset_as_written(fh: BinaryIO) -> DiscreteDataset | None:
    """The dataset of DPs of at most 10 states whose UTF-8 text, as the
    writer lays it out, is what ``fh`` holds, its records read a block at a
    time by :func:`datafile.written_records` into one uint8 array; None
    when there is none, and json then reads it."""
    found = written_records(fh)
    if found is None:
        return None
    specs, n, blocks = found
    w = len(specs)
    data, at = np.empty((n, w), dtype=np.uint8), 0
    for block in blocks:
        rows = np.frombuffer(block, dtype=np.uint8).reshape(-1, row_bytes(w))
        np.subtract(rows[:, 0:2 * w:2], ord("0"), out=data[at:at + len(rows)])
        at += len(rows)
    if at < n:
        return None
    try:
        return DiscreteDataset(specs=specs, data=data)
    except CpsCausalError:
        return None


def records_json(data: np.ndarray, sep: bytes) -> bytes:
    """The rows of a 2-D integer array as compact JSON lists joined by
    ``sep``: ``[0,2,1]`` + sep + ``[1,0,1]``. Each cell is written into a
    fixed-width field, right-aligned and padded with NUL bytes, and one
    ``bytes.translate`` drops the padding."""
    n, w = data.shape
    if n == 0:
        return b""
    low, high = (int(data.min()), int(data.max())) if data.size else (0, 0)
    sign = int(low < 0)
    n_digits = len(str(max(-low, high)))
    field_width = sign + n_digits + 1  # the last byte is the ',' after the cell
    row = np.zeros((n, 1 + w * field_width + 1 + len(sep)), dtype=np.uint8)
    row[:, 0] = ord("[")
    fields = row[:, 1:1 + w * field_width].reshape(n, w, field_width)
    if sign:
        fields[:, :, 0][data < 0] = ord("-")
    rest = np.abs(data).astype(np.uint64) if sign else data  # the int64 minimum included
    for k in range(n_digits):  # right to left
        place = fields[:, :, -2 - k]
        np.remainder(rest, 10, out=place, casting="unsafe")
        place += ord("0")
        if k:
            place[rest == 0] = 0  # no leading zeros
        if k < n_digits - 1:
            rest = rest // 10
    fields[:, :-1, -1] = ord(",")
    row[:, 1 + w * field_width] = ord("]")
    row[:, row.shape[1] - len(sep):] = np.frombuffer(sep, dtype=np.uint8)
    row[-1, row.shape[1] - len(sep):] = 0  # nothing after the last row
    return row.tobytes().translate(None, b"\0")
