"""Historian-log ingestion and discretization into numpy datasets.

A historian log is delimiter-separated text: one header row of design
parameter (DP) names, then one numeric record per timestep; each DP gets a
:class:`VariableSpec` that fixes its state vocabulary, and a sensor's bin
edges. The log reader, the map of readings to states and the spec file are
:mod:`logfile`'s, which runs on the standard library alone; this module
holds what they feed into numpy. :func:`parse_log` fills one float array
from the reader's blocks; :func:`discretize_text` writes each block's
states into the records of a :class:`DiscreteDataset` as soon as the block
is read, so that it holds the dataset and one block, and never the whole
log as numbers; :func:`discretize` maps a :class:`RawLog` through the same
map, a block of records at a time.

The dataset JSON file's layout and its writer are :mod:`datafile`'s. The
CLI writes the file a block of records at a time with
:func:`datafile.dataset_chunks`, the bytes that :func:`dataset_json_chunks`
gives for a dataset, and :func:`jsontext.json_text` for its dict, which lays
out the records with :func:`records_json`. :func:`read_dataset_file` and
:func:`dataset_from_text` read the writer's text of a dataset whose DPs
have at most 10 states, and so one digit per cell, into one array from the
checked blocks of :func:`datafile.written_records`, and any other text
through :mod:`json`.
"""

from __future__ import annotations

import io
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import BinaryIO

import numpy as np

from .datafile import (  # noqa: F401  ACTUATOR, SENSOR: still named here
    ACTUATOR,
    SENSOR,
    VariableSpec,
    _specs_from_json,
    _specs_to_json,
    dataset_chunks,
    record_chunks,
    records_per_chunk,
    row_bytes,
    written_records,
)
from .errors import (
    CpsCausalError,
    EmptyDataset,
    ParseError,
    UnknownColumn,
    UnmappedActuatorValue,
)
from .logfile import (  # noqa: F401  format_spec_file, parse_spec_file: still named here
    LogText,
    StateMaps,
    _read_log,
    format_spec_file,
    parse_spec_file,
    readings,
)

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
    are read a block at a time (:func:`logfile._read_log`) into one float
    array.
    """
    columns, n_records, read = _read_log(LogText.of_str(text), stamps=True)
    values = np.empty((n_records, len(columns)))
    stamps, row = [], 0
    for n, block, block_stamps in read(lambda cells, suspect: [readings(column, suspect) for column in cells]):
        for k, column in enumerate(block):
            values[row:row + n, k] = column
        row += n
        stamps.append(block_stamps)
    timestamps = None if stamps[0] is None else tuple(chain.from_iterable(stamps))
    return RawLog(columns=columns, values=values[:row], timestamps=timestamps)


def discretize(log: RawLog, specs: list[VariableSpec] | tuple[VariableSpec, ...]) -> DiscreteDataset:
    """Map raw readings to state indices, one column per spec, in spec
    order, through the map of :func:`discretize_text`, a block of records
    at a time."""
    specs, maps = tuple(specs), StateMaps(log.columns, specs)
    step = records_per_chunk(len(log.columns))
    parts = (log.values[at:at + step] for at in range(0, log.n_records, step))
    return _dataset(log.n_records, ((len(part), maps.of_readings(part.T.tolist())) for part in parts), maps, specs)


def discretize_text(text: str | LogText, specs: list[VariableSpec] | tuple[VariableSpec, ...]) -> DiscreteDataset:
    """The dataset of historian log ``text``, a str or a :class:`LogText`:
    the same dataset, or the same error, as ``discretize(parse_log(text),
    specs)``. Each block of records is mapped to states as it is read, so
    that no more than the dataset and one block are held."""
    columns, n_records, read = _read_log(text if isinstance(text, LogText) else LogText.of_str(text))
    specs, maps = tuple(specs), StateMaps(columns, specs)
    return _dataset(n_records, ((n, states) for n, states, _ in read(maps.of_cells)), maps, specs)


def _dataset(n_records: int, blocks: Iterable[tuple[int, list]], maps: StateMaps,
             specs: tuple[VariableSpec, ...]) -> DiscreteDataset:
    """The dataset of ``specs`` whose states ``maps`` gives ``blocks`` of,
    for at most ``n_records`` records; once every block is read, the error
    of the maps, if any."""
    data = np.empty((n_records, len(specs)), dtype=state_dtype(spec.cardinality for spec in specs))
    row = 0
    for n, states in blocks:
        for k, column in enumerate(states):
            data[row:row + n, k] = np.frombuffer(column, dtype=np.uint8) if isinstance(column, bytes) else column
        row += n
    maps.check()
    return DiscreteDataset(specs=specs, data=data[:row])


def project(ds: DiscreteDataset, names: list[str] | tuple[str, ...]) -> DiscreteDataset:
    """Column-subset dataset preserving record order."""
    idx = [ds.index(n) for n in names]
    specs = tuple(ds.specs[i] for i in idx)
    # the subset's dtype may be narrower than the dataset's
    data = ds.data[:, idx].astype(state_dtype(spec.cardinality for spec in specs), order="C")
    return DiscreteDataset(specs=specs, data=data)


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
    return dataset_chunks(ds.specs, _record_blocks(ds.data))


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


def _record_blocks(data: np.ndarray) -> Iterator[tuple[int, list]]:
    """The records of a 2-D integer array as :func:`datafile.record_chunks`
    takes them, ``records_per_chunk`` records at a time: a ``bytes`` per
    column of a uint8 array, else a list."""
    step = records_per_chunk(data.shape[1])
    for at in range(0, len(data), step):
        block = data[at:at + step]
        yield len(block), [column.tobytes() if data.dtype == np.uint8 else column.tolist() for column in block.T]


def records_json(data: np.ndarray, sep: bytes) -> bytes:
    """The rows of a 2-D integer array as compact JSON lists joined by
    ``sep``: ``[0,2,1]`` + sep + ``[1,0,1]``, as :func:`datafile.record_chunks`
    writes them."""
    return b"".join(record_chunks(_record_blocks(data), sep))

