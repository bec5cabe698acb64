"""Variable specs, the one dataset type, and the dataset file: its layout,
its one writer and its fast reader.

A :class:`VariableSpec` fixes a DP's state vocabulary, and a sensor's bin
edges. A :class:`DiscreteDataset` holds the specs and one column of state
indices per DP, a ``bytes`` for a DP of at most 256 states; every command
and the library's counting kernel (:attr:`DiscreteDataset.tallies`) read
it so. A dataset file holds the specs and the records' state indices:

  {"specs": [{"name", "kind", "states", "bin_edges", "codes"}, ...],
   "data": [[state index per spec], ...]}

which the CLI writes with :func:`jsontext.json_text`, as
``json.dumps(indent=2)`` would but for one record per line::

  {
    "specs": [
      ...
    ],
    "data": [
      [0,2,1],
      [1,0,1]
    ]
  }

The one writer, :func:`record_chunks`, writes the records a block at a
time: a block whose cells are all one digit fills a template row with
each DP's digits, and any other is written a record at a time. When every DP
has at most 10 states, every cell is one digit, so every record takes as
many bytes. :func:`written_records` reads such a text a block of records
at a time: the specs are written back and compared with the text, and
each block, every digit translated to ``0``, must equal the writer's
template row repeated; :func:`read_columns` gathers the blocks into a
dataset. Any other text is left to :mod:`json`, and
:func:`dataset_from_json` reads what it parses or names its fault.
Standard library and the package only, so that no command but ``sample``
loads numpy.
"""

from __future__ import annotations

import io
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import isfinite
from typing import BinaryIO

from .errors import CpsCausalError, EmptyDataset, ParseError, UnknownColumn, UnmappedActuatorValue
from .jsontext import Rows, json_text, refuse_lone_surrogate
from .tally import Tallies

SENSOR = "sensor"
ACTUATOR = "actuator"

_LABEL_RE = re.compile(r"^[A-Za-z0-9_.+-]+$")

# The block size of the dataset file's writer and reader: a dataset file is
# written and read in blocks of whole records of about this many bytes,
# some 600 records of the benchmark's 51-DP dataset or 2,000 of its 12-DP
# one. fit's and learn's reads and the writer each take 3-5 ms on either
# dataset with 64 KiB blocks, and as long with 256 KiB ones, which only hold
# four times the bytes (2-core x86-64 VM)
_BLOCK_CHARS = 1 << 16


@dataclass(frozen=True)
class VariableSpec:
    """Discretization contract for one DP.

    Sensors map real values through ``bin_edges`` (length ``len(states)-1``,
    strictly increasing). Actuators map raw integer codes positionally
    through ``codes``; when ``codes`` is omitted the raw values must already
    be the state indices ``0..len(states)-1``.
    """

    name: str
    kind: str
    states: tuple[str, ...]
    bin_edges: tuple[float, ...] | None = None
    codes: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ParseError(f"variable name must be text, got {self.name!r}")
        refuse_lone_surrogate("variable name", self.name)
        if self.kind not in (SENSOR, ACTUATOR):
            raise ParseError(f"{self.name}: kind must be sensor or actuator, got {self.kind!r}")
        if len(self.states) < 2:
            raise ParseError(f"{self.name}: needs at least 2 states")
        if len(set(self.states)) != len(self.states):
            raise ParseError(f"{self.name}: state labels must be unique")
        for lab in self.states:
            if not _LABEL_RE.match(lab):
                raise ParseError(f"{self.name}: bad state label {lab!r}")
        if self.kind == SENSOR:
            if self.bin_edges is None or len(self.bin_edges) != len(self.states) - 1:
                raise ParseError(f"{self.name}: sensor needs len(states)-1 bin edges")
            if self.codes is not None:
                raise ParseError(f"{self.name}: sensors do not take codes")
            if not all(isfinite(e) for e in self.bin_edges):
                raise ParseError(f"{self.name}: bin edges must be finite")
            if any(a >= b for a, b in zip(self.bin_edges, self.bin_edges[1:])):
                raise ParseError(f"{self.name}: bin edges must be strictly increasing")
        else:
            if self.bin_edges is not None:
                raise ParseError(f"{self.name}: actuators do not take bin edges")
            if self.codes is not None:
                if len(self.codes) != len(self.states):
                    raise ParseError(f"{self.name}: codes must match states one-to-one")
                if len(set(self.codes)) != len(self.codes):
                    raise ParseError(f"{self.name}: codes must be unique")

    @property
    def cardinality(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class DiscreteDataset:
    """A discretized dataset: its specs, and its records as one column of
    state indices per DP, in record order: a ``bytes`` for a DP of at most
    256 states, else a list of ints. A column given as any other sequence
    of ints is held so once its states are checked.

    Raises :class:`EmptyDataset` when the columns do not match the specs
    one to one and in length, or hold no record, :class:`ParseError` when a
    name repeats, and :class:`UnmappedActuatorValue` for the first DP with
    a state index outside its states. A dataset of no DPs holds no record."""

    specs: tuple[VariableSpec, ...]
    columns: tuple[bytes | list[int], ...] = field(repr=False)

    def __post_init__(self):
        specs, columns = tuple(self.specs), tuple(self.columns)
        if len(columns) != len(specs) or len(set(map(len, columns))) > 1:
            raise EmptyDataset("data shape does not match specs")
        if columns and not len(columns[0]):
            raise EmptyDataset("dataset needs at least one record")
        object.__setattr__(self, "specs", specs)
        if len(self._column_of) != len(specs):
            repeated = sorted({name for name in self.names if self.names.count(name) > 1})
            raise ParseError(f"variable names must be unique; repeated: {', '.join(map(repr, repeated))}")
        held = []
        for spec, column in zip(specs, columns):
            card = spec.cardinality
            if card <= 1 << 8 and not isinstance(column, (bytes, bytearray)):
                with suppress(ValueError, TypeError):  # a state outside 0..255, or not an int
                    column = bytes(column)
            if isinstance(column, (bytes, bytearray)):
                if card < 1 << 8 and column.translate(None, bytes(range(card))):
                    raise UnmappedActuatorValue(f"{spec.name}: state index out of range")
            elif min(column) < 0 or max(column) >= card:
                raise UnmappedActuatorValue(f"{spec.name}: state index out of range")
            held.append(bytes(column) if card <= 1 << 8 else list(column))
        object.__setattr__(self, "columns", tuple(held))

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
    def tallies(self) -> Tallies:
        """The one counting kernel over the columns, which keeps every table
        it counts for each later count of the dataset."""
        return Tallies(self.columns, self.cards)

    @property
    def n_records(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def index(self, name: str) -> int:
        try:
            return self._column_of[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownColumn(f"no variable named {name!r}") from None

    def spec(self, name: str) -> VariableSpec:
        return self.specs[self.index(name)]

    def column(self, name: str) -> bytes | list[int]:
        return self.columns[self.index(name)]

    def cardinality(self, name: str) -> int:
        return self.spec(name).cardinality


def _specs_to_json(specs: tuple[VariableSpec, ...]) -> list[dict]:
    return [
        {
            "name": s.name,
            "kind": s.kind,
            "states": list(s.states),
            "bin_edges": list(s.bin_edges) if s.bin_edges is not None else None,
            "codes": list(s.codes) if s.codes is not None else None,
        }
        for s in specs
    ]


def _specs_from_json(specs) -> tuple[VariableSpec, ...]:
    return tuple(
        VariableSpec(
            name=s["name"],
            kind=s["kind"],
            states=tuple(s["states"]),
            bin_edges=tuple(s["bin_edges"]) if s.get("bin_edges") is not None else None,
            codes=tuple(s["codes"]) if s.get("codes") is not None else None,
        )
        for s in specs
    )


# The writer's text of every dataset holds this once, between its specs and
# its records: a raw newline cannot sit inside a JSON string
_DATA_KEY = ',\n  "data": [\n    '
# what the writer puts between two records, and after the last one
_RECORD_SEP = b",\n    "
_DATA_END = b"\n  ]\n}\n"
# the bytes from a record's last cell to the next record's first, and from
# the last record's last cell to the end of the text: as long as each other,
# so that every record of a given width takes as many bytes
_ROW_END = b"]" + _RECORD_SEP + b"["
_LAST_ROW_END = b"]" + _DATA_END

# every digit as "0", and as its value; any other byte as it is
_DIGIT_AS_ZERO = bytes.maketrans(b"0123456789", b"0" * 10)
_DIGIT_AS_VALUE = bytes.maketrans(b"0123456789", bytes(range(10)))
# the integers 0 to 9, and each as its ASCII digit
_ONE_DIGIT = bytes(range(10))
_VALUE_AS_DIGIT = bytes.maketrans(_ONE_DIGIT, b"0123456789")


def _written_head(specs: tuple[VariableSpec, ...]) -> str:
    """The writer's text of a dataset with ``specs`` up to ``_DATA_KEY``."""
    return json_text({"specs": _specs_to_json(specs), "data": []}, "\n").removesuffix(',\n  "data": []\n}')


def row_bytes(w: int) -> int:
    """The bytes of a record of ``w`` one-digit cells in the writer's
    layout, from its first cell to the next record's first."""
    return 2 * w - 1 + len(_ROW_END)


def _template_row(w: int, end: bytes) -> bytes:
    """A record of ``w`` one-digit cells as the writer lays it out, every
    digit as ``0``, from its first cell to the next record's: ``0,0,0`` and
    then ``end``, the bytes from its last cell to the next record's first."""
    return b",".join([b"0"] * w) + end


def written_records(fh: BinaryIO) -> tuple[tuple[VariableSpec, ...], int, Iterator[bytes]] | None:
    """The specs and the record count of the dataset of DPs of at most 10
    states whose UTF-8 text, as the writer lays it out, ``fh`` holds, and
    its records a block at a time; None when the text up to the records is
    not the writer's, or the records cannot all take one digit per cell,
    and json then reads it. Only the text up to the records is held whole.

    Each block is whole records of ``row_bytes(len(specs))`` bytes, as in
    the text from the first cell of each: the digit of DP ``j`` in the
    block's record ``i`` is byte ``i * row + 2 * j``.
    The blocks stop before the first that is not in the writer's layout,
    so a caller that gets fewer records than the count leaves the text to
    json. The state indices are not checked against the specs."""
    key, head = _DATA_KEY.encode(), bytearray()
    # from before the last block, in case the key straddles two blocks
    while (at := head.find(key, max(0, len(head) - _BLOCK_CHARS - len(key)))) < 0:
        block = fh.read(_BLOCK_CHARS)
        if not block:
            return None
        head += block
    size = fh.seek(0, io.SEEK_END) - at - len(key) - 1  # from the first record's first cell to the end
    fh.seek(at + len(key))
    try:
        text = head[:at].decode()
        specs = _specs_from_json(json.loads(text + "}")["specs"])
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError, CpsCausalError):
        return None
    # the writer's text of the specs, then a "[" and the records, in which
    # every cell is one digit when every DP has at most 10 states
    if not specs or max(s.cardinality for s in specs) > 10 or _written_head(specs) != text or fh.read(1) != b"[":
        return None
    row = row_bytes(len(specs))
    if size <= 0 or size % row:
        return None
    return specs, size // row, _checked_blocks(fh, size // row, len(specs))


def _checked_blocks(fh: BinaryIO, n: int, w: int) -> Iterator[bytes]:
    """The next ``n`` records of ``w`` one-digit cells in ``fh``, a block
    of records of about ``_BLOCK_CHARS`` bytes at a time, as
    :func:`written_records` gives them, up to the first block that is not
    in the writer's layout: each record as ``0,2,1],\\n    [`` and the last
    as ``0,2,1]\\n  ]\\n}\\n``."""
    template = _template_row(w, _ROW_END)
    row = len(template)
    step = max(1, _BLOCK_CHARS // row)
    rows = template * step
    for at in range(0, n, step):
        k = min(step, n - at)
        block = fh.read(k * row)
        layout = rows[:k * row] if at + k < n else rows[:(k - 1) * row] + template[:-len(_ROW_END)] + _LAST_ROW_END
        if block.translate(_DIGIT_AS_ZERO) != layout:
            return
        yield block


def records_per_chunk(w: int) -> int:
    """The records of ``w`` cells in each block that the writer writes."""
    return max(1, _BLOCK_CHARS // (2 * w + len(_ROW_END)))


def column_blocks(columns: Sequence[bytes | Sequence[int]], n: int) -> Iterator[tuple[int, list]]:
    """The ``n`` records of ``columns``, one sequence of state indices per
    DP, as :func:`record_chunks` writes them: ``records_per_chunk`` records
    at a time, and their count."""
    step = records_per_chunk(len(columns))
    for at in range(0, n, step):
        yield min(step, n - at), [column[at:at + step] for column in columns]


def dataset_chunks(specs: Sequence[VariableSpec],
                   blocks: Iterable[tuple[int, Sequence[bytes | Sequence[int]]]]) -> Iterator[bytes]:
    """The bytes of the dataset file of ``specs`` whose records ``blocks``
    holds, as :func:`record_chunks` takes them, as the CLI writes it
    (``json_text`` of the dataset and a newline), in pieces: its specs, its
    records a block at a time, and its end."""
    yield (_written_head(tuple(specs)) + _DATA_KEY).encode()
    yield from record_chunks(blocks, _RECORD_SEP)
    yield _DATA_END


def record_chunks(blocks: Iterable[tuple[int, Sequence[bytes | Sequence[int]]]], sep: bytes) -> Iterator[bytes]:
    """The records of ``blocks``, each a record count and the records'
    integers one sequence per column, as compact JSON lists joined by
    ``sep`` (``[0,2,1]`` + sep + ``[1,0,1]``), a block at a time. A block
    whose columns are all ``bytes`` of the integers 0 to 9 fills
    :func:`_checked_blocks`' template row, one stride-slice assignment of
    each column's digits; any other is written a record at a time."""
    end = b"]" + sep + b"["
    for k, (n, columns) in enumerate(blocks):
        head = sep + b"[" if k else b"["
        if all(isinstance(column, (bytes, bytearray)) and not column.translate(None, _ONE_DIGIT)
               for column in columns):
            row = _template_row(len(columns), end)
            text = bytearray(head + row * n)
            for j, column in enumerate(columns):
                text[len(head) + 2 * j::len(row)] = column.translate(_VALUE_AS_DIGIT)
            del text[len(text) - len(end) + 1:]  # the separator and "[" after the last record
            yield bytes(text)
        else:
            rows = ("[" + ",".join(map(str, record)) + "]" for record in zip(*columns))
            yield head[:-1] + sep.decode().join(rows).encode()


def read_columns(path: str) -> DiscreteDataset | None:
    """The dataset in the file at ``path``, when its bytes are exactly the
    writer's, each DP has at most 10 states and the records pass
    :class:`DiscreteDataset`'s checks; else None, also when the file cannot
    be read, and the caller reads the file whole through :mod:`json`, which
    reads it or names its error."""
    try:
        with open(path, "rb") as fh:
            return _columns_as_written(fh)
    except OSError:
        return None


def _columns_as_written(fh: BinaryIO) -> DiscreteDataset | None:
    """The dataset whose writer's text ``fh`` holds, as :func:`read_columns`
    reads it: each DP's digits gathered from the blocks of
    :func:`written_records` into one ``bytes``, then translated to state
    indices, one DP at a time."""
    found = written_records(fh)
    if found is None:
        return None
    specs, n, blocks = found
    row, at = row_bytes(len(specs)), 0
    digits = [bytearray(n) for _ in specs]
    for block in blocks:
        k = len(block) // row
        for j, column in enumerate(digits):
            column[at:at + k] = block[2 * j::row]
        at += k
    if at < n:
        return None
    columns = []
    while digits:  # a DP at a time, so that the records are held about once
        columns.append(bytes(digits.pop(0).translate(_DIGIT_AS_VALUE)))
    try:
        return DiscreteDataset(specs=specs, columns=columns)
    except CpsCausalError:
        return None


def dataset_to_json(ds: DiscreteDataset) -> dict:
    """The dataset as a dict for the CLI's JSON writer, whose ``data`` the
    writer lays out one record per line, through :func:`record_chunks`."""
    return {"specs": _specs_to_json(ds.specs),
            "data": Rows(lambda sep: record_chunks(column_blocks(ds.columns, ds.n_records), sep))}


def dataset_from_json(obj: dict) -> DiscreteDataset:
    """Validate a parsed dataset JSON object. ``data`` must be a list of
    records of one integer per spec: a bool, a float, a string or an
    integer outside int64 raises :class:`ParseError`. The cells are first
    read as int64, as numpy's ``asarray(data, dtype=int64)`` reads them, so
    that a fault has the class and message it has there, and any other
    check of :class:`DiscreteDataset` comes before that of the cells'
    types."""
    try:
        specs = _specs_from_json(obj["specs"])
        shape, cells, types = _int64_cells(obj["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed dataset JSON: {exc}") from None
    except OverflowError:
        raise ParseError("malformed dataset JSON: a data cell is outside the int64 range") from None
    try:
        if len(shape) != 2 or shape[1] != len(specs):
            raise EmptyDataset("data shape does not match specs")
        ds = DiscreteDataset(specs=specs, columns=[cells[k::len(specs)] for k in range(len(specs))])
    except CpsCausalError:
        # numpy refuses a cell outside int64 before any check of the
        # dataset; _int64_cells leaves that check to here for int cells
        if cells and (min(cells) < -1 << 63 or max(cells) >= 1 << 63):
            raise ParseError("malformed dataset JSON: a data cell is outside the int64 range") from None
        raise
    # checked last, so that a dataset that fails a check above keeps its error
    if not all(issubclass(t, int) and t is not bool for t in types):
        raise ParseError("malformed dataset JSON: every data cell must be an integer")
    return ds


def _int64_cells(data) -> tuple[tuple[int, ...], list[int], set[type]]:
    """The shape of the nested lists ``data``, its cells in row-major
    order, each as ``int`` reads it, and the cells' types: the shape and
    the faults of numpy's ``asarray(data, dtype=int64)``, but for an
    ``int`` cell outside int64, which the caller refuses. A level that
    mixes lists and other values, or holds lists of unequal lengths,
    raises numpy's :class:`ValueError`; the first other cell that ``int``
    refuses raises its error, or :class:`OverflowError` when it is outside
    int64."""
    shape, cells = [], [data]
    while True:
        types = set(map(type, cells))
        lists = {t for t in types if issubclass(t, (list, tuple))}
        if not lists:
            break
        if lists != types or len(set(map(len, cells))) > 1:
            raise ValueError("setting an array element with a sequence. The requested array has an inhomogeneous "
                             f"shape after {len(shape)} dimensions. The detected shape was {tuple(shape)} + "
                             "inhomogeneous part.")
        shape.append(len(cells[0]))
        cells = list(chain.from_iterable(cells))
    if types - {int}:
        cells = list(map(_int64, cells))
    return tuple(shape), cells, types


def _int64(cell) -> int:
    """``int(cell)``, when it is inside int64; else :class:`OverflowError`."""
    value = int(cell)
    if not -1 << 63 <= value < 1 << 63:
        raise OverflowError
    return value
