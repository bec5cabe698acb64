"""Variable specs and the dataset file: its layout and its one fast reader.

A :class:`VariableSpec` fixes a DP's state vocabulary, and a sensor's bin
edges. A dataset file holds the specs and the records' state indices:

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

When every DP has at most 10 states, every cell is one digit, so every
record takes as many bytes. :func:`written_records` reads such a text a
block of records at a time: the specs are written back and compared with
the text, and each block, every digit translated to ``0``, must equal the
writer's template row repeated. Any other text is left to :mod:`json`,
which reads it or names its error. ``ingest`` fills ``learn``'s array of
records from the blocks, and :func:`read_columns` gathers them into
:class:`Columns`, one ``bytes`` of state indices per DP, which ``fit``
counts. The one writer, :func:`record_chunks`, mirrors the reader: it
fills the same template row with each DP's digits, a block of records at
a time. Standard library and the package's errors only, so that
``discretize`` writes, and ``fit`` reads, such a file without numpy.
"""

from __future__ import annotations

import io
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from math import isfinite
from typing import BinaryIO

from .errors import CpsCausalError, ParseError
from .jsontext import json_text, refuse_lone_surrogate

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
class Columns:
    """A dataset as ``fit`` counts it: its specs, and its records as one
    ``bytes`` of state indices per DP, in record order."""

    specs: tuple[VariableSpec, ...]
    columns: tuple[bytes, ...]


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


def read_columns(path: str) -> Columns | None:
    """The dataset in the file at ``path`` as :class:`Columns`, when its
    bytes are exactly the writer's, each DP has at most 10 states and the
    records pass :class:`ingest.DiscreteDataset`'s checks; else None, also
    when the file cannot be read, and the caller reads the file whole
    through :mod:`json`, which reads it or names its error."""
    try:
        with open(path, "rb") as fh:
            return _columns_as_written(fh)
    except OSError:
        return None


def _columns_as_written(fh: BinaryIO) -> Columns | None:
    """The columns of the dataset whose writer's text ``fh`` holds, as
    :func:`read_columns` reads them: each DP's digits gathered from the
    blocks of :func:`written_records` into one ``bytes``, then translated to
    state indices and checked against the DP's states, one DP at a time."""
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
    if at < n or len({s.name for s in specs}) != len(specs):
        return None
    columns = []
    while digits:  # a DP at a time, so that the records are held about once
        column = digits.pop(0).translate(_DIGIT_AS_VALUE)
        if any(state in column for state in range(specs[len(columns)].cardinality, 10)):
            return None
        columns.append(bytes(column))
    return Columns(specs=specs, columns=tuple(columns))
