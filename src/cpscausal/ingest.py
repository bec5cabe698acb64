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
"""

from __future__ import annotations

import csv
import io
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite, nan
from numbers import Real
from typing import NoReturn

import numpy as np

from .errors import (
    DegenerateColumn,
    EmptyDataset,
    EmptyInput,
    MissingColumn,
    NonNumericCell,
    ParseError,
    RaggedRow,
    UnknownColumn,
    UnmappedActuatorValue,
)

SENSOR = "sensor"
ACTUATOR = "actuator"

_LABEL_RE = re.compile(r"^[A-Za-z0-9_.+-]+$")


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
    """Records-by-variables matrix of state indices with per-variable specs."""

    specs: tuple[VariableSpec, ...]
    data: np.ndarray = field(repr=False)  # shape (n_records, n_vars), int64

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] != len(self.specs):
            raise EmptyDataset("data shape does not match specs")
        if self.data.shape[0] < 1:
            raise EmptyDataset("dataset needs at least one record")
        for k, spec in enumerate(self.specs):
            col = self.data[:, k]
            if col.min() < 0 or col.max() >= spec.cardinality:
                raise UnmappedActuatorValue(f"{spec.name}: state index out of range")

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    @cached_property
    def _column_of(self) -> dict[str, int]:
        # reversed, so a repeated name maps to its first column as tuple.index does
        return {name: k for k, name in reversed(tuple(enumerate(self.names)))}

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

    The header row names the columns; a column named ``Timestamp`` (any
    case) is set aside verbatim. Raises :class:`EmptyInput` when there is
    no header or no data row, :class:`RaggedRow` on length mismatches, and
    :class:`NonNumericCell` when a value cell is not a finite number
    (``nan``, ``inf`` and digit-group underscores such as ``1_0`` included).
    The first faulty record decides which error is raised, and the message
    names the line of the text on which that record starts.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if any(map(str.strip, row))]
    if not rows:
        raise EmptyInput("log has no header row")
    header = [cell.strip() for cell in rows[0]]
    if len(rows) == 1:
        raise EmptyInput("log has a header but no records")

    ts_idx = [k for k, name in enumerate(header) if name.lower() == "timestamp"]
    value_idx = [k for k in range(len(header)) if k not in ts_idx]
    columns = tuple(header[k] for k in value_idx)
    if len(set(columns)) != len(columns) or any(not c for c in columns):
        raise ParseError("column names must be unique and non-empty")

    body = rows[1:]
    values = None
    if set(map(len, body)) == {len(header)}:
        table = list(zip(*body))
        values = _readings([table[k] for k in value_idx], len(body))
    if values is None:
        _raise_first_fault(text, header, value_idx)
    timestamps = tuple(map(str.strip, table[ts_idx[0]])) if ts_idx else None
    return RawLog(columns=columns, values=values, timestamps=timestamps)


def _readings(value_columns: list[tuple[str, ...]], n_records: int) -> np.ndarray | None:
    """The value cells as an ``(n_records, n_columns)`` float array, or None
    when any cell is not a finite number."""
    values = np.empty((n_records, len(value_columns)), dtype=np.float64)
    try:
        for out, cells in enumerate(value_columns):
            # strip first: float() keeps the separators U+001C..U+001F that strip() drops
            values[:, out] = np.fromiter(map(float, map(str.strip, cells)), np.float64, n_records)
    except ValueError:
        return None
    # float() also reads "nan", "inf" and "1_0"; none of them is a reading
    if not np.isfinite(values).all() or any("_" in "".join(cells) for cells in value_columns):
        return None
    return values


def _raise_first_fault(text: str, header: list[str], value_idx: list[int]) -> NoReturn:
    """Raise the error for the first faulty record of the log ``text``,
    naming the line it starts on and its bad cell. Blank lines and quoted
    cells that span lines count, as in the text."""
    reader = csv.reader(io.StringIO(text))
    records, line = [], 1  # line: where the next record starts
    for row in reader:
        if any(map(str.strip, row)):
            records.append((line, row))
        line = reader.line_num + 1
    n_cols = len(header)
    for r, row in records[1:]:  # records[0] is the header
        if len(row) != n_cols:
            raise RaggedRow(f"line {r}: expected {n_cols} cells, got {len(row)}")
        for k in value_idx:
            cell = row[k].strip()
            try:
                value = float(cell)
            except ValueError:
                value = nan
            if not isfinite(value) or "_" in cell:
                raise NonNumericCell(f"line {r}, column {header[k]!r}: {cell!r}")
    raise AssertionError("parse_log found a fault that the line scan does not")


def suggest_bins(log: RawLog, column: str, n_bins: int, method: str = "equal_width") -> tuple[float, ...]:
    """Propose ``n_bins - 1`` strictly increasing cut points for a column.

    ``equal_width`` splits ``[min, max]`` evenly; ``quantile`` places edges
    at the empirical ``k/n_bins`` quantiles (linear interpolation). Constant
    columns and collapsed quantile edges raise :class:`DegenerateColumn`.
    """
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    x = log.column(column)
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        raise DegenerateColumn(f"{column}: constant column")
    if method == "equal_width":
        edges = np.linspace(lo, hi, n_bins + 1)[1:-1]
    elif method == "quantile":
        qs = [k / n_bins for k in range(1, n_bins)]
        edges = np.quantile(x, qs)
    else:
        raise ValueError(f"unknown binning method {method!r}")
    edges = tuple(float(e) for e in edges)
    if any(a >= b for a, b in zip(edges, edges[1:])):
        raise DegenerateColumn(f"{column}: quantile edges collapsed ({edges})")
    return edges


def discretize(log: RawLog, specs: list[VariableSpec] | tuple[VariableSpec, ...]) -> DiscreteDataset:
    """Map raw readings to state indices, one column per spec, in spec order."""
    specs = tuple(specs)
    for spec in specs:
        if spec.name not in log.columns:
            raise MissingColumn(f"log has no column {spec.name!r}")
    data = np.empty((log.n_records, len(specs)), dtype=np.int64)
    for k, spec in enumerate(specs):
        raw = log.column(spec.name)
        if spec.kind == SENSOR:
            data[:, k] = np.searchsorted(np.asarray(spec.bin_edges), raw, side="right")
        else:
            data[:, k] = _actuator_states(spec, raw)
    return DiscreteDataset(specs=specs, data=data)


def _actuator_states(spec: VariableSpec, raw: np.ndarray) -> np.ndarray:
    """Position of each rounded reading in the spec's codes (``0..n-1`` when
    omitted). The first reading that is not within 1e-9 of an integer, or
    whose integer is not a code, raises :class:`UnmappedActuatorValue`."""
    codes = spec.codes if spec.codes is not None else tuple(range(spec.cardinality))
    # readings are float64, so a code that float64 cannot hold matches none of them
    held = sorted((c, k) for k, c in enumerate(codes)
                  if isinstance(c, Real) and abs(c) <= sys.float_info.max and float(c) == c)
    # the NaN after the largest code is where searchsorted puts a reading above
    # every code (and NaN itself); it equals no reading
    table = np.array([float(c) for c, _ in held] + [nan])
    code = np.rint(raw)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and NaN fails the test as it should
        non_integer = ~(np.abs(raw - code) <= 1e-9)
    pos = np.searchsorted(table, code)
    fault = non_integer | (table[pos] != code)
    if fault.any():
        i = int(fault.argmax())
        if non_integer[i]:
            raise UnmappedActuatorValue(f"{spec.name}: non-integer actuator value {float(raw[i])!r}")
        raise UnmappedActuatorValue(f"{spec.name}: code {int(code[i])} not in declared codes {codes}")
    return np.array([k for _, k in held], dtype=np.int64)[pos]


def project(ds: DiscreteDataset, names: list[str] | tuple[str, ...]) -> DiscreteDataset:
    """Column-subset dataset preserving record order."""
    idx = [ds.index(n) for n in names]
    return DiscreteDataset(specs=tuple(ds.specs[i] for i in idx), data=ds.data[:, idx].copy())


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
    specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            try:
                if key == "edges":
                    edges = tuple(float(v) for v in val.split(","))
                elif key == "codes":
                    codes = tuple(int(v) for v in val.split(","))
                else:
                    raise ParseError(f"line {lineno}: unknown attribute {key!r}")
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

def dataset_to_json(ds: DiscreteDataset) -> dict:
    return {
        "specs": [
            {
                "name": s.name,
                "kind": s.kind,
                "states": list(s.states),
                "bin_edges": list(s.bin_edges) if s.bin_edges is not None else None,
                "codes": list(s.codes) if s.codes is not None else None,
            }
            for s in ds.specs
        ],
        "data": ds.data.tolist(),
    }


def dataset_from_json(obj: dict) -> DiscreteDataset:
    try:
        specs = tuple(
            VariableSpec(
                name=s["name"],
                kind=s["kind"],
                states=tuple(s["states"]),
                bin_edges=tuple(s["bin_edges"]) if s.get("bin_edges") is not None else None,
                codes=tuple(s["codes"]) if s.get("codes") is not None else None,
            )
            for s in obj["specs"]
        )
        data = np.asarray(obj["data"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed dataset JSON: {exc}") from None
    return DiscreteDataset(specs=specs, data=data)
