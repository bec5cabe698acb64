"""Historian-log ingestion in one process: a log read whole into numbers,
and the datasets that it and the dataset file give.

A historian log is delimiter-separated text: one header row of design
parameter (DP) names, then one numeric record per timestep; each DP gets a
:class:`VariableSpec` that fixes its state vocabulary, and a sensor's bin
edges. The log reader, the map of readings to states and the spec file are
:mod:`logfile`'s, and the dataset type and the dataset file are
:mod:`datafile`'s; this module names them for callers that hold a whole
log in memory. :func:`parse_log` reads the text into a :class:`RawLog`,
one list of floats per column, and :func:`discretize` maps it to a
:class:`DiscreteDataset` through the map that ``discretize`` runs. The
CLI's ``discretize`` reads a log file once, a block at a time, instead,
through :func:`logfile.discretize_log`. Standard library and the package only.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from .datafile import (  # noqa: F401  ACTUATOR, SENSOR, dataset_from_json, dataset_to_json: still named here
    ACTUATOR,
    SENSOR,
    DiscreteDataset,
    VariableSpec,
    dataset_from_json,
    dataset_to_json,
)
from .errors import UnknownColumn
from .logfile import (  # noqa: F401  format_spec_file, parse_spec_file: still named here
    LogText,
    StateMaps,
    _read_log,
    format_spec_file,
    parse_spec_file,
    readings,
)


@dataclass(frozen=True)
class RawLog:
    """Parsed historian log: named columns of readings, one sequence of
    floats per column, plus optional timestamps."""

    columns: tuple[str, ...]
    values: tuple[Sequence[float], ...]
    timestamps: tuple[str, ...] | None = None

    @property
    def n_records(self) -> int:
        return len(self.values[0]) if self.values else len(self.timestamps or ())

    def column(self, name: str) -> Sequence[float]:
        if name not in self.columns:
            raise UnknownColumn(f"no column named {name!r}")
        return self.values[self.columns.index(name)]


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
    are read a block at a time, in one pass (:func:`logfile._read_log`).
    """
    columns, read = _read_log(LogText.of_str(text), stamps=True)
    values: list[list[float]] = [[] for _ in columns]
    stamps = []
    for _, block, block_stamps in read(lambda cells, suspect: [readings(column, suspect) for column in cells]):
        for column, part in zip(values, block):
            column += part
        stamps.append(block_stamps)
    timestamps = None if stamps[0] is None else tuple(chain.from_iterable(stamps))
    return RawLog(columns=columns, values=tuple(values), timestamps=timestamps)


def discretize(log: RawLog, specs: Sequence[VariableSpec]) -> DiscreteDataset:
    """Map raw readings to state indices, one column per spec, in spec
    order, through the map of :func:`logfile.discretize_log`."""
    maps = StateMaps(log.columns, specs)
    columns = maps.of_readings(log.values)
    maps.check()
    return DiscreteDataset(specs=tuple(specs), columns=columns)


def project(ds: DiscreteDataset, names: Sequence[str]) -> DiscreteDataset:
    """Column-subset dataset preserving record order."""
    idx = [ds.index(n) for n in names]
    return DiscreteDataset(specs=tuple(ds.specs[i] for i in idx), columns=tuple(ds.columns[i] for i in idx))
