"""Synthetic historian generation by ancestral sampling from fixture nets.

The random source is a 64-bit counter-based generator (splitmix64): output
``k`` of stream ``seed`` is ``mix(seed + (k+1) * 0x9E3779B97F4A7C15)`` with

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

(all mod 2^64), mapped to a uniform in [0, 1) via the top 53 bits. Draws
are consumed record-major; within a record, nodes are visited in
topological order and each unclamped node consumes exactly one draw,
choosing the smallest state whose inclusive CPT-row cumulative exceeds the
uniform. Fixed seed therefore means bit-identical datasets.

This is the one module of the package that imports numpy: the draws are
made a node at a time over all records, and the sampled dataset's
columns are written to CSV through numpy's object-array indexing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from math import inf, isfinite, nextafter
from typing import Mapping

import numpy as np

from .datafile import ACTUATOR, SENSOR, DiscreteDataset, VariableSpec
from .errors import UnknownVariable
from .graph import topological_order
from .inference import BayesNet

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def uniforms(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Outputs ``start .. start+count-1`` of the splitmix64 stream ``seed``."""
    ctr = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + ctr * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _identity_specs(net: BayesNet) -> tuple[VariableSpec, ...]:
    return tuple(
        VariableSpec(name=n, kind=ACTUATOR, states=net.states(n))
        for n in net.graph.nodes
    )


def sample_with_clamp(net: BayesNet, n: int, seed: int,
                      clamp: Mapping[str, int] | None = None,
                      specs: tuple[VariableSpec, ...] | None = None) -> DiscreteDataset:
    """Ancestral sampling with clamped nodes forced to fixed states.

    Clamped nodes ignore their CPTs and consume no randomness; descendants
    respond through their own CPTs. ``specs`` defaults to identity
    actuator specs derived from the net.
    """
    if n < 1:
        raise ValueError("need at least one record")
    clamp = dict(clamp or {})
    for name, state in clamp.items():
        if name not in net.graph.node_set:
            raise UnknownVariable(f"no node named {name!r}")
        if not 0 <= state < net.cardinality(name):
            raise UnknownVariable(f"{name} has no state index {state}")

    order = topological_order(net.graph)
    free = [v for v in order if v not in clamp]
    u = uniforms(seed, n * len(free)).reshape(n, len(free)) if free else np.empty((n, 0))

    # the net's state indices: bytes-wide when every node has at most 256 states
    dtype = np.uint8 if max(net.cardinality(v) for v in order) <= 1 << 8 else np.int64
    columns: dict[str, np.ndarray] = {}
    for name, state in clamp.items():
        columns[name] = np.full(n, state, dtype=dtype)
    for k, node in enumerate(free):
        cpt = net.cpts[node]
        cum = np.cumsum(cpt.table, axis=1)
        if cpt.parents:
            cfg = np.ravel_multi_index(tuple(columns[p] for p in cpt.parents), cpt.parent_cards)
        else:
            cfg = np.zeros(n, dtype=np.int64)
        states = (u[:, k, None] >= cum[cfg]).sum(axis=1)
        columns[node] = np.minimum(states, cpt.cardinality - 1).astype(dtype)

    specs = specs if specs is not None else _identity_specs(net)
    return DiscreteDataset(specs=specs, columns=[
        columns[s.name].tobytes() if dtype == np.uint8 else columns[s.name].tolist() for s in specs])


def forward_sample(net: BayesNet, n: int, seed: int,
                   specs: tuple[VariableSpec, ...] | None = None) -> DiscreteDataset:
    """n i.i.d. records sampled in topological order from the net's CPTs."""
    return sample_with_clamp(net, n, seed, clamp=None, specs=specs)


def write_historian_csv(ds: DiscreteDataset) -> str:
    """Render a discrete dataset as the historian CSV data_ingest consumes.

    Sensor states are emitted as a representative raw value inside the
    state's interval (bin midpoints; one unit beyond the outermost edges),
    actuator states as their declared codes, so discretizing the output
    through the same specs reproduces the dataset exactly. Where that value
    would fall outside the state's interval or overflow (edges beyond about
    1e16 in magnitude, or near the largest float), the state is written as
    the float just below the lowest edge, or as its interval's left edge.
    """
    columns = []
    for spec, column in zip(ds.specs, ds.columns):
        if spec.kind == SENSOR:
            e = spec.bin_edges
            vals = [e[0] - 1.0, *((a + b) / 2.0 for a, b in zip(e, e[1:])), e[-1] + 1.0]
            fallback = [nextafter(e[0], -inf), *e]
            rep = [repr(v if isfinite(v) and bisect_right(e, v) == state else fallback[state])
                   for state, v in enumerate(vals)]
        else:
            codes = spec.codes if spec.codes is not None else tuple(range(len(spec.states)))
            rep = [str(c) for c in codes]
        states = np.frombuffer(column, np.uint8) if isinstance(column, bytes) else np.array(column)
        columns.append(np.array(rep, dtype=object)[states].tolist())
    rows = map(",".join, zip(map(str, range(ds.n_records)), *columns))
    return "\n".join(chain([",".join(["Timestamp", *ds.names])], rows)) + "\n"


@dataclass(frozen=True)
class FixtureNet:
    """Ground-truth net standing in for a plant historian: the net, the
    specs that map its states to raw log values, and each DP's stage."""

    name: str
    net: BayesNet
    specs: tuple[VariableSpec, ...]
    stage_of: Mapping[str, str]

    def sample(self, n: int, seed: int, clamp: Mapping[str, int] | None = None) -> DiscreteDataset:
        return sample_with_clamp(self.net, n, seed, clamp=clamp, specs=self.specs)
