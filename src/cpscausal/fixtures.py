"""Shipped ground-truth fixture networks.

The CPT values are synthetic. They echo the qualitative behaviour of a
six-stage water-treatment testbed (tank levels drive valves and pumps,
valves drive flow sensors, flow drives chemical sensors) but no real plant
data enters the package; every expected value in the test suite is
computed from these tables.
"""

from __future__ import annotations

from .datafile import ACTUATOR, SENSOR, VariableSpec
from .errors import UnknownVariable
from .graph import CONTROL, LEARNT, PHYSICAL, CausalGraph, Edge
from .inference import BayesNet, Cpt
from .simgen import FixtureNet


def _net(nodes: tuple[str, ...], edges: list[tuple[str, str, str]],
         tables: dict[str, list[list[float]]], states: dict[str, tuple[str, ...]]) -> BayesNet:
    graph = CausalGraph(nodes=nodes, edges=tuple(Edge(s, d, k) for s, d, k in edges))
    cpts = {}
    for node in nodes:
        parents = tuple(sorted(graph.parents(node)))
        cpts[node] = Cpt(
            child=node,
            parents=parents,
            parent_cards=tuple(len(states[p]) for p in parents),
            states=states[node],
            table=tables[node],
        )
    return BayesNet(graph=graph, cpts=cpts)


_BIN = ("lo", "hi")


def build_stage1() -> FixtureNet:
    """Raw-water stage: tank level drives valve and pumps, valve drives flow.

    Five DPs, four domain edges (three control, one physical). CPT rows
    follow the plant's estimated behaviour: the valve is most probably
    closed on a low tank, open on a medium tank; flow tracks the valve
    almost deterministically.
    """
    states = {
        "LIT101": ("Low", "Medium", "High"),
        "MV101": ("Close", "Open"),
        "P101": ("Off", "On"),
        "P102": ("Off", "On"),
        "FIT101": ("Low", "High"),
    }
    net = _net(
        nodes=("P101", "P102", "LIT101", "MV101", "FIT101"),
        edges=[
            ("LIT101", "MV101", CONTROL),
            ("LIT101", "P101", CONTROL),
            ("LIT101", "P102", CONTROL),
            ("MV101", "FIT101", PHYSICAL),
        ],
        tables={
            "LIT101": [[0.05, 0.75, 0.20]],
            "MV101": [[0.85, 0.15], [0.15, 0.85], [0.70, 0.30]],
            "P101": [[0.98, 0.02], [0.15, 0.85], [0.68, 0.32]],
            "P102": [[0.99, 0.01], [0.75, 0.25], [0.90, 0.10]],
            "FIT101": [[0.99, 0.01], [0.02, 0.98]],
        },
        states=states,
    )
    specs = (
        VariableSpec("P101", ACTUATOR, states["P101"], codes=(1, 2)),
        VariableSpec("P102", ACTUATOR, states["P102"], codes=(1, 2)),
        VariableSpec("LIT101", SENSOR, states["LIT101"], bin_edges=(210.0, 750.0)),
        VariableSpec("MV101", ACTUATOR, states["MV101"], codes=(1, 2)),
        VariableSpec("FIT101", SENSOR, states["FIT101"], bin_edges=(1.0,)),
    )
    stage = {n: "1" for n in net.graph.nodes}
    return FixtureNet("stage1", net, specs, stage)


def build_stage1_learnt() -> FixtureNet:
    """The data-learnt neighbourhood of MV101: the valve drives both the
    flow sensor and the pump.

    Constructed so the diagnostic posteriors are exact round numbers:
    P(MV101=Close | FIT101=Low) = 0.98 and every P(MV101 | P101) is 0.80
    or 0.20.
    """
    states = {
        "MV101": ("Close", "Open"),
        "P101": ("Off", "On"),
        "FIT101": ("Low", "High"),
    }
    net = _net(
        nodes=("MV101", "P101", "FIT101"),
        edges=[("MV101", "P101", LEARNT), ("MV101", "FIT101", LEARNT)],
        tables={
            "MV101": [[0.5, 0.5]],
            "P101": [[0.8, 0.2], [0.2, 0.8]],
            "FIT101": [[0.98, 0.02], [0.02, 0.98]],
        },
        states=states,
    )
    specs = (
        VariableSpec("MV101", ACTUATOR, states["MV101"], codes=(1, 2)),
        VariableSpec("P101", ACTUATOR, states["P101"], codes=(1, 2)),
        VariableSpec("FIT101", SENSOR, states["FIT101"], bin_edges=(1.0,)),
    )
    return FixtureNet("stage1_learnt", net, specs, {n: "1" for n in net.graph.nodes})


def build_stage6() -> FixtureNet:
    """Backwash stage: one physical edge from the pump to the flow sensor."""
    states = {"P602": ("Off", "On"), "FIT601": ("Low", "High")}
    net = _net(
        nodes=("P602", "FIT601"),
        edges=[("P602", "FIT601", PHYSICAL)],
        tables={
            "P602": [[0.99, 0.01]],
            "FIT601": [[0.99, 0.01], [0.24, 0.76]],
        },
        states=states,
    )
    specs = (
        VariableSpec("P602", ACTUATOR, states["P602"], codes=(1, 2)),
        VariableSpec("FIT601", SENSOR, states["FIT601"], bin_edges=(0.5,)),
    )
    return FixtureNet("stage6", net, specs, {n: "6" for n in net.graph.nodes})


def _abc_specs() -> tuple[VariableSpec, ...]:
    return tuple(VariableSpec(n, ACTUATOR, _BIN) for n in ("A", "B", "C"))


def build_chain3() -> FixtureNet:
    net = _net(
        nodes=("A", "B", "C"),
        edges=[("A", "B", LEARNT), ("B", "C", LEARNT)],
        tables={
            "A": [[0.6, 0.4]],
            "B": [[0.85, 0.15], [0.2, 0.8]],
            "C": [[0.75, 0.25], [0.3, 0.7]],
        },
        states={n: _BIN for n in "ABC"},
    )
    return FixtureNet("chain3", net, _abc_specs(), {n: "1" for n in "ABC"})


def build_fork3() -> FixtureNet:
    net = _net(
        nodes=("A", "B", "C"),
        edges=[("B", "A", LEARNT), ("B", "C", LEARNT)],
        tables={
            "B": [[0.55, 0.45]],
            "A": [[0.9, 0.1], [0.25, 0.75]],
            "C": [[0.8, 0.2], [0.15, 0.85]],
        },
        states={n: _BIN for n in "ABC"},
    )
    return FixtureNet("fork3", net, _abc_specs(), {n: "1" for n in "ABC"})


def build_collider3() -> FixtureNet:
    """A and B independently push C high; a noisy-OR-shaped collider."""
    net = _net(
        nodes=("A", "B", "C"),
        edges=[("A", "C", LEARNT), ("B", "C", LEARNT)],
        tables={
            "A": [[0.5, 0.5]],
            "B": [[0.5, 0.5]],
            # rows over (A, B) configs: (lo,lo), (lo,hi), (hi,lo), (hi,hi)
            "C": [[0.95, 0.05], [0.25, 0.75], [0.30, 0.70], [0.05, 0.95]],
        },
        states={n: _BIN for n in "ABC"},
    )
    return FixtureNet("collider3", net, _abc_specs(), {n: "1" for n in "ABC"})


def build_twostage() -> FixtureNet:
    """Twelve DPs across two plant stages, chained by one physical edge
    (the stage-1 pump feeds the stage-2 flow meter). Stage 1 is
    :func:`build_stage1`'s five DPs, in its order.

    The conditional strengths are deliberately spread out so that impact
    posteriors land in distinct confidence bands (above 0.95, between 0.9
    and 0.95, between 0.5 and 0.9, below 0.5).
    """
    stage1 = build_stage1()
    cpts1 = stage1.net.cpts
    states = {n: cpt.states for n, cpt in cpts1.items()} | {
        "FIT201": ("Low", "High"),
        "AIT201": ("Low", "High"),
        "AIT202": ("Low", "High"),
        "AIT203": ("Low", "Medium", "High"),
        "P201": ("Off", "On"),
        "P203": ("Off", "On"),
        "P205": ("Off", "On"),
    }
    net = _net(
        nodes=stage1.net.graph.nodes + ("FIT201", "AIT201", "AIT202", "AIT203", "P201", "P203", "P205"),
        edges=[(e.src, e.dst, e.kind) for e in stage1.net.graph.edges] + [
            ("P101", "FIT201", PHYSICAL),
            ("FIT201", "AIT201", PHYSICAL),
            ("FIT201", "AIT202", PHYSICAL),
            ("FIT201", "AIT203", PHYSICAL),
            ("AIT201", "P201", CONTROL),
            ("AIT202", "P203", CONTROL),
            ("AIT203", "P205", CONTROL),
        ],
        tables={n: cpt.table for n, cpt in cpts1.items()} | {
            "FIT201": [[0.97, 0.03], [0.03, 0.97]],
            "AIT201": [[0.90, 0.10], [0.20, 0.80]],
            "AIT202": [[0.85, 0.15], [0.15, 0.85]],
            "AIT203": [[0.55, 0.30, 0.15], [0.25, 0.35, 0.40]],
            "P201": [[0.10, 0.90], [0.95, 0.05]],
            "P203": [[0.08, 0.92], [0.90, 0.10]],
            "P205": [[0.35, 0.65], [0.50, 0.50], [0.60, 0.40]],
        },
        states=states,
    )
    specs = stage1.specs + (
        VariableSpec("FIT201", SENSOR, states["FIT201"], bin_edges=(0.5,)),
        VariableSpec("AIT201", SENSOR, states["AIT201"], bin_edges=(260.0,)),
        VariableSpec("AIT202", SENSOR, states["AIT202"], bin_edges=(8.0,)),
        VariableSpec("AIT203", SENSOR, states["AIT203"], bin_edges=(300.0, 500.0)),
        VariableSpec("P201", ACTUATOR, states["P201"], codes=(1, 2)),
        VariableSpec("P203", ACTUATOR, states["P203"], codes=(1, 2)),
        VariableSpec("P205", ACTUATOR, states["P205"], codes=(1, 2)),
    )
    stage = {n: n[-3] for n in net.graph.nodes}
    return FixtureNet("twostage", net, specs, stage)


_BUILDERS = {
    "stage1": build_stage1,
    "stage1_learnt": build_stage1_learnt,
    "stage6": build_stage6,
    "chain3": build_chain3,
    "fork3": build_fork3,
    "collider3": build_collider3,
    "twostage": build_twostage,
}

FIXTURE_NAMES = tuple(sorted(_BUILDERS))


def get_fixture(name: str) -> FixtureNet:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise UnknownVariable(f"no fixture named {name!r}; choices: {', '.join(FIXTURE_NAMES)}") from None
