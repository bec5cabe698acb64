"""Workload inputs, built from a seed with the library's public API.

Two plants feed the workloads:

* ``swat51``: the 51 design parameters (DPs) of the six-stage SWaT testbed
  (Goh et al. 2016), named and typed as in the testbed. Stage-1 and stage-6
  edges come from the shipped ``stage1.graph`` and ``stage6.graph`` domain
  files; the other stages and the links between stages are listed in
  ``EDGES`` below. CPTs and sensor bin edges are drawn once, from
  ``PLANT_SEED``, so that every run learns the same plant and the work per
  run does not swing with the seed.
* ``twostage``: the shipped 12-DP ``twostage`` fixture, unchanged.

The workload seed draws the historian log: each plant is forward-sampled
into a CSV, with the spec file, domain-graph JSON, attack file and stage
map written next to it. The program under test receives only these files.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from cpscausal.estimation import BayesNet, Cpt
from cpscausal.fixtures import get_fixture
from cpscausal.graph import CONTROL, PHYSICAL, CausalGraph, Edge, graph_to_json
from cpscausal.impact import load_domain_graph
from cpscausal.ingest import ACTUATOR, SENSOR, VariableSpec, format_spec_file
from cpscausal.simgen import forward_sample, write_historian_csv

PLANT_SEED = 2016
SWAT_RECORDS = 20_000
TWOSTAGE_RECORDS = 100_000

# The 51 DPs of SWaT, stage by stage.
SWAT_DPS = (
    "FIT101", "LIT101", "MV101", "P101", "P102",
    "AIT201", "AIT202", "AIT203", "FIT201", "MV201",
    "P201", "P202", "P203", "P204", "P205", "P206",
    "DPIT301", "FIT301", "LIT301", "MV301", "MV302", "MV303", "MV304", "P301", "P302",
    "AIT401", "AIT402", "FIT401", "LIT401", "P401", "P402", "P403", "P404", "UV401",
    "AIT501", "AIT502", "AIT503", "AIT504", "FIT501", "FIT502", "FIT503", "FIT504",
    "P501", "P502", "PIT501", "PIT502", "PIT503",
    "FIT601", "P601", "P602", "P603",
)

# Edges outside stage1.graph and stage6.graph, as (src, dst, kind). Duty and
# standby pumps are linked by control edges; every DP has at most two parents.
C, P = CONTROL, PHYSICAL
EDGES = (
    # stage 2: dosing driven by the raw-water flow, which needs P101 and MV201
    ("LIT301", "MV201", C), ("P101", "FIT201", P), ("MV201", "FIT201", P),
    ("FIT201", "AIT201", P), ("FIT201", "AIT202", P), ("FIT201", "AIT203", P),
    ("AIT201", "P201", C), ("P201", "P202", C), ("AIT202", "P203", C),
    ("P203", "P204", C), ("AIT203", "P205", C), ("P205", "P206", C),
    # stage 3: ultrafiltration feed and backwash
    ("LIT301", "P301", C), ("P301", "P302", C), ("P301", "FIT301", P),
    ("FIT301", "DPIT301", P), ("DPIT301", "MV301", C), ("MV301", "MV303", C),
    ("LIT401", "MV302", C), ("MV302", "MV304", C),
    # stage 4: dechlorination
    ("FIT301", "LIT401", P), ("LIT401", "P401", C), ("P401", "P402", C),
    ("P401", "FIT401", P), ("P402", "FIT401", P), ("FIT401", "UV401", C),
    ("UV401", "AIT401", P), ("FIT401", "AIT402", P), ("AIT402", "P403", C),
    ("P403", "P404", C),
    # stage 5: reverse osmosis
    ("FIT401", "P501", C), ("P501", "P502", C), ("P501", "FIT501", P),
    ("P501", "PIT501", P), ("FIT501", "AIT501", P), ("FIT501", "AIT502", P),
    ("FIT501", "AIT503", P), ("AIT503", "AIT504", P), ("FIT501", "FIT502", P),
    ("FIT501", "FIT503", P), ("FIT503", "FIT504", P), ("PIT501", "PIT502", P),
    ("PIT501", "PIT503", P),
    # stage 6: backwash and permeate return
    ("FIT502", "P601", C), ("P601", "P603", C),
)

# State labels cover every precondition of the shipped swat_attacks.json.
_LEVEL = ("Low", "Medium", "High")
_BINARY = ("Low", "High")
_PUMP = ("Off", "On")
_VALVE = ("Close", "Open")


def _spec(name: str, rng: np.random.Generator) -> VariableSpec:
    """Spec for one DP by its SWaT tag prefix; sensor edges drawn from rng."""
    prefix = name.rstrip("0123456789")
    if prefix == "LIT":
        edges = (round(float(rng.uniform(150, 300)), 3), round(float(rng.uniform(600, 900)), 3))
        return VariableSpec(name, SENSOR, _LEVEL, bin_edges=edges)
    if prefix in ("FIT", "AIT", "DPIT", "PIT"):
        edge = round(float(rng.uniform(0.5, 500.0)), 3)
        return VariableSpec(name, SENSOR, _BINARY, bin_edges=(edge,))
    if prefix == "MV":
        return VariableSpec(name, ACTUATOR, _VALVE, codes=(1, 2))
    return VariableSpec(name, ACTUATOR, _PUMP, codes=(1, 2))  # P, UV


def _draw_table(rng: np.random.Generator, q: int, r: int) -> np.ndarray:
    """CPT rows: a root row keeps every state above 0.3/r; a child row puts
    0.70-0.95 on one dominant state, and the dominant state differs between
    at least two parent configurations, so every edge carries dependence."""
    if q == 1:
        return (0.3 / r + 0.7 * rng.dirichlet(np.ones(r)))[None, :]
    dominant = rng.integers(r, size=q)
    if np.all(dominant == dominant[0]):
        dominant[1] = (dominant[0] + 1) % r
    table = np.empty((q, r))
    for k in range(q):
        p_dom = rng.uniform(0.70, 0.95)
        rest = 0.5 / (r - 1) + 0.5 * rng.dirichlet(np.ones(r - 1))
        row = np.insert(rest * (1.0 - p_dom), dominant[k], p_dom)
        table[k] = row / row.sum()
    return table


def _shipped(relpath: str) -> str:
    return resources.files("cpscausal").joinpath(relpath).read_text()


def swat51_domain_graph() -> CausalGraph:
    """The plant's control and physical edges over all 51 DPs."""
    shipped = [load_domain_graph(_shipped(f"data/domains/{g}.graph")) for g in ("stage1", "stage6")]
    edges = [e for g in shipped for e in g.edges] + [Edge(s, d, k) for s, d, k in EDGES]
    return CausalGraph(nodes=SWAT_DPS, edges=tuple(edges))


def swat51_plant(seed: int = PLANT_SEED) -> tuple[BayesNet, tuple[VariableSpec, ...]]:
    rng = np.random.default_rng(seed)
    graph = swat51_domain_graph()
    specs = tuple(_spec(n, rng) for n in SWAT_DPS)
    by_name = {s.name: s for s in specs}
    cpts = {}
    for node in SWAT_DPS:
        parents = tuple(sorted(graph.parents(node)))
        cards = tuple(by_name[p].cardinality for p in parents)
        cpts[node] = Cpt(child=node, parents=parents, parent_cards=cards,
                         states=by_name[node].states,
                         table=_draw_table(rng, int(np.prod(cards)) if parents else 1,
                                           by_name[node].cardinality))
    return BayesNet(graph=graph, cpts=cpts), specs


def stage_map(names) -> dict[str, str]:
    """Stage id from the SWaT tag: the first digit of the numeric suffix."""
    return {n: n.lstrip("ABCDEFGHIJKLMNOPQRSTUVWXYZ")[0] for n in names}


def sweep(names) -> list[dict]:
    """One single-DP attack per DP: a reconnaissance sweep over the plant."""
    return [{"id": f"sweep-{n}", "targeted": [n], "preconditions": {}} for n in names]


def build(plant: str, seed: int, f) -> tuple[VariableSpec, ...]:
    """Write one plant's inputs, with the log drawn from the seed, to the
    input paths of ``f`` (a ``pipeline.Files``). Returns the variable specs."""
    if plant == "swat51":
        net, specs = swat51_plant()
        domain, n, attack_file = net.graph, SWAT_RECORDS, "swat_attacks.json"
    else:
        fixture = get_fixture("twostage")
        net, specs, domain = fixture.net, fixture.specs, fixture.net.graph
        n, attack_file = TWOSTAGE_RECORDS, "twostage.json"
    ds = forward_sample(net, n, seed, specs=specs)
    attacks = json.loads(_shipped(f"data/attacks/{attack_file}")) + sweep(ds.names)
    f.csv.parent.mkdir(parents=True, exist_ok=True)
    f.csv.write_text(write_historian_csv(ds))
    f.spec.write_text(format_spec_file(specs))
    f.domain.write_text(json.dumps(graph_to_json(domain), indent=2) + "\n")
    f.attacks.write_text(json.dumps(attacks, indent=2) + "\n")
    f.stages.write_text(json.dumps(stage_map(ds.names), indent=2) + "\n")
    return specs
