"""Directed-graph core: DAG queries, d-separation by Bayes-ball, equivalence,
comparison.

A :class:`CausalGraph` is an immutable value: nodes are DP names, edges
carry a kind (``control`` and ``physical`` for domain knowledge, ``learnt``
for data-derived edges) and a ``directed`` flag so constraint-based
learners can emit partially directed output. Domain graphs may transiently
hold cycles; acyclicity is enforced only where an operation requires a DAG,
with :func:`break_cycles` as the sanctioned repair.

All set-valued outputs are emitted in lexicographic order so that every
run of every operation is reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import (
    CyclicGraph,
    DuplicateEdge,
    NodeSetMismatch,
    SelfLoop,
    StillCyclic,
    UnknownNode,
    UsageError,
)

CONTROL = "control"
PHYSICAL = "physical"
LEARNT = "learnt"
EDGE_KINDS = (CONTROL, PHYSICAL, LEARNT)


@dataclass(frozen=True, order=True)
class Edge:
    src: str
    dst: str
    kind: str = LEARNT
    directed: bool = True

    def __post_init__(self):
        if self.kind not in EDGE_KINDS:
            raise ValueError(f"edge kind must be one of {EDGE_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class CausalGraph:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise UnknownNode("duplicate node name")
        seen = set()
        for e in self.edges:
            if e.src == e.dst:
                raise SelfLoop(f"self-loop on {e.src}")
            if e.src not in self.node_set or e.dst not in self.node_set:
                raise UnknownNode(f"edge ({e.src}, {e.dst}) references an unknown node")
            if (e.src, e.dst) in seen:
                raise DuplicateEdge(f"duplicate edge ({e.src}, {e.dst})")
            seen.add((e.src, e.dst))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @cached_property
    def node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for e in self.edges:
            if e.directed:
                out[e.src].append(e.dst)
        return {n: tuple(sorted(v)) for n, v in out.items()}

    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for e in self.edges:
            if e.directed:
                out[e.dst].append(e.src)
        return {n: tuple(sorted(v)) for n, v in out.items()}

    @cached_property
    def _undirected_neighbors(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, set[str]] = {n: set() for n in self.nodes}
        for e in self.edges:
            if not e.directed:
                out[e.src].add(e.dst)
                out[e.dst].add(e.src)
        return {n: tuple(sorted(v)) for n, v in out.items()}

    def _require(self, *names: str) -> None:
        for n in names:
            if n not in self.node_set:
                raise UnknownNode(f"no node named {n!r}")

    def parents(self, node: str) -> tuple[str, ...]:
        self._require(node)
        return self._parents[node]

    def children(self, node: str) -> tuple[str, ...]:
        self._require(node)
        return self._children[node]

    def neighbors(self, node: str) -> tuple[str, ...]:
        """All adjacent nodes regardless of orientation."""
        self._require(node)
        return tuple(sorted(set(self._parents[node]) | set(self._children[node])
                            | set(self._undirected_neighbors[node])))

    @cached_property
    def _edge_index(self) -> dict[tuple[str, str], Edge]:
        return {(e.src, e.dst): e for e in self.edges}

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edge_index

    def edge(self, src: str, dst: str) -> Edge:
        try:
            return self._edge_index[(src, dst)]
        except KeyError:
            raise UnknownNode(f"no edge ({src}, {dst})") from None

    @cached_property
    def fully_directed(self) -> bool:
        return all(e.directed for e in self.edges)

    @cached_property
    def _topological_order(self) -> tuple[str, ...] | None:
        """Kahn's order over the directed edges, smallest name first among
        the ready nodes; None when they hold a cycle."""
        indeg = {n: len(self._parents[n]) for n in self.nodes}
        ready = [n for n in self.nodes if indeg[n] == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            n = heapq.heappop(ready)
            order.append(n)
            for c in self._children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        return tuple(order) if len(order) == len(self.nodes) else None

    def descendants(self, node: str) -> frozenset[str]:
        """Strict descendants via directed edges."""
        self._require(node)
        return frozenset(_reach(self._children[node], self._children))

    def ancestors(self, node: str) -> frozenset[str]:
        self._require(node)
        return frozenset(_reach(self._parents[node], self._parents))


def _reach(start: Iterable[str], step: dict[str, tuple[str, ...]]) -> set[str]:
    """Every node reachable from ``start`` along ``step`` (a graph's
    ``_children`` or ``_parents``), ``start`` included."""
    seen = set(start)
    stack = list(seen)
    while stack:
        for w in step[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def add_edge(g: CausalGraph, src: str, dst: str, kind: str = LEARNT, directed: bool = True) -> CausalGraph:
    """Return a new graph with the edge added.

    Acyclicity is deliberately not enforced here: domain graphs may hold
    cycles pending :func:`break_cycles`.
    """
    if src == dst:
        raise SelfLoop(f"self-loop on {src}")
    g._require(src, dst)
    if g.has_edge(src, dst):
        raise DuplicateEdge(f"duplicate edge ({src}, {dst})")
    return CausalGraph(nodes=g.nodes, edges=g.edges + (Edge(src, dst, kind, directed),))


def remove_edge(g: CausalGraph, src: str, dst: str) -> CausalGraph:
    e = g.edge(src, dst)
    return CausalGraph(nodes=g.nodes, edges=tuple(x for x in g.edges if x is not e))


def is_dag(g: CausalGraph) -> bool:
    """True iff every edge is directed and a topological order exists."""
    return g.fully_directed and g._topological_order is not None


def topological_order(g: CausalGraph) -> tuple[str, ...]:
    """Topological order with ties broken by node-name lexicographic order."""
    if not g.fully_directed:
        raise CyclicGraph("graph has undirected edges; not a DAG")
    if g._topological_order is None:
        raise CyclicGraph("graph contains a directed cycle")
    return g._topological_order


class Structures(NamedTuple):
    chains: tuple[tuple[str, str, str], ...]     # all directed a -> b -> c
    forks: tuple[tuple[str, tuple[str, str]], ...]      # (node, child pair)
    colliders: tuple[tuple[str, tuple[str, str]], ...]  # (node, parent pair)


def structures(g: CausalGraph) -> Structures:
    """Enumerate chains, forks (common causes), and colliders of a DAG."""
    topological_order(g)  # raises CyclicGraph on non-DAGs
    chains = []
    forks = []
    colliders = []
    for b in sorted(g.nodes):
        ch = g._children[b]
        pa = g._parents[b]
        for a in pa:
            for c in ch:
                chains.append((a, b, c))
        for i in range(len(ch)):
            for j in range(i + 1, len(ch)):
                forks.append((b, (ch[i], ch[j])))
        for i in range(len(pa)):
            for j in range(i + 1, len(pa)):
                colliders.append((b, (pa[i], pa[j])))
    return Structures(tuple(sorted(chains)), tuple(sorted(forks)), tuple(sorted(colliders)))


def d_separated(g: CausalGraph, i: str, j: str, s: Iterable[str] = ()) -> bool:
    """Whether every i-j path is blocked by conditioning set ``s``.

    Bayes-ball (Shachter 1998): a trail leaves ``i`` in both directions,
    and reaching ``j`` means some path is active. A node outside ``s``
    passes the trail down to its children, and up to its parents when the
    trail came from a child. A node in ``s`` that the trail reached from a
    parent bounces it back up to its parents. So a collider outside ``s``
    with a descendant in ``s`` passes the trail: it goes down to that
    descendant, bounces, and climbs back up through the collider.
    """
    s = frozenset(s)
    g._require(i, j, *s)
    if i == j:
        raise UsageError("i and j must differ")
    if i in s or j in s:
        raise UsageError("i and j must not be in the conditioning set")
    topological_order(g)  # raises CyclicGraph on non-DAGs

    visited: set[tuple[str, bool]] = set()
    stack = [(i, True)]  # (node, the trail arrived from a child)
    while stack:
        v, from_child = stack.pop()
        if v == j:
            return False
        if (v, from_child) in visited:
            continue
        visited.add((v, from_child))
        if v not in s:
            stack.extend((c, False) for c in g._children[v])
        if (v in s) != from_child:  # from a child and outside s, or from a parent and in s
            stack.extend((p, True) for p in g._parents[v])
    return True


def _skeleton(g: CausalGraph) -> frozenset[frozenset[str]]:
    return frozenset(frozenset((e.src, e.dst)) for e in g.edges)


def v_structures(g: CausalGraph) -> frozenset[tuple[str, frozenset[str]]]:
    """Unshielded colliders as (collider, {parent, parent}) pairs."""
    skel = _skeleton(g)
    out = set()
    for k in g.nodes:
        pa = g._parents[k]
        for a in range(len(pa)):
            for b in range(a + 1, len(pa)):
                if frozenset((pa[a], pa[b])) not in skel:
                    out.add((k, frozenset((pa[a], pa[b]))))
    return frozenset(out)


def markov_equivalent(g1: CausalGraph, g2: CausalGraph) -> bool:
    """Same skeleton and same v-structures, hence the same independencies."""
    if g1.node_set != g2.node_set:
        raise NodeSetMismatch("graphs must share a node set")
    for g in (g1, g2):
        topological_order(g)
    return _skeleton(g1) == _skeleton(g2) and v_structures(g1) == v_structures(g2)


@dataclass(frozen=True)
class EdgeDiff:
    """Edge-level partition of two graphs over the same node set.

    ``reversed`` pairs are reported in the left graph's orientation. Kinds
    are ignored: a control edge in one graph matches a learnt edge in the
    other.
    """

    common: tuple[tuple[str, str], ...]
    reversed: tuple[tuple[str, str], ...]
    only_left: tuple[tuple[str, str], ...]
    only_right: tuple[tuple[str, str], ...]


def compare(g1: CausalGraph, g2: CausalGraph) -> EdgeDiff:
    if g1.node_set != g2.node_set:
        raise NodeSetMismatch("graphs must share a node set")
    e1 = {(e.src, e.dst) for e in g1.edges}
    e2 = {(e.src, e.dst) for e in g2.edges}
    common = e1 & e2
    rev = {(s, d) for (s, d) in e1 - e2 if (d, s) in e2 - e1}
    only_left = e1 - common - rev
    only_right = e2 - common - {(d, s) for (s, d) in rev}
    return EdgeDiff(
        common=tuple(sorted(common)),
        reversed=tuple(sorted(rev)),
        only_left=tuple(sorted(only_left)),
        only_right=tuple(sorted(only_right)),
    )


def _simple_cycles(g: CausalGraph) -> list[tuple[tuple[str, str], ...]]:
    """All simple directed cycles, each as its edge sequence.

    Plain DFS enumeration, canonicalized by only visiting nodes that sort
    at or after the start node. Fine for the small graphs this library
    handles; not meant for dense graphs with many cycles.
    """
    cycles: list[tuple[tuple[str, str], ...]] = []
    nodes = sorted(g.nodes)

    def dfs(start: str, v: str, path: list[str], on_path: set[str]) -> None:
        for w in g._children[v]:
            if w == start:
                edges = tuple(zip(path, path[1:] + [start]))
                cycles.append(edges)
            elif w > start and w not in on_path:
                path.append(w)
                on_path.add(w)
                dfs(start, w, path, on_path)
                on_path.remove(w)
                path.pop()

    for start in nodes:
        dfs(start, start, [start], {start})
    return cycles


class CycleBreakResult(NamedTuple):
    graph: CausalGraph
    removed: tuple[tuple[str, str], ...]


def break_cycles(g: CausalGraph, removals: Iterable[tuple[str, str]] | None = None) -> CycleBreakResult:
    """Make ``g`` acyclic, either by an explicit edge list or greedily.

    Explicit mode removes exactly the given edges and raises
    :class:`StillCyclic` if cycles remain. Heuristic mode repeatedly
    removes the learnt edge that sits on the most remaining cycles (ties
    by lexicographic (src, dst)); control and physical edges are only
    removed when no learnt edge lies on any cycle.
    """
    if not g.fully_directed:
        raise CyclicGraph("break_cycles expects a fully directed graph")
    if removals is not None:
        out = g
        removed = []
        for src, dst in removals:
            out = remove_edge(out, src, dst)
            removed.append((src, dst))
        if not is_dag(out):
            raise StillCyclic(f"graph still cyclic after removing {sorted(removed)}")
        return CycleBreakResult(out, tuple(removed))

    out = g
    removed = []
    while True:
        cycles = _simple_cycles(out)
        if not cycles:
            break
        hits: dict[tuple[str, str], int] = {}
        for cyc in cycles:
            for edge in cyc:
                hits[edge] = hits.get(edge, 0) + 1
        learnt = {e: c for e, c in hits.items() if out.edge(*e).kind == LEARNT}
        pool = learnt if learnt else hits
        best = min(pool, key=lambda e: (-pool[e], e))
        out = remove_edge(out, *best)
        removed.append(best)
    return CycleBreakResult(out, tuple(removed))


# --- serialization ------------------------------------------------------------

def graph_to_json(g: CausalGraph) -> dict:
    edges = []
    for e in g.edges:
        rec: dict = {"src": e.src, "dst": e.dst, "kind": e.kind}
        if not e.directed:
            rec["directed"] = False
        edges.append(rec)
    return {"nodes": list(g.nodes), "edges": edges}


def graph_from_json(obj: dict) -> CausalGraph:
    from .errors import ParseError

    try:
        nodes = tuple(obj["nodes"])
        edges = tuple(
            Edge(src=e["src"], dst=e["dst"], kind=e.get("kind", LEARNT),
                 directed=e.get("directed", True))
            for e in obj["edges"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed graph JSON: {exc}") from None
    return CausalGraph(nodes=nodes, edges=edges)


_DOT_STYLE = {CONTROL: "dashed", PHYSICAL: "solid", LEARNT: "solid"}


def graph_to_dot(g: CausalGraph) -> str:
    """DOT export: control edges dashed, physical solid, learnt solid gray."""
    lines = ["digraph causal {"]
    for n in g.nodes:
        lines.append(f'  "{n}";')
    for e in g.edges:
        attrs = [f"style={_DOT_STYLE[e.kind]}"]
        if e.kind == LEARNT:
            attrs.append("color=gray40")
        if not e.directed:
            attrs.append("dir=none")
        lines.append(f'  "{e.src}" -> "{e.dst}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
