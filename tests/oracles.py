"""Independent oracles the test suite checks production code against.

These deliberately avoid the library's algorithms: d-separation is decided
by enumerating every undirected path and applying the blocking rules, or on
graphs too large for that, by connectivity in the moralized ancestral graph;
spanning trees come from Prufer sequences; DAG enumeration tries all edge
assignments; posteriors come from the full joint tensor; contingency
counts and chi-square statistics are tallied record by record, the latter
stratum by stratum; a family score is computed from one family's table;
hill-climbing rescores every candidate move from scratch each iteration,
and runs its stale iterations one by one; Chow-Liu joins pairs by Kruskal
and orients the tree by breadth-first search from its root; the cycle
breaker enumerates the remaining cycles after each edge it removes;
PC drops the edges of constant DPs before any test, then runs one
chi-square test each time it visits a pair and a conditioning set, and its
orientation and the PDAG extension scan every name for each rule; a
historian log is parsed, discretized and written cell by cell; dataset JSON
is read by ``json`` into one list per record, and its cells by numpy.
Slow and simple on purpose.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import json
import math
from bisect import bisect_right
from collections import deque
from math import inf, isfinite, nan
from typing import Iterable, Iterator, Mapping
from unittest import mock

import numpy as np

from cpscausal.errors import (
    CpsCausalError,
    CyclicGraph,
    EmptyDataset,
    EmptyInput,
    MissingColumn,
    NoConsistentExtension,
    ModelError,
    NonNumericCell,
    ParseError,
    RaggedRow,
    StillCyclic,
    UnknownColumn,
    UnknownState,
    UnmappedActuatorValue,
    ZeroProbabilityEvidence,
)
from cpscausal.datafile import _columns_as_written, _specs_from_json
from cpscausal.estimation import chi_square_ci, counts, mutual_information
from cpscausal.graph import (
    LEARNT,
    CausalGraph,
    CycleBreakResult,
    Edge,
    _simple_cycles,
    is_dag,
    remove_edge,
    topological_order,
)
from cpscausal.inference import BayesNet, Cpt, Query, _validate_query
from cpscausal.ingest import SENSOR, DiscreteDataset, RawLog, VariableSpec, dataset_from_json
from cpscausal.learning import (
    ClConfig,
    HcConfig,
    HcResult,
    PcConfig,
    PcResult,
    _require_learnable,
)


class IncompleteAssignment(ModelError):
    """An assignment given to joint_prob misses or adds a node."""


class StateSpaceTooLarge(ModelError):
    """The joint that brute_force_posterior would build has more than 1e7
    configurations."""


def all_paths(g: CausalGraph, i: str, j: str) -> list[tuple[str, ...]]:
    """Every simple path between i and j, ignoring edge direction."""
    adj = {n: sorted(set(g.parents(n)) | set(g.children(n))) for n in g.nodes}
    out: list[tuple[str, ...]] = []

    def dfs(v: str, path: list[str], seen: set[str]) -> None:
        if v == j:
            out.append(tuple(path))
            return
        for w in adj[v]:
            if w not in seen:
                path.append(w)
                seen.add(w)
                dfs(w, path, seen)
                seen.discard(w)
                path.pop()

    dfs(i, [i], {i})
    return out


def path_blocked(g: CausalGraph, path: tuple[str, ...], s: frozenset[str],
                 descendants: dict[str, frozenset[str]]) -> bool:
    for k in range(1, len(path) - 1):
        prev, v, nxt = path[k - 1], path[k], path[k + 1]
        is_collider = g.has_edge(prev, v) and g.has_edge(nxt, v)
        if is_collider:
            if v not in s and not (descendants[v] & s):
                return True
        elif v in s:
            return True
    return False


def dsep_oracle(g: CausalGraph, i: str, j: str, s: Iterable[str]) -> bool:
    s = frozenset(s)
    desc = {n: g.descendants(n) for n in g.nodes}
    return all(path_blocked(g, p, s, desc) for p in all_paths(g, i, j))


def reference_d_separated(g: CausalGraph, i: str, j: str, s: Iterable[str] = ()) -> bool:
    """d-separation by the moralized ancestral graph criterion: restrict to
    the ancestral closure of ``{i, j} | s``, marry co-parents, drop ``s``,
    and test undirected connectivity."""
    s = frozenset(s)
    relevant: set[str] = {i, j} | set(s)
    stack = list(relevant)
    while stack:
        v = stack.pop()
        for p in g.parents(v):
            if p not in relevant:
                relevant.add(p)
                stack.append(p)

    adj: dict[str, set[str]] = {v: set() for v in relevant}
    for v in relevant:
        pa = [p for p in g.parents(v) if p in relevant]
        for p in pa:
            adj[v].add(p)
            adj[p].add(v)
        for a in range(len(pa)):
            for b in range(a + 1, len(pa)):
                adj[pa[a]].add(pa[b])
                adj[pa[b]].add(pa[a])

    seen = {i}
    queue = deque([i])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w == j:
                return False
            if w not in seen and w not in s:
                seen.add(w)
                queue.append(w)
    return True


def all_dags(names: tuple[str, ...]) -> Iterator[CausalGraph]:
    """Every labeled DAG over the given nodes (none/forward/backward per pair)."""
    pairs = list(itertools.combinations(names, 2))
    for assign in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (u, v), a in zip(pairs, assign):
            if a == 1:
                edges.append((u, v))
            elif a == 2:
                edges.append((v, u))
        if _acyclic(names, edges):
            yield CausalGraph(nodes=names, edges=tuple(Edge(s_, d) for s_, d in edges))


def _acyclic(names: tuple[str, ...], edges: list[tuple[str, str]]) -> bool:
    children: dict[str, list[str]] = {n: [] for n in names}
    indeg = {n: 0 for n in names}
    for s, d in edges:
        children[s].append(d)
        indeg[d] += 1
    stack = [n for n in names if indeg[n] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                stack.append(c)
    return seen == len(names)


def random_dag(names: tuple[str, ...], rng: np.random.Generator, p: float = 0.4) -> CausalGraph:
    order = list(names)
    rng.shuffle(order)
    edges = []
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if rng.random() < p:
                edges.append(Edge(order[a], order[b]))
    return CausalGraph(nodes=names, edges=tuple(edges))


def prufer_to_tree(seq: tuple[int, ...], names: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    n = len(names)
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    heap = [k for k in range(n) if deg[k] == 1]
    heapq.heapify(heap)
    edges = []
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((names[leaf], names[x]))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(heap, x)
    u, v = heapq.heappop(heap), heapq.heappop(heap)
    edges.append((names[u], names[v]))
    return tuple(edges)


def all_spanning_trees(names: tuple[str, ...]) -> Iterator[tuple[tuple[str, str], ...]]:
    """All n^(n-2) labeled trees over the names (Cayley, via Prufer)."""
    n = len(names)
    if n == 1:
        yield ()
        return
    if n == 2:
        yield ((names[0], names[1]),)
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_to_tree(seq, names)


def random_net(names: tuple[str, ...], max_card: int, rng: np.random.Generator,
               edge_p: float = 0.4):
    """Random DAG plus random strictly positive CPTs."""
    graph = random_dag(names, rng, p=edge_p)
    cards = {n: int(rng.integers(2, max_card + 1)) for n in names}
    cpts = {}
    for node in names:
        parents = tuple(sorted(graph.parents(node)))
        q = int(np.prod([cards[p] for p in parents])) if parents else 1
        table = rng.random((q, cards[node])) + 0.05
        table /= table.sum(axis=1, keepdims=True)
        cpts[node] = Cpt(
            child=node,
            parents=parents,
            parent_cards=tuple(cards[p] for p in parents),
            states=tuple(f"s{k}" for k in range(cards[node])),
            table=table,
        )
    return BayesNet(graph=graph, cpts=cpts)


def row_index(cpt: Cpt, parent_states: Mapping[str, int]) -> int:
    """The CPT row of the parents' states, in the table's C order."""
    idx = tuple(parent_states[p] for p in cpt.parents)
    if not idx:
        return 0
    return int(np.ravel_multi_index(idx, cpt.parent_cards))


def joint_prob(net: BayesNet, assignment: Mapping[str, int]) -> float:
    """Probability of one full assignment: the product of CPT entries,
    accumulated in log space."""
    missing = net.graph.node_set - assignment.keys()
    extra = assignment.keys() - net.graph.node_set
    if missing or extra:
        raise IncompleteAssignment(
            f"assignment must cover every node exactly once "
            f"(missing {sorted(missing)}, unexpected {sorted(extra)})")
    lp = 0.0
    for node in net.graph.nodes:
        cpt = net.cpts[node]
        state = assignment[node]
        if not 0 <= state < cpt.cardinality:
            raise UnknownState(f"{node} has no state index {state}")
        p = cpt.table[row_index(cpt, assignment)][state]
        if p == 0.0:
            return 0.0
        lp += np.log(p)
    return float(np.exp(lp))


def brute_force_posterior(net: BayesNet, q: Query) -> np.ndarray:
    """Enumeration oracle: build the full joint tensor, slice in the
    evidence, and sum out everything but the target."""
    _validate_query(net, q)
    nodes = tuple(sorted(net.graph.nodes))
    cards = tuple(net.cardinality(n) for n in nodes)
    size = 1
    for c in cards:
        size *= c
        if size > 10_000_000:
            raise StateSpaceTooLarge(f"joint has more than 1e7 configurations")
    topological_order(net.graph)

    log_joint = np.zeros(cards)
    for node in nodes:
        cpt = net.cpts[node]
        scope = cpt.parents + (node,)
        shape = tuple(cards[nodes.index(v)] if v in scope else 1 for v in nodes)
        axes = tuple(sorted(range(len(scope)), key=lambda k: nodes.index(scope[k])))
        with np.errstate(divide="ignore"):
            block = np.log(cpt.table).reshape(cpt.parent_cards + (cpt.cardinality,))
        log_joint = log_joint + np.transpose(block, axes).reshape(shape)

    idx = tuple(q.evidence.get(v, slice(None)) for v in nodes)
    sliced = log_joint[idx]
    keep = [v for v in nodes if v not in q.evidence]
    with np.errstate(invalid="ignore"):
        for v in [v for v in keep if v != q.target]:
            sliced = np.logaddexp.reduce(sliced, axis=keep.index(v))
            keep.remove(v)
        z = float(np.logaddexp.reduce(sliced))
    if z == -np.inf or np.isnan(z):
        raise ZeroProbabilityEvidence(f"evidence {dict(q.evidence)!r} has probability 0")
    return np.exp(sliced - z)


def reference_counts(ds: DiscreteDataset, child: str, parents: tuple[str, ...] = ()) -> np.ndarray:
    """N(child_state, parent_config) as an intp ``(q, r_child)`` table, one
    record at a time; parent configurations are row-major in the given order."""
    cards = [ds.cardinality(v) for v in parents]
    table = np.zeros((int(np.prod(cards, dtype=np.int64)), ds.cardinality(child)), dtype=np.intp)
    columns, c = [ds.index(v) for v in parents], ds.index(child)
    for record in records(ds):
        row = 0
        for k, card in zip(columns, cards):
            row = row * card + record[k]
        table[row, record[c]] += 1
    return table


def reference_cpt_tables(ds: DiscreteDataset, graph: CausalGraph, ess: float | None = None) -> dict[str, np.ndarray]:
    """The CPT table of each node that ``fit_mle`` (``ess`` None) or
    ``fit_bayes`` fits, computed by numpy from ``counts``'s integer table."""
    out = {}
    for node in graph.nodes:
        n = np.array(counts(ds, node, tuple(sorted(graph.parents(node)))), dtype=np.intp)
        if ess is None:
            row = n.sum(axis=1)
            empty = row == 0
            table = np.empty(n.shape, dtype=np.float64)
            table[~empty] = n[~empty] / row[~empty, None]
            table[empty] = 1.0 / n.shape[1]
        else:
            q, r = n.shape
            alpha = ess / (q * r)
            table = (n + alpha) / (n.sum(axis=1) + alpha * r)[:, None]
        out[node] = table
    return out


def reference_chi_square(ds: DiscreteDataset, i: str, j: str, s: tuple[str, ...] = ()) -> tuple[float, int]:
    """Pearson chi-square statistic and degrees of freedom of i and j given
    s, tallied record by record and summed one non-empty stratum at a time."""
    ci, cj = ds.cardinality(i), ds.cardinality(j)
    xi, xj = ds.column(i), ds.column(j)
    strata = list(zip(*(ds.column(v) for v in s))) if s else [()] * ds.n_records
    stat, dof = 0.0, 0
    for key in itertools.product(*(range(ds.cardinality(v)) for v in s)):
        obs = np.zeros((ci, cj))
        for r, stratum in enumerate(strata):
            if stratum == key:
                obs[xi[r], xj[r]] += 1
        total = obs.sum()
        if total == 0:
            continue
        dof += (ci - 1) * (cj - 1)
        expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / total
        mask = expected > 0
        stat += float((np.square(obs[mask] - expected[mask]) / expected[mask]).sum())
    return stat, dof


def reference_pc_skeleton_start(ds: DiscreteDataset) -> tuple[list[str], dict[str, set[str]],
                                                               dict[tuple[str, str], tuple[str, ...]]]:
    """PC's starting skeleton: the sorted names, and the complete undirected
    graph as adjacency sets, less the edges of every DP that is constant in
    the data, with the separating sets of those edges."""
    _require_learnable(ds)
    names = sorted(ds.names)
    adj: dict[str, set[str]] = {n: set(names) - {n} for n in names}
    sepsets: dict[tuple[str, str], tuple[str, ...]] = {}

    # A DP constant in the data is independent of every other DP; level 0
    # drops its edges with an empty separating set, without a test
    # (chi_square_ci rejects a constant DP).
    for i in names:
        if sum(1 for n in counts(ds, i)[0] if n) == 1:
            for j in adj[i]:
                adj[j].discard(i)
                sepsets[(i, j)] = sepsets[(j, i)] = ()
            adj[i] = set()
    return names, adj, sepsets


def reference_learn_pc(ds: DiscreteDataset, cfg: PcConfig = PcConfig()) -> PcResult:
    """PC's skeleton with one ``chi_square_ci(ds, i, j, s)`` call per test,
    in the order the walk visits the ordered pair (i, j), repeats included;
    then ``reference_pc_orient``."""
    names, adj, sepsets = reference_pc_skeleton_start(ds)
    max_cond = cfg.max_cond_size if cfg.max_cond_size is not None else len(names) - 2
    level = 0
    while level <= max_cond:
        if not any(len(adj[i] - {j}) >= level for i in names for j in adj[i]):
            break
        for i in names:
            for j in sorted(adj[i]):
                if j not in adj[i]:  # removed while iterating
                    continue
                for s in itertools.combinations(sorted(adj[i] - {j}), level):
                    if chi_square_ci(ds, i, j, s, alpha=cfg.alpha).independent:
                        adj[i].discard(j)
                        adj[j].discard(i)
                        sepsets[(i, j)] = sepsets[(j, i)] = s
                        break
        level += 1
    return reference_pc_orient(ds, names, adj, sepsets)


def reference_pc_orient(ds: DiscreteDataset, names: list[str], adj: dict[str, set[str]],
                        sepsets: dict[tuple[str, str], tuple[str, ...]]) -> PcResult:
    """PC's second phase on a learnt skeleton: v-structures, then Meek
    rules R1-R4 until none applies, each rule a scan of every name over a
    dict of directed pairs and a set of undirected ones."""
    directed: dict[tuple[str, str], bool] = {}  # (src, dst) -> True once oriented
    undirected: set[frozenset[str]] = {frozenset((i, j)) for i in names for j in adj[i]}

    def is_oriented(a: str, b: str) -> bool:
        return (a, b) in directed or (b, a) in directed

    # v-structures: i -> k <- j for non-adjacent i, j with k outside sepset(i, j)
    for i, j in itertools.combinations(names, 2):
        if j in adj[i]:
            continue
        for k in sorted(adj[i] & adj[j]):
            if k in sepsets.get((i, j), ()):
                continue
            for a in (i, j):
                # earlier orientations win on conflict, keeping output deterministic
                if not is_oriented(a, k):
                    directed[(a, k)] = True
                    undirected.discard(frozenset((a, k)))

    def adjacent(a: str, b: str) -> bool:
        return b in adj[a]

    def has_directed(a: str, b: str) -> bool:
        return (a, b) in directed

    def meek_pass() -> bool:
        changed = False
        for pair in sorted(undirected, key=sorted):
            a, b = sorted(pair)
            for x, y in ((a, b), (b, a)):
                if frozenset((x, y)) not in undirected:
                    break
                if _meek_applies(x, y):
                    directed[(x, y)] = True
                    undirected.discard(frozenset((x, y)))
                    changed = True
                    break
        return changed

    def _meek_applies(x: str, y: str) -> bool:
        # R1: z -> x, x - y, z and y non-adjacent  =>  x -> y
        for z in names:
            if has_directed(z, x) and not adjacent(z, y) and z != y:
                return True
        # R2: x -> z -> y with x - y  =>  x -> y
        for z in names:
            if has_directed(x, z) and has_directed(z, y):
                return True
        # R3: x - z, x - w, z -> y, w -> y, z and w non-adjacent  =>  x -> y
        half = [z for z in names
                if frozenset((x, z)) in undirected and has_directed(z, y)]
        for z, w in itertools.combinations(half, 2):
            if not adjacent(z, w):
                return True
        # R4: x - z, z -> w, w -> y, z and y non-adjacent  =>  x -> y
        for z in names:
            if frozenset((x, z)) not in undirected or adjacent(z, y) or z == y:
                continue
            for w in names:
                if has_directed(z, w) and has_directed(w, y):
                    return True
        return False

    while meek_pass():
        pass

    edges = [Edge(s, d, LEARNT, True) for (s, d) in sorted(directed)]
    edges += [Edge(a, b, LEARNT, False) for a, b in sorted(tuple(sorted(p)) for p in undirected)]
    return PcResult(CausalGraph(nodes=ds.names, edges=tuple(edges)), sepsets)


def reference_extend_to_dag(pdag: CausalGraph) -> CausalGraph:
    """Orient the undirected edges of a PDAG into a consistent DAG.

    Dor-Tarsi style: repeatedly pick a node x that is a sink w.r.t.
    directed edges and whose undirected neighbours are adjacent to all of
    x's other neighbours; orient x's undirected edges toward x and retire
    x. Ties pick the lexicographically greatest eligible node, which
    orients free edges away from smaller names.
    """
    if pdag.fully_directed:
        if not is_dag(pdag):
            raise NoConsistentExtension("input has a directed cycle")
        return pdag

    alive = set(pdag.nodes)
    children = {n: {c for c in pdag._children[n]} for n in pdag.nodes}
    parents = {n: {p for p in pdag._parents[n]} for n in pdag.nodes}
    und = {n: set(pdag._undirected_neighbors[n]) for n in pdag.nodes}
    oriented: list[tuple[str, str]] = []

    def eligible(x: str) -> bool:
        if children[x] & alive:
            return False
        nb = (parents[x] | und[x]) & alive
        for y in und[x] & alive:
            others = nb - {y}
            y_adj = (parents[y] | children[y] | und[y]) & alive
            if not others <= y_adj:
                return False
        return True

    while alive:
        x = next((n for n in sorted(alive, reverse=True) if eligible(n)), None)
        if x is None:
            raise NoConsistentExtension("PDAG admits no consistent extension")
        for y in sorted(und[x] & alive):
            oriented.append((y, x))
        alive.discard(x)

    new_edges = []
    for e in pdag.edges:
        if e.directed:
            new_edges.append(e)
        elif (e.src, e.dst) in oriented:
            new_edges.append(Edge(e.src, e.dst, e.kind, True))
        else:
            new_edges.append(Edge(e.dst, e.src, e.kind, True))
    out = CausalGraph(nodes=pdag.nodes, edges=tuple(new_edges))
    if not is_dag(out):
        raise NoConsistentExtension("extension left a directed cycle")
    return out


def reference_family_score(ds: DiscreteDataset, child: str, parents: tuple[str, ...],
                           method: str = "bic", ess: float = 1.0) -> float:
    """One family's score from its own count table: BIC as one numpy sum
    over the non-zero cells of their ``math.log`` terms, K2 and BDeu row by
    row with ``math.lgamma``."""
    n = np.array(counts(ds, child, parents), dtype=np.intp)
    q, r = n.shape
    row = n.sum(axis=1)
    if method == "bic":
        mask = n > 0
        row_totals = np.broadcast_to(row[:, None], n.shape)
        logs = np.array([math.log(x) for x in (n[mask] / row_totals[mask]).tolist()])
        ll = float((n[mask] * logs).sum())
        return ll - (math.log(ds.n_records) / 2.0) * (r - 1) * q
    if method == "k2":
        out = 0.0
        for k in range(q):
            out += math.lgamma(r) - math.lgamma(row[k] + r)
            out += sum(math.lgamma(v + 1) for v in n[k])
        return out
    assert method == "bdeu" and ess > 0
    a_row = ess / q
    a_cell = ess / (q * r)
    out = 0.0
    for k in range(q):
        out += math.lgamma(a_row) - math.lgamma(a_row + row[k])
        out += sum(math.lgamma(a_cell + v) - math.lgamma(a_cell) for v in n[k])
    return out


_MOVE_ORDER = {"add": 0, "remove": 1, "reverse": 2}


def reference_learn_hc(ds: DiscreteDataset, cfg: HcConfig = HcConfig()) -> HcResult:
    """Greedy hill-climb over add/remove/reverse moves from the empty graph.

    Each iteration applies the single strictly score-improving move with
    the largest gain (ties: add < remove < reverse, then (src, dst)).
    Stops after ``plateau_k`` iterations without improvement or at
    ``max_iter``. Returns the DAG and the per-iteration score trace.
    """
    _require_learnable(ds)
    names = sorted(ds.names)
    parents: dict[str, set[str]] = {n: set() for n in names}

    cache: dict[tuple[str, tuple[str, ...]], float] = {}

    def fam(child: str, ps: set[str]) -> float:
        key = (child, tuple(sorted(ps)))
        if key not in cache:
            cache[key] = reference_family_score(ds, child, key[1], method=cfg.score_method, ess=cfg.ess)
        return cache[key]

    def creates_cycle(src: str, dst: str) -> bool:
        # adding src -> dst closes a cycle iff dst already reaches src
        stack, seen = [dst], set()
        while stack:
            v = stack.pop()
            if v == src:
                return True
            for w in names:
                if v in parents[w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    total = sum(fam(n, parents[n]) for n in names)
    trace: list[float] = []
    stale = 0
    iteration = 0
    while iteration < cfg.max_iter and stale < cfg.plateau_k:
        iteration += 1
        best: tuple[float, int, str, str] | None = None
        best_apply = None

        def consider(delta: float, kind: str, src: str, dst: str, apply_fn) -> None:
            nonlocal best, best_apply
            key = (-delta, _MOVE_ORDER[kind], src, dst)
            if delta > 0 and (best is None or key < best):
                best = key
                best_apply = apply_fn

        for src, dst in itertools.permutations(names, 2):
            if src in parents[dst]:
                continue
            if cfg.max_parents is not None and len(parents[dst]) >= cfg.max_parents:
                continue
            if creates_cycle(src, dst):
                continue
            delta = fam(dst, parents[dst] | {src}) - fam(dst, parents[dst])
            consider(delta, "add", src, dst,
                     lambda s=src, d=dst: parents[d].add(s))

        for src, dst in itertools.permutations(names, 2):
            if src not in parents[dst]:
                continue
            delta = fam(dst, parents[dst] - {src}) - fam(dst, parents[dst])
            consider(delta, "remove", src, dst,
                     lambda s=src, d=dst: parents[d].discard(s))

        for src, dst in itertools.permutations(names, 2):
            if src not in parents[dst]:
                continue
            if cfg.max_parents is not None and len(parents[src]) >= cfg.max_parents:
                continue
            parents[dst].discard(src)
            cyclic = creates_cycle(dst, src)
            parents[dst].add(src)
            if cyclic:
                continue
            delta = (fam(dst, parents[dst] - {src}) - fam(dst, parents[dst])
                     + fam(src, parents[src] | {dst}) - fam(src, parents[src]))
            consider(delta, "reverse", src, dst,
                     lambda s=src, d=dst: (parents[d].discard(s), parents[s].add(d)))

        if best_apply is not None:
            best_apply()
            total += -best[0]
            stale = 0
        else:
            stale += 1
        trace.append(total)

    edges = tuple(Edge(p, n, LEARNT, True) for n in names for p in sorted(parents[n]))
    return HcResult(CausalGraph(nodes=ds.names, edges=edges), tuple(trace))


def reference_learn_cl(ds: DiscreteDataset, cfg: ClConfig) -> CausalGraph:
    """Chow-Liu: maximum-weight spanning tree on pairwise mutual
    information by Kruskal's algorithm with a union-find, the pairs ranked
    by the larger weight and then the sorted pair; then a breadth-first
    pass from the configured root orients the tree away from it."""
    _require_learnable(ds)
    if cfg.root not in ds.names:
        raise UnknownColumn(f"root {cfg.root!r} is not a dataset variable")
    names = sorted(ds.names)

    weights = {(u, v): mutual_information(ds, u, v)
               for u, v in itertools.combinations(names, 2)}
    ranked = sorted(weights, key=lambda p: (-weights[p], p))

    parent = {n: n for n in names}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree: dict[str, set[str]] = {n: set() for n in names}
    picked = 0
    for u, v in ranked:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree[u].add(v)
            tree[v].add(u)
            picked += 1
            if picked == len(names) - 1:
                break

    edges: list[Edge] = []
    seen = {cfg.root}
    frontier = [cfg.root]
    while frontier:
        nxt: list[str] = []
        for u in frontier:
            for v in sorted(tree[u]):
                if v not in seen:
                    seen.add(v)
                    edges.append(Edge(u, v, LEARNT, True))
                    nxt.append(v)
        frontier = nxt
    return CausalGraph(nodes=ds.names, edges=tuple(edges))


def reference_break_cycles(g: CausalGraph, removals: Iterable[tuple[str, str]] | None = None) -> CycleBreakResult:
    """``break_cycles`` with the simple cycles enumerated again after each
    removal in heuristic mode, and a removal loop of its own in each mode."""
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


def reference_parse_log(text: str) -> RawLog:
    """``parse_log`` as one loop over the cells, record by record, each
    value cell stripped and read by ``float``; a cell that is not ASCII
    after stripping is not a reading. Errors name the line of the text on
    which the faulty record starts."""
    reader = csv.reader(io.StringIO(text))
    rows: list[tuple[int, list[str]]] = []
    line = 1  # where the next record starts
    try:
        for row in reader:
            if row and any(cell.strip() for cell in row):
                rows.append((line, row))
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise EmptyInput("log has no header row")
    header = [cell.strip() for cell in rows[0][1]]
    if len(rows) == 1:
        raise EmptyInput("log has a header but no records")

    ts_idx = [k for k, name in enumerate(header) if name.lower() == "timestamp"]
    value_idx = [k for k in range(len(header)) if k not in ts_idx]
    columns = tuple(header[k] for k in value_idx)
    if len(set(columns)) != len(columns) or any(not c for c in columns):
        raise ParseError("column names must be unique and non-empty")

    n_cols = len(header)
    values: list[list[float]] = [[] for _ in columns]
    timestamps: list[str] = []
    for r, row in rows[1:]:
        if len(row) != n_cols:
            raise RaggedRow(f"line {r}: expected {n_cols} cells, got {len(row)}")
        for out, k in enumerate(value_idx):
            cell = row[k].strip()
            try:
                value = float(cell)
            except ValueError:
                value = nan
            # float() also reads "nan", "inf", "1_0" and digits outside ASCII
            # such as "\u0661"; none of them is a reading
            if not isfinite(value) or "_" in cell or not cell.isascii():
                raise NonNumericCell(f"line {r}, column {header[k]!r}: {cell!r}")
            values[out].append(value)
        if ts_idx:
            timestamps.append(row[ts_idx[0]].strip())

    return RawLog(columns=columns, values=tuple(values), timestamps=tuple(timestamps) if ts_idx else None)


def reference_state_of(spec: VariableSpec, value: float) -> int:
    """State index of one raw reading: bisection for a sensor, a linear
    search of the rounded reading in the codes for an actuator."""
    if spec.kind == SENSOR:
        return bisect_right(spec.bin_edges, value)
    code = round(value)
    if abs(value - code) > 1e-9:
        raise UnmappedActuatorValue(f"{spec.name}: non-integer actuator value {float(value)!r}")
    codes = spec.codes if spec.codes is not None else tuple(range(len(spec.states)))
    try:
        return codes.index(code)
    except ValueError:
        raise UnmappedActuatorValue(f"{spec.name}: code {code} not in declared codes {codes}") from None


def reference_discretize(log: RawLog, specs: list[VariableSpec] | tuple[VariableSpec, ...]) -> DiscreteDataset:
    """``discretize`` with every actuator cell mapped by :func:`reference_state_of`."""
    specs = tuple(specs)
    for spec in specs:
        if spec.name not in log.columns:
            raise MissingColumn(f"log has no column {spec.name!r}")
    columns = []
    for spec in specs:
        raw = log.column(spec.name)
        if spec.kind == SENSOR:
            columns.append(np.searchsorted(np.asarray(spec.bin_edges), raw, side="right").tolist())
        else:
            columns.append([reference_state_of(spec, v) for v in raw])
    return DiscreteDataset(specs=specs, columns=columns)


def reference_write_historian_csv(ds: DiscreteDataset) -> str:
    """``write_historian_csv`` as one loop over the records, each rendered
    cell by cell and joined."""
    rep: list[list[str]] = []
    for spec in ds.specs:
        if spec.kind == SENSOR:
            e = spec.bin_edges
            vals = [e[0] - 1.0]
            vals += [(a + b) / 2.0 for a, b in zip(e, e[1:])]
            vals.append(e[-1] + 1.0)
            # a value outside its state's interval falls back to the float just
            # below the lowest edge (state 0) or to the interval's left edge
            for state, v in enumerate(vals):
                low = e[state - 1] if state else -inf
                high = e[state] if state < len(e) else inf
                if not (isfinite(v) and low <= v < high):
                    vals[state] = math.nextafter(e[0], -inf) if state == 0 else low
            rep.append([repr(v) for v in vals])
        else:
            codes = spec.codes if spec.codes is not None else tuple(range(len(spec.states)))
            rep.append([str(c) for c in codes])

    buf = io.StringIO()
    buf.write(",".join(["Timestamp", *ds.names]) + "\n")
    for t in range(ds.n_records):
        row = [str(t)]
        row += [rep[k][ds.columns[k][t]] for k in range(len(ds.specs))]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def records(ds: DiscreteDataset) -> list[list[int]]:
    """The dataset's records, one list of state indices per record."""
    return [list(record) for record in zip(*ds.columns)]


def reference_dataset_from_json(obj) -> DiscreteDataset:
    """``dataset_from_json`` with the cells read by numpy's
    ``asarray(data, dtype=int64)``, whose faults it names as numpy does,
    then the dataset's checks, then every cell's type."""
    try:
        specs = _specs_from_json(obj["specs"])
        data = np.asarray(obj["data"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed dataset JSON: {exc}") from None
    except OverflowError:
        raise ParseError("malformed dataset JSON: a data cell is outside the int64 range") from None
    if data.ndim != 2 or data.shape[1] != len(specs):
        raise EmptyDataset("data shape does not match specs")
    ds = DiscreteDataset(specs=specs, columns=[column.tolist() for column in data.T])
    if not all(isinstance(cell, int) and not isinstance(cell, bool) for row in obj["data"] for cell in row):
        raise ParseError("malformed dataset JSON: every data cell must be an integer")
    return ds


def reference_dataset_from_text(text: str) -> DiscreteDataset:
    """The dataset of a dataset file's ``text``, read by ``json.loads`` into
    Python lists, then by :func:`reference_dataset_from_json`."""
    return reference_dataset_from_json(json.loads(text))


def read_dataset_text(text: str) -> DiscreteDataset:
    """The dataset of a dataset file's ``text`` as the CLI's one reader,
    ``cli._load_columns``, reads the file: in the writer's layout, a block
    of records at a time, and else through ``json`` and
    ``dataset_from_json``. Text that is not JSON raises
    :class:`json.JSONDecodeError`."""
    ds = _columns_as_written(io.BytesIO(text.encode()))
    return ds if ds is not None else dataset_from_json(json.loads(text))


def read_as_one_array(text: str) -> bool:
    """Whether :func:`read_dataset_text` reads ``text`` without handing
    all of it to ``json.loads``, that is, a block of records at a time and
    not as a list per record."""
    seen = []
    loads = json.loads

    def spy(s, *args, **kwargs):
        seen.append(s)
        return loads(s, *args, **kwargs)

    with mock.patch("json.loads", spy):
        try:
            read_dataset_text(text)
        except (CpsCausalError, json.JSONDecodeError):
            pass
    return text not in seen
