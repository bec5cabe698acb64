"""Independent oracles the test suite checks production code against.

These deliberately avoid the library's algorithms: d-separation is decided
by enumerating every undirected path and applying the blocking rules, or on
graphs too large for that, by connectivity in the moralized ancestral graph;
spanning trees come from Prufer sequences; DAG enumeration tries all edge
assignments; posteriors come from the full joint tensor; chi-square
statistics are tallied record by record, stratum by stratum; hill-climbing
rescores every candidate move from scratch each iteration; a historian log
is parsed and discretized cell by cell; dataset JSON is read by ``json``
into one list per record. Slow and simple on purpose.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import json
from bisect import bisect_right
from collections import deque
from math import isfinite, nan
from typing import Iterable, Iterator, Mapping

import numpy as np

from cpscausal.errors import (
    EmptyInput,
    IncompleteAssignment,
    MissingColumn,
    NonNumericCell,
    ParseError,
    RaggedRow,
    StateSpaceTooLarge,
    UnknownState,
    UnmappedActuatorValue,
    ZeroProbabilityEvidence,
)
from cpscausal.estimation import BayesNet, family_score
from cpscausal.graph import LEARNT, CausalGraph, Edge, topological_order
from cpscausal.inference import Query, _validate_query
from cpscausal.ingest import SENSOR, DiscreteDataset, RawLog, VariableSpec, dataset_from_json
from cpscausal.learning import HcConfig, HcResult, _require_learnable


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
    from cpscausal.estimation import BayesNet, Cpt

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
        p = cpt.table[cpt.row_index(assignment), state]
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


def reference_chi_square(ds: DiscreteDataset, i: str, j: str, s: tuple[str, ...] = ()) -> tuple[float, int]:
    """Pearson chi-square statistic and degrees of freedom of i and j given
    s, tallied record by record and summed one non-empty stratum at a time."""
    ci, cj = ds.cardinality(i), ds.cardinality(j)
    xi, xj = ds.column(i), ds.column(j)
    strata = [tuple(row) for row in ds.data[:, [ds.index(v) for v in s]].tolist()]
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
            cache[key] = family_score(ds, child, key[1], method=cfg.score_method, ess=cfg.ess)
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


def reference_parse_log(text: str) -> RawLog:
    """``parse_log`` as one loop over the cells, record by record. Errors
    name the line of the text on which the faulty record starts."""
    reader = csv.reader(io.StringIO(text))
    rows: list[tuple[int, list[str]]] = []
    line = 1  # where the next record starts
    for row in reader:
        if row and any(cell.strip() for cell in row):
            rows.append((line, row))
        line = reader.line_num + 1
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
    values = np.empty((len(rows) - 1, len(columns)), dtype=np.float64)
    timestamps: list[str] = []
    for out_row, (r, row) in enumerate(rows[1:]):
        if len(row) != n_cols:
            raise RaggedRow(f"line {r}: expected {n_cols} cells, got {len(row)}")
        for out, k in enumerate(value_idx):
            cell = row[k].strip()
            try:
                value = float(cell)
            except ValueError:
                value = nan
            # float() also reads "nan", "inf" and "1_0"; none of them is a reading
            if not isfinite(value) or "_" in cell:
                raise NonNumericCell(f"line {r}, column {header[k]!r}: {cell!r}")
            values[out_row, out] = value
        if ts_idx:
            timestamps.append(row[ts_idx[0]].strip())

    return RawLog(columns=columns, values=values, timestamps=tuple(timestamps) if ts_idx else None)


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
    data = np.empty((log.n_records, len(specs)), dtype=np.int64)
    for k, spec in enumerate(specs):
        raw = log.column(spec.name)
        if spec.kind == SENSOR:
            data[:, k] = np.searchsorted(np.asarray(spec.bin_edges), raw, side="right")
        else:
            data[:, k] = [reference_state_of(spec, v) for v in raw]
    return DiscreteDataset(specs=specs, data=data)


def reference_dataset_from_text(text: str) -> DiscreteDataset:
    """``dataset_from_text`` as ``json.loads`` into Python lists, then the
    dict validator."""
    return dataset_from_json(json.loads(text))
