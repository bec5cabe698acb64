"""Structure learning: PC (constraint-based), hill-climb (score-based),
and Chow-Liu (tree-based).

All three learners are deterministic given (dataset, config): pairs are
visited in lexicographic name order, candidate moves are tie-broken
lexicographically, and spanning-tree ties fall back to the sorted node
pair. Learnt edges carry the ``learnt`` kind; PC output may be partially
directed (undirected edges flagged), in which case
:func:`extend_to_dag` produces a consistent fully directed extension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InsufficientData, NoConsistentExtension, UnknownColumn
from .estimation import chi_square_ci, counts, family_score, mutual_information
from .graph import LEARNT, CausalGraph, Edge, is_dag
from .ingest import DiscreteDataset


@dataclass(frozen=True)
class PcConfig:
    alpha: float = 0.01
    max_cond_size: int | None = None  # default: node count - 2

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class HcConfig:
    score_method: str = "bic"  # bic | k2 | bdeu
    plateau_k: int = 1
    max_iter: int = 200
    max_parents: int | None = None
    ess: float = 1.0          # bdeu only

    def __post_init__(self):
        if self.plateau_k < 1 or self.max_iter < 1 or self.plateau_k > self.max_iter:
            raise ValueError("need 1 <= plateau_k <= max_iter")
        if self.score_method not in ("bic", "k2", "bdeu"):
            raise ValueError(f"unknown score method {self.score_method!r}")


@dataclass(frozen=True)
class ClConfig:
    root: str


class PcResult(NamedTuple):
    graph: CausalGraph
    sepsets: dict[tuple[str, str], tuple[str, ...]]


class HcResult(NamedTuple):
    graph: CausalGraph
    trace: tuple[float, ...]


def _require_learnable(ds: DiscreteDataset) -> None:
    if len(ds.specs) < 2:
        raise InsufficientData("structure learning needs at least 2 variables")


def learn_pc(ds: DiscreteDataset, cfg: PcConfig = PcConfig()) -> PcResult:
    """PC algorithm: skeleton by conditional-independence tests, then
    v-structure orientation and Meek rules R1-R4.

    Starts from the complete undirected graph. For growing conditioning
    size l, each ordered adjacent pair (i, j) is tested against every
    l-subset of adj(i) minus j; the edge is dropped on the first
    independence and the separating set recorded. Edges the rules cannot
    orient are returned with their undirected flag set.
    """
    _require_learnable(ds)
    names = sorted(ds.names)
    max_cond = cfg.max_cond_size if cfg.max_cond_size is not None else len(names) - 2

    adj: dict[str, set[str]] = {n: set(names) - {n} for n in names}
    sepsets: dict[tuple[str, str], tuple[str, ...]] = {}

    # A DP constant in the data is independent of every other DP; level 0
    # drops its edges with an empty separating set, without a test.
    for i in names:
        if (counts(ds, i) > 0).sum() == 1:
            for j in adj[i]:
                adj[j].discard(i)
                sepsets[(i, j)] = sepsets[(j, i)] = ()
            adj[i] = set()

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


def extend_to_dag(pdag: CausalGraph) -> CausalGraph:
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


_MOVE_ORDER = {"add": 0, "remove": 1, "reverse": 2}


def learn_hc(ds: DiscreteDataset, cfg: HcConfig = HcConfig()) -> HcResult:
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


def learn_cl(ds: DiscreteDataset, cfg: ClConfig) -> CausalGraph:
    """Chow-Liu: maximum-weight spanning tree on pairwise mutual
    information, oriented away from the configured root."""
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
