"""Structure learning: PC (constraint-based), hill-climb (score-based),
and Chow-Liu (tree-based).

All three learners are deterministic given (dataset, config): pairs are
visited in lexicographic name order, candidate moves are tie-broken
lexicographically, and spanning-tree ties fall back to the sorted node
pair. Learnt edges carry the ``learnt`` kind; PC output may be partially
directed (undirected edges flagged), in which case
:func:`graph.extend_to_dag` produces a consistent fully directed
extension.

Each learner takes a :class:`datafile.DiscreteDataset`, counts through
the dataset's one :class:`tally.Tallies` (its ``tallies``), and tests or
scores each table with :mod:`estimation`'s own formulas, so that each
statistic, score and mutual information is the float that
``chi_square_ci``, ``family_score`` or ``mutual_information`` gives for
it. This module, like those, imports
only the standard library and the package, and no numpy.

PC's orientation keeps the PDAG as per-node parent, child and undirected
sets, so each Meek rule is a set expression; ``extend_to_dag`` reads the
graph's own per-node maps. The test suite's oracles keep the earlier scans
of every name (``reference_pc_orient``, ``reference_extend_to_dag``) apart
from the library, and check both against them; ``reference_learn_pc``
also builds its own starting skeleton, without the edges of constant DPs,
which ``learn_pc`` leaves to its level-0 tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf
from typing import NamedTuple

from .errors import InsufficientData, UnknownColumn, UsageError
from .estimation import _chi2_sf, _chi_square, _column_of, _mutual_information, _scorer
# no longer called here; bench/tracing.py wraps them under these names
from .estimation import chi_square_ci, family_score, mutual_information  # noqa: F401
from .graph import LEARNT, CausalGraph, Edge
# in graph, so that fit extends a PDAG without the learners; still named here
from .graph import extend_to_dag  # noqa: F401
from .tally import Tallies


@dataclass(frozen=True)
class PcConfig:
    alpha: float = 0.01
    max_cond_size: int | None = None  # default: node count - 2

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise UsageError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.max_cond_size is not None and self.max_cond_size < 0:
            raise UsageError(f"max_cond_size must be >= 0, got {self.max_cond_size}")


@dataclass(frozen=True)
class HcConfig:
    score_method: str = "bic"  # bic | k2 | bdeu
    plateau_k: int = 1        # k > 1 only repeats the final score: a stale iteration changes nothing
    max_iter: int = 200
    max_parents: int | None = None
    ess: float = 1.0          # bdeu only

    def __post_init__(self):
        if self.plateau_k < 1 or self.max_iter < 1 or self.plateau_k > self.max_iter:
            raise UsageError("need 1 <= plateau_k <= max_iter")
        if self.score_method not in ("bic", "k2", "bdeu"):
            raise UsageError(f"unknown score method {self.score_method!r}")
        if self.max_parents is not None and self.max_parents < 0:
            raise UsageError(f"max_parents must be >= 0, got {self.max_parents}")


@dataclass(frozen=True)
class ClConfig:
    root: str


class PcResult(NamedTuple):
    graph: CausalGraph
    sepsets: dict[tuple[str, str], tuple[str, ...]]


class HcResult(NamedTuple):
    graph: CausalGraph
    trace: tuple[float, ...]


def _require_learnable(ds) -> None:
    if len(ds.specs) < 2:
        raise InsufficientData("structure learning needs at least 2 variables")


def _names(ds) -> tuple[str, ...]:
    """The dataset's DP names, in column order."""
    return tuple(spec.name for spec in ds.specs)


def learn_pc(ds, cfg: PcConfig = PcConfig()) -> PcResult:
    """PC algorithm: skeleton by conditional-independence tests, then
    v-structure orientation and Meek rules R1-R4.

    Starts from the complete undirected graph. For growing conditioning
    size l, each ordered adjacent pair (i, j) is tested against every
    l-subset of adj(i) minus j; the edge is dropped on the first
    independence and the separating set recorded. Edges the rules cannot
    orient are returned with their undirected flag set.

    A DP constant in the data needs no special case: each of its expected
    counts is exact, so its level-0 statistic is 0, p = 1, and every one of
    its edges goes at level 0 with the separating set ``()``.

    Each test of an unordered pair runs once, by :func:`_ci_statistic`, as
    ``chi_square_ci(ds, min(i, j), max(i, j), s)`` computes it, and is
    memoized. A p-value is computed from the memoized statistic each time
    the walk reads a test, and only then.
    """
    _require_learnable(ds)
    names = sorted(_names(ds))
    adj: dict[str, set[str]] = {n: set(names) - {n} for n in names}
    sepsets: dict[tuple[str, str], tuple[str, ...]] = {}
    max_cond = cfg.max_cond_size if cfg.max_cond_size is not None else len(names) - 2

    column, tally = _column_of(ds), ds.tallies
    # statistics under the key (min(i, j), max(i, j), s)
    stats: dict[tuple[str, str, tuple[str, ...]], tuple[float, int]] = {}

    for level in range(max_cond + 1):
        if all(len(adj[i]) <= level for i in names):  # no pair has a set of this size left
            break
        for i in names:
            for j in sorted(adj[i]):
                a, b = min(i, j), max(i, j)
                for s in itertools.combinations(sorted(adj[i] - {j}), level):
                    if (a, b, s) not in stats:
                        stats[a, b, s] = _ci_statistic(tally, column, a, b, s)
                    if _chi2_sf(*stats[a, b, s]) > cfg.alpha:
                        adj[i].discard(j)
                        adj[j].discard(i)
                        sepsets[(i, j)] = sepsets[(j, i)] = s
                        break
    return _pc_orient(ds, names, adj, sepsets)


def _ci_statistic(tally: Tallies, column: dict[str, int], i: str, j: str, s: tuple[str, ...]) -> tuple[float, int]:
    """The chi-square statistic and degrees of freedom of i independent of
    j given s, from the table of ``(*s, i, j)``."""
    ci, cj = column[i], column[j]
    return _chi_square(tally.flat((*(column[v] for v in s), ci, cj)), tally.cards[ci], tally.cards[cj])


def _pc_orient(ds, names: list[str], adj: dict[str, set[str]],
               sepsets: dict[tuple[str, str], tuple[str, ...]]) -> PcResult:
    """PC's second phase on a learnt skeleton: v-structures, then Meek
    rules R1-R4 until a pass over the sorted undirected pairs orients none.
    ``adj`` stays the skeleton; only ``orient`` moves an edge out of the
    ``und`` sets into ``pa`` and ``ch``."""
    pa: dict[str, set[str]] = {n: set() for n in names}
    ch: dict[str, set[str]] = {n: set() for n in names}
    und = {n: set(adj[n]) for n in names}

    def orient(a: str, b: str) -> None:
        und[a].discard(b)
        und[b].discard(a)
        ch[a].add(b)
        pa[b].add(a)

    # v-structures: i -> k <- j for non-adjacent i, j with k outside sepset(i, j)
    for i, j in itertools.combinations(names, 2):
        if j in adj[i]:
            continue
        for k in sorted(adj[i] & adj[j]):
            if k in sepsets.get((i, j), ()):
                continue
            for a in (i, j):
                # earlier orientations win on conflict, keeping output deterministic
                if k in und[a]:
                    orient(a, k)

    def meek_applies(x: str, y: str) -> bool:
        """Whether a rule orients the undirected x - y as x -> y."""
        return (any(z not in adj[y] for z in pa[x])  # R1: z -> x, z and y non-adjacent
                or not ch[x].isdisjoint(pa[y])  # R2: x -> z -> y
                # R3: x - z -> y and x - w -> y, z and w non-adjacent
                or any(w not in adj[z] for z, w in itertools.combinations(und[x] & pa[y], 2))
                # R4: x - z -> w -> y, z and y non-adjacent
                or any(z != y and z not in adj[y] and not ch[z].isdisjoint(pa[y]) for z in und[x]))

    changed = True
    while changed:
        changed = False
        for a, b in sorted((a, b) for a in names for b in und[a] if a < b):
            for x, y in ((a, b), (b, a)):
                if meek_applies(x, y):
                    orient(x, y)
                    changed = True
                    break

    edges = [Edge(p, n, LEARNT, True) for n in names for p in pa[n]]
    edges += [Edge(a, b, LEARNT, False) for a in names for b in und[a] if a < b]
    return PcResult(CausalGraph(nodes=_names(ds), edges=tuple(edges)), sepsets)


def learn_hc(ds, cfg: HcConfig = HcConfig()) -> HcResult:
    """Greedy hill-climb over add/remove/reverse moves from the empty graph.

    Each iteration applies the single strictly score-improving move with
    the largest gain (ties: add < remove < reverse, then (src, dst)).
    Returns the DAG and the per-iteration score trace. The search stops at
    ``max_iter``, or at the first iteration without an improving move: that
    iteration changes nothing, so each later one would find none either.
    The trace then ends in ``plateau_k`` copies of the final score, up to
    ``max_iter`` entries in all, as ``plateau_k`` stale iterations would
    give; ``plateau_k > 1`` changes no graph.

    The search keeps a delta cache (Chickering 2002; bnlearn's ``hc``):
    each node's family score, and its score with every other node toggled
    into or out of its parent set. A move changes one family (two for a
    reversal), and only those families are rescored, each node's own
    family focused in the counting kernel first (see :mod:`tally`), so that
    the families one parent away are counted from its table. Each node
    also keeps its improving add and remove moves sorted best first, so
    that an iteration reads the first legal move of each node and the
    reversals of the current edges (:func:`_best_move`). Gains are the same
    float expressions as a move-by-move rescoring, so graph and trace do
    not depend on the cache.
    """
    _require_learnable(ds)
    names = sorted(_names(ds))
    n = len(names)
    cap = cfg.max_parents if cfg.max_parents is not None else n
    column, tally = _column_of(ds), ds.tallies
    col = [column[v] for v in names]
    scorer = _scorer(cfg.score_method, cfg.ess, tally.n_records)
    memo: dict[tuple[int, tuple[int, ...]], float] = {}  # (child, sorted parents) -> family score

    def scored(d: int, ps: tuple[int, ...]) -> float:
        if (d, ps) not in memo:
            memo[d, ps] = scorer(tally.flat((*(col[p] for p in ps), col[d])), tally.cards[col[d]])
        return memo[d, ps]

    parents: list[set[int]] = [set() for _ in range(n)]
    own = [0.0] * n                                  # own[d]: score of d's family
    # toggled[d][s]: d's family score with s toggled, with no entry for s == d
    # and for adds past max_parents; moves[d]: d's _moves
    toggled: list[dict[int, float]] = [{} for _ in range(n)]
    moves: list[list[tuple[float, int, int]]] = [[] for _ in range(n)]

    def rescore(d: int) -> None:
        ps = tuple(sorted(parents[d]))
        flips = {s: tuple(p for p in ps if p != s) if s in parents[d] else tuple(sorted((*ps, s)))
                 for s in range(n) if s != d and (len(ps) < cap or s in parents[d])}
        if (d, ps) not in memo or any((d, f) not in memo for f in flips.values()):
            tally.focus((*(col[p] for p in ps), col[d]))
        own[d] = scored(d, ps)
        toggled[d] = {s: scored(d, f) for s, f in flips.items()}
        moves[d] = _moves(parents[d], own[d], toggled[d])

    for d in range(n):
        rescore(d)
    total = sum(own)
    trace: list[float] = []
    for _ in range(cfg.max_iter):
        best = _best_move(parents, own, toggled, moves)
        if best is None:
            # a stale iteration changes nothing: plateau_k of them only repeat the score
            trace += [total] * min(cfg.plateau_k, cfg.max_iter - len(trace))
            break
        delta, kind, s, d = best
        if kind == 0:
            parents[d].add(s)
        else:
            parents[d].remove(s)
        if kind == 2:
            parents[s].add(d)
            rescore(s)
        rescore(d)
        total += delta
        trace.append(total)

    arcs = sorted((s, d) for d in range(n) for s in parents[d])
    edges = tuple(Edge(names[s], names[d], LEARNT, True) for s, d in arcs)
    return HcResult(CausalGraph(nodes=_names(ds), edges=edges), tuple(trace))


def _moves(parents: set[int], own: float, toggled: dict[int, float]) -> list[tuple[float, int, int]]:
    """A node's improving moves of one parent, from its family's score
    ``own`` and its scores with each other node toggled: each add (kind 0)
    and remove (kind 1) of ``src`` of gain ``toggled[src] - own`` above 0,
    as ``(-gain, kind, src)``, best first."""
    return sorted((-(t - own), int(s in parents), s) for s, t in toggled.items() if t - own > 0)


def _best_move(parents: list[set[int]], own: list[float], toggled: list[dict[int, float]],
               moves: list[list[tuple[float, int, int]]]) -> tuple[float, int, int, int] | None:
    """The legal move of the largest strictly positive gain, as ``(gain,
    kind, src, dst)`` with kinds add 0, remove 1 and reverse 2, or None;
    equal gains go to the smallest ``(kind, src, dst)``. ``s -> d`` may be
    added iff ``s`` is not a descendant of ``d``, and reversed iff no child
    of ``s`` reaches ``d``; a reversal gains ``d``'s toggle of ``s`` and
    ``s``'s of ``d``, as ``((toggled[d][s] - own[d]) + toggled[s][d]) -
    own[s]``."""
    children: list[list[int]] = [[] for _ in parents]
    for d, ps in enumerate(parents):
        for s in ps:
            children[s].append(d)
    below = _descendants(children)
    best = None  # (-gain, kind, src, dst)
    for d, column in enumerate(moves):
        for neg, kind, s in column:
            if best is not None and (neg, kind, s, d) >= best:
                break
            if kind == 0 and below[d] >> s & 1:
                continue  # s is a descendant of d: adding s -> d would close a cycle
            best = neg, kind, s, d
            break
    for s, kids in enumerate(children):
        for d in kids:
            gain = ((toggled[d][s] - own[d]) + toggled[s].get(d, -inf)) - own[s]
            if gain > 0 and (best is None or (-gain, 2, s, d) < best) and not any(below[k] >> d & 1 for k in kids):
                best = -gain, 2, s, d
    return None if best is None else (-best[0], *best[1:])


def _descendants(children: list[list[int]]) -> list[int]:
    """Each node's strict descendants in a DAG given by its children, as
    the set bits of an int."""
    indegree = [0] * len(children)
    for kids in children:
        for c in kids:
            indegree[c] += 1
    order = [u for u, k in enumerate(indegree) if not k]
    for u in order:  # Kahn's algorithm: the list grows as it is read
        for c in children[u]:
            indegree[c] -= 1
            if not indegree[c]:
                order.append(c)
    below = [0] * len(children)
    for u in reversed(order):
        for c in children[u]:
            below[u] |= 1 << c | below[c]
    return below


def learn_cl(ds, cfg: ClConfig) -> CausalGraph:
    """Chow-Liu: maximum-weight spanning tree on pairwise mutual
    information, grown from the configured root by Prim's algorithm, so that
    each edge points away from the root. Links rank by the larger mutual
    information, then by the sorted node pair: under that strict order the
    tree is unique."""
    _require_learnable(ds)
    nodes = _names(ds)
    if cfg.root not in nodes:
        raise UnknownColumn(f"root {cfg.root!r} is not a dataset variable")
    names = sorted(nodes)
    column, tally = _column_of(ds), ds.tallies

    def mi(u: str, v: str) -> float:
        i, j = column[u], column[v]
        tally.focus((i,))  # so that v's last state is the rest of each of u's
        return _mutual_information(tally.flat((i, j)), tally.cards[i], tally.cards[j], tally.n_records)

    weights = {(u, v): mi(u, v) for u, v in itertools.combinations(names, 2)}
    link: dict[str, tuple[float, tuple[str, str], str]] = {}  # each DP off the tree -> its best link to it
    edges: list[Edge] = []
    u, rest = cfg.root, set(names) - {cfg.root}
    while rest:
        for v in rest:  # u has just joined the tree
            pair = (min(u, v), max(u, v))
            via = (-weights[pair], pair, u)
            link[v] = min(link[v], via) if v in link else via
        u = min(rest, key=link.__getitem__)
        rest.remove(u)
        edges.append(Edge(link[u][2], u, LEARNT, True))
    return CausalGraph(nodes=nodes, edges=tuple(edges))
