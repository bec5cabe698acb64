"""Structure learning: PC (constraint-based), hill-climb (score-based),
and Chow-Liu (tree-based).

All three learners are deterministic given (dataset, config): pairs are
visited in lexicographic name order, candidate moves are tie-broken
lexicographically, and spanning-tree ties fall back to the sorted node
pair. Learnt edges carry the ``learnt`` kind; PC output may be partially
directed (undirected edges flagged), in which case
:func:`graph.extend_to_dag` produces a consistent fully directed
extension.

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
from typing import NamedTuple

import numpy as np

from .errors import InsufficientData, UnknownColumn, UsageError
from .estimation import _chi2_sf, _chi_square_stats, _family_scores, mutual_information
# no longer called here; bench/tracing.py wraps them under these names
from .estimation import chi_square_ci, family_score  # noqa: F401
from .graph import LEARNT, CausalGraph, Edge
# in graph, so that fit extends a PDAG without numpy; still named here
from .graph import extend_to_dag  # noqa: F401
from .ingest import DiscreteDataset


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

    A DP constant in the data needs no special case: each of its expected
    counts is exact, so its level-0 statistic is 0, p = 1, and every one of
    its edges goes at level 0 with the separating set ``()``.

    Each test of an unordered pair runs once, computed as
    ``chi_square_ci(ds, min(i, j), max(i, j), s)`` computes it, and is
    memoized: level 0 in one batch, and at later levels each pair's untested
    sets in one batch when the walk reaches the pair. A p-value is computed
    from the memoized statistic each time the walk reads a test, and only
    then.
    """
    _require_learnable(ds)
    names = sorted(ds.names)
    adj: dict[str, set[str]] = {n: set(names) - {n} for n in names}
    sepsets: dict[tuple[str, str], tuple[str, ...]] = {}
    max_cond = cfg.max_cond_size if cfg.max_cond_size is not None else len(names) - 2

    # statistics under the key (min(i, j), max(i, j), s)
    col = {v: ds.index(v) for v in names}
    stats: dict[tuple[str, str, tuple[str, ...]], tuple[float, int]] = {}

    def run(keys: list[tuple[str, str, tuple[str, ...]]]) -> None:
        keys = [key for key in keys if key not in stats]
        if keys:
            stat, dof = _chi_square_stats(ds, [(*(col[v] for v in s), col[a], col[b]) for a, b, s in keys])
            stats.update(zip(keys, zip(stat.tolist(), dof.tolist())))

    run([(i, j, ()) for i, j in itertools.combinations(names, 2)])  # all of level 0 at once
    for level in range(max_cond + 1):
        if all(len(adj[i]) <= level for i in names):  # no pair has a set of this size left
            break
        for i in names:
            for j in sorted(adj[i]):
                a, b = min(i, j), max(i, j)
                keys = [(a, b, s) for s in itertools.combinations(sorted(adj[i] - {j}), level)]
                run(keys)  # the pair's untested sets in one batch, then read in order
                for key in keys:
                    if _chi2_sf(*stats[key]) > cfg.alpha:
                        adj[i].discard(j)
                        adj[j].discard(i)
                        sepsets[(i, j)] = sepsets[(j, i)] = key[2]
                        break
    return _pc_orient(ds, names, adj, sepsets)


def _pc_orient(ds: DiscreteDataset, names: list[str], adj: dict[str, set[str]],
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
    return PcResult(CausalGraph(nodes=ds.names, edges=tuple(edges)), sepsets)


def learn_hc(ds: DiscreteDataset, cfg: HcConfig = HcConfig()) -> HcResult:
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
    reversal), and only those families are rescored. Legality comes from the
    descendant sets, built once per iteration: ``s -> d`` may be added iff
    ``s`` is not a descendant of ``d``, and reversed iff no other child of
    ``s`` reaches ``d``. Gains are the same float expressions as a move-by-
    move rescoring, so graph and trace do not depend on the cache. The
    empty graph's n x n families are scored in one batch, and so are the
    families each move changes.
    """
    _require_learnable(ds)
    names = sorted(ds.names)
    n = len(names)
    cap = cfg.max_parents if cfg.max_parents is not None else n
    col = [ds.index(v) for v in names]
    memo: dict[tuple[int, tuple[int, ...]], float] = {}  # (child, sorted parents) -> family score

    adj = np.zeros((n, n), dtype=bool)  # adj[s, d]: s is a parent of d
    own = np.empty(n)                   # own[d]: score of d's family
    toggled = np.full((n, n), -np.inf)  # toggled[s, d]: d's family score with s toggled,
                                        # -inf for s == d and for adds past max_parents

    def rescore(*children: int) -> None:
        """Refill own and toggled for the children, scoring every family
        not yet in the memo in one batch."""
        plan = []
        for d in children:
            ps = tuple(np.flatnonzero(adj[:, d]).tolist())
            room = len(ps) < cap
            flips = {s: tuple(p for p in ps if p != s) if s in ps else tuple(sorted(ps + (s,)))
                     for s in range(n) if s != d and (room or s in ps)}
            plan.append((d, ps, flips))
        todo = list(dict.fromkeys(key for d, ps, flips in plan
                                  for key in ((d, ps), *((d, f) for f in flips.values()))
                                  if key not in memo))
        scores = _family_scores(ds, [(*(col[p] for p in ps), col[d]) for d, ps in todo], cfg.score_method, cfg.ess)
        memo.update(zip(todo, scores))
        for d, ps, flips in plan:
            own[d] = memo[(d, ps)]
            toggled[:, d] = -np.inf
            for s, f in flips.items():
                toggled[s, d] = memo[(d, f)]

    rescore(*range(n))  # the empty graph's n x n families in one batch
    total = sum(own.tolist())
    trace: list[float] = []
    for _ in range(cfg.max_iter):
        reach = _descendants(adj)
        gain = toggled - own  # gain[s, d] of adding or removing s -> d
        best = _best_move(np.stack((
            np.where(~adj & ~reach.T, gain, -np.inf),                                          # add
            np.where(adj, gain, -np.inf),                                                      # remove
            np.where(adj & ~_links(adj, reach), gain + toggled.T - own[:, None], -np.inf),  # reverse
        )))
        if best is None:
            # a stale iteration changes nothing: plateau_k of them only repeat the score
            trace += [total] * min(cfg.plateau_k, cfg.max_iter - len(trace))
            break
        delta, kind, s, d = best
        adj[s, d] = kind == 0
        if kind == 2:
            adj[d, s] = True
            rescore(s, d)
        else:
            rescore(d)
        total += delta
        trace.append(total)

    edges = tuple(Edge(names[s], names[d], LEARNT, True) for s, d in zip(*np.nonzero(adj)))
    return HcResult(CausalGraph(nodes=ds.names, edges=edges), tuple(trace))


def _best_move(gains: np.ndarray) -> tuple[float, int, int, int] | None:
    """The largest strictly positive ``gains[kind, src, dst]`` with its
    position, or None. Equal gains go to the smallest (kind, src, dst):
    the first maximum in C order."""
    k = int(np.argmax(gains))
    if not gains.flat[k] > 0:
        return None
    return (float(gains.flat[k]), *(int(i) for i in np.unravel_index(k, gains.shape)))


def _descendants(adj: np.ndarray) -> np.ndarray:
    """Transitive closure of a DAG's adjacency matrix: ``out[u, v]`` iff
    ``v`` is a strict descendant of ``u``."""
    reach = adj
    while True:
        wider = reach | _links(reach, reach)
        if (wider == reach).all():
            return reach
        reach = wider


def _links(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean matrix product ``a @ b``, through float32: numpy's bool
    matmul has no BLAS kernel, and path counts up to 2**24 are exact."""
    return a.astype(np.float32) @ b.astype(np.float32) > 0


def learn_cl(ds: DiscreteDataset, cfg: ClConfig) -> CausalGraph:
    """Chow-Liu: maximum-weight spanning tree on pairwise mutual
    information, grown from the configured root by Prim's algorithm, so that
    each edge points away from the root. Links rank by the larger mutual
    information, then by the sorted node pair: under that strict order the
    tree is unique."""
    _require_learnable(ds)
    if cfg.root not in ds.names:
        raise UnknownColumn(f"root {cfg.root!r} is not a dataset variable")
    names = sorted(ds.names)

    weights = {(u, v): mutual_information(ds, u, v)
               for u, v in itertools.combinations(names, 2)}
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
    return CausalGraph(nodes=ds.names, edges=tuple(edges))
