"""Parameter estimation, independence testing, and network scores.

Everything here reduces to contingency counts ``N(c, r)`` of a child state
``c`` under a parent configuration ``r``. Parent configurations are indexed
row-major over the parent state indices in the CPT's parent order, so a CPT
table has shape ``(prod(parent_cards), child_card)``.

``counts`` has two kernels, chosen by the table's cell count alone. A table
of at most ``BITSET_CELLS`` (128) cells is tallied from per-state bitsets
that the dataset packs once, 64 records to a uint64 word (cached sufficient
statistics; Moore & Lee 1998, JAIR 8): each cell's records are the AND of
one bitset per DP in the family, and its count is their popcount. A larger
table is counted by ``bincount`` over each record's row-major cell index.
The bitsets cost about ``cells * N / 64`` word operations and ``bincount``
about ``N * |family|``. Measured at 2k, 20k and 100k records, the two are
within 20% of each other at 128 cells and ``bincount`` wins from 162 cells
up (at 20k records: 0.035 against 0.095 ms for 16 cells, 0.74 against
0.18 ms for 729).

Closed forms (natural logarithms throughout):

* MLE             ``P(c|r) = N(c,r) / N(r)``, uniform fallback on ``N(r)=0``
* Bayesian (BDeu-uniform prior, equivalent sample size ``ess``)
                  ``P(c|r) = (N(c,r) + ess/(q*r_i)) / (N(r) + ess/q)``
* BIC             ``sum_i [ LL_i - (log N / 2) * (r_i - 1) * q_i ]``
* K2              ``sum_i sum_r [ log (r_i-1)! - log (N(r)+r_i-1)! + sum_c log N(c,r)! ]``
* BDeu            Dirichlet-equivalent marginal likelihood with uniform
                  ess allocation over rows and cells

where ``q_i`` is the number of parent configurations of node ``i`` and
``r_i`` its cardinality. Higher scores are better. BIC and BDeu are
score-equivalent across Markov-equivalent DAGs; K2 is not.

The chi-square test's p-value is the regularized upper incomplete gamma
``P(X > stat) = Q(dof/2, stat/2)`` (Abramowitz & Stegun section 26.4), computed
as in Numerical Recipes (3rd ed., section 6.2): ``1 - P(a, x)`` by its power
series when ``x < a + 1``, otherwise ``Q(a, x)`` by its continued fraction
under the modified Lentz method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, lgamma, log, prod
from typing import Mapping

import numpy as np

from .errors import (
    DuplicateParent,
    InsufficientData,
    InvalidCpt,
    NonPositiveEss,
    UnknownColumn,
    UsageError,
)
from .graph import CausalGraph, topological_order
from .ingest import BITSET_CELLS, DiscreteDataset


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table P(child | parents).

    ``table[r, c]`` is the probability of child state ``c`` under parent
    configuration ``r`` (row-major over ``parent_cards``). Rows flagged in
    ``uniform_rows`` had zero observations and fell back to uniform.
    """

    child: str
    parents: tuple[str, ...]
    parent_cards: tuple[int, ...]
    states: tuple[str, ...]
    table: np.ndarray = field(repr=False)
    uniform_rows: frozenset[int] = frozenset()

    def __post_init__(self):
        q = int(np.prod(self.parent_cards)) if self.parents else 1
        if self.table.shape != (q, len(self.states)):
            raise InvalidCpt(f"{self.child}: CPT shape {self.table.shape} != ({q}, {len(self.states)})")
        if not np.all((self.table >= -1e-12) & (self.table <= 1 + 1e-12)):  # NaN fails too
            raise InvalidCpt(f"{self.child}: CPT entries outside [0, 1]")
        if np.any(np.abs(self.table.sum(axis=1) - 1.0) > 1e-9):
            raise InvalidCpt(f"{self.child}: CPT rows must sum to 1")

    @property
    def cardinality(self) -> int:
        return len(self.states)

    def row_index(self, parent_states: Mapping[str, int]) -> int:
        idx = tuple(parent_states[p] for p in self.parents)
        if not idx:
            return 0
        return int(np.ravel_multi_index(idx, self.parent_cards))


@dataclass(frozen=True)
class BayesNet:
    """A DAG plus one CPT per node; the joint factorizes over the families."""

    graph: CausalGraph
    cpts: Mapping[str, Cpt]

    def __post_init__(self):
        topological_order(self.graph)
        for n in self.graph.nodes:
            if n not in self.cpts:
                raise InvalidCpt(f"missing CPT for node {n}")
            if self.cpts[n].parents != tuple(sorted(self.graph.parents(n))):
                raise InvalidCpt(f"CPT parents for {n} do not match the graph")
        for n in self.graph.nodes:
            cpt = self.cpts[n]
            cards = tuple(self.cpts[p].cardinality for p in cpt.parents)
            if cpt.parent_cards != cards:
                raise InvalidCpt(f"CPT parent_cards for {n} are {list(cpt.parent_cards)}, "
                                 f"but its parents {list(cpt.parents)} have {list(cards)} states")

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.graph.nodes

    def states(self, node: str) -> tuple[str, ...]:
        if node not in self.cpts:
            raise UnknownColumn(f"no node named {node!r}")
        return self.cpts[node].states

    def cardinality(self, node: str) -> int:
        return len(self.states(node))


@dataclass(frozen=True)
class CiResult:
    statistic: float
    dof: int
    p_value: float
    independent: bool


def counts(ds: DiscreteDataset, child: str, parents: tuple[str, ...] | list[str] = ()) -> np.ndarray:
    """Contingency counts N(child_state, parent_config), shape (q, r_child).

    A table of at most ``BITSET_CELLS`` cells is tallied from the dataset's
    per-state bitsets, a larger one by ``bincount``; see the module docstring.
    """
    cols = tuple(ds.index(v) for v in (*parents, child))
    if len(set(cols)) != len(cols):
        raise DuplicateParent(f"{child}: parents must be distinct and exclude the child")
    cards = tuple(ds.specs[k].cardinality for k in cols)
    if prod(cards) <= BITSET_CELLS:
        # one row per cell in row-major order: AND in each DP's state bitsets,
        # parents first, child last, then count the records left in each row
        bits = ds._state_bits
        acc = bits[cols[0]]
        for k in cols[1:]:
            acc = (acc[:, None, :] & bits[k][None, :, :]).reshape(-1, acc.shape[1])
        return np.bitwise_count(acc).sum(axis=1, dtype=np.intp).reshape(-1, cards[-1])
    # row-major cell index ((p1 * c2 + p2) * c3 + ...) * r + child, by Horner's rule in place
    cell = ds.data[:, cols[0]].astype(np.intp)
    for k, card in zip(cols[1:], cards[1:]):
        cell *= card
        cell += ds.data[:, k]
    return np.bincount(cell, minlength=prod(cards)).reshape(-1, cards[-1])


def _fit(ds: DiscreteDataset, graph: CausalGraph, smooth) -> BayesNet:
    topological_order(graph)
    cpts = {}
    for node in graph.nodes:
        parents = tuple(sorted(graph.parents(node)))
        n = counts(ds, node, parents)
        table, uniform = smooth(n)
        cpts[node] = Cpt(
            child=node,
            parents=parents,
            parent_cards=tuple(ds.cardinality(p) for p in parents),
            states=ds.spec(node).states,
            table=table,
            uniform_rows=uniform,
        )
    return BayesNet(graph=graph, cpts=cpts)


def fit_mle(ds: DiscreteDataset, graph: CausalGraph) -> BayesNet:
    """Maximum-likelihood CPTs: exact count ratios, uniform on unseen rows."""

    def smooth(n: np.ndarray):
        row = n.sum(axis=1)
        empty = row == 0
        table = np.empty(n.shape, dtype=np.float64)
        table[~empty] = n[~empty] / row[~empty, None]
        table[empty] = 1.0 / n.shape[1]
        return table, frozenset(np.flatnonzero(empty).tolist())

    return _fit(ds, graph, smooth)


def fit_bayes(ds: DiscreteDataset, graph: CausalGraph, ess: float = 1.0) -> BayesNet:
    """Dirichlet-smoothed posterior-mean CPTs under a BDeu-uniform prior."""
    if ess <= 0:
        raise NonPositiveEss(f"ess must be > 0, got {ess}")

    def smooth(n: np.ndarray):
        q, r = n.shape
        alpha = ess / (q * r)
        table = (n + alpha) / (n.sum(axis=1) + alpha * r)[:, None]
        return table, frozenset(np.flatnonzero(n.sum(axis=1) == 0).tolist())

    return _fit(ds, graph, smooth)


def chi_square_ci(ds: DiscreteDataset, i: str, j: str, s: tuple[str, ...] | list[str] = (),
                  alpha: float = 0.01) -> CiResult:
    """Pearson chi-square test of i independent of j given the variables in s.

    The statistic sums over the strata (configurations of s); expected
    counts come from each stratum's margins. Strata with no observations
    are skipped and excluded from the degrees of freedom, which are
    ``(|i|-1) * (|j|-1)`` per non-empty stratum.
    """
    s = tuple(s)
    if i == j or i in s or j in s:
        raise DuplicateParent("i, j, and the conditioning set must be disjoint")
    ci, cj = ds.cardinality(i), ds.cardinality(j)
    # counts' cell index ((s..) * ci + i) * cj + j gives one (ci, cj) table per stratum
    joint = counts(ds, j, s + (i,)).reshape(-1, ci, cj).astype(np.float64)
    for v, margin in ((i, joint.sum(axis=(0, 2))), (j, joint.sum(axis=(0, 1)))):
        if np.count_nonzero(margin) == 1:
            raise InsufficientData(f"{v} is constant in the data")
    obs = joint[joint.sum(axis=(1, 2)) > 0]
    if not len(obs):
        raise InsufficientData("all strata are empty")

    # all non-empty strata in one expression; a cell with zero expectation adds 0
    expected = obs.sum(axis=2)[:, :, None] * obs.sum(axis=1)[:, None, :] / obs.sum(axis=(1, 2))[:, None, None]
    terms = np.divide(np.square(obs - expected), expected, out=np.zeros_like(expected), where=expected > 0)
    # a running sum over the strata in order, like a stratum-by-stratum loop
    stat = float(np.add.accumulate(terms.reshape(len(obs), -1).sum(axis=1))[-1])
    dof = (ci - 1) * (cj - 1) * len(obs)

    p = _chi2_sf(stat, dof)
    return CiResult(statistic=stat, dof=dof, p_value=p, independent=p > alpha)


_EPS = 4e-15     # relative size of the last series term or continued-fraction step
_TINY = 1e-300   # Lentz's stand-in for a zero denominator


def _chi2_sf(stat: float, dof: int) -> float:
    """Chi-square survival function ``Q(dof/2, stat/2)``; see the module docstring.

    Both loops test convergence with ``>=``, so a NaN ends them (and returns NaN).
    """
    if stat <= 0:
        return 1.0
    a, x = dof / 2.0, stat / 2.0
    front = exp(a * log(x) - x - lgamma(a))  # x^a e^-x / Gamma(a)
    if x < a + 1.0:
        # P(a, x) = front * sum_n x^n / (a (a+1) ... (a+n))
        term = total = 1.0 / a
        n = a
        while term >= total * _EPS:
            n += 1.0
            term *= x / n
            total += term
        return 1.0 - front * total
    # Q(a, x) = front / (x+1-a - 1(1-a) / (x+3-a - 2(2-a) / (x+5-a - ...)))
    b = x + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    h, delta, n = d, 0.0, 0
    while abs(delta - 1.0) >= _EPS:
        n += 1
        an = n * (a - n)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) >= _TINY else _TINY
        delta = c * d
        h *= delta
    return front * h


def mutual_information(ds: DiscreteDataset, i: str, j: str) -> float:
    """Plug-in mutual information of two columns, natural log, in nats."""
    if i == j:
        raise DuplicateParent("mutual information needs two distinct variables")
    joint = counts(ds, i, (j,)).T.astype(np.float64) / ds.n_records  # (card_i, card_j)
    pi = joint.sum(axis=1)
    pj = joint.sum(axis=0)
    mask = joint > 0
    ratio = joint[mask] / np.outer(pi, pj)[mask]
    return float((joint[mask] * np.log(ratio)).sum())


def family_score(ds: DiscreteDataset, child: str, parents: tuple[str, ...],
                 method: str = "bic", ess: float = 1.0) -> float:
    """Decomposable per-family contribution of one node to a network score."""
    if method not in ("bic", "k2", "bdeu"):
        raise UsageError(f"unknown score method {method!r}")
    n = counts(ds, child, parents)
    q, r = n.shape
    row = n.sum(axis=1)
    if method == "bic":
        mask = n > 0
        row_totals = np.broadcast_to(row[:, None], n.shape)
        ll = float((n[mask] * np.log(n[mask] / row_totals[mask])).sum())
        return ll - (log(ds.n_records) / 2.0) * (r - 1) * q
    if method == "k2":
        out = 0.0
        for k in range(q):
            out += lgamma(r) - lgamma(row[k] + r)
            out += sum(lgamma(v + 1) for v in n[k])
        return out
    if ess <= 0:  # bdeu
        raise NonPositiveEss(f"ess must be > 0, got {ess}")
    a_row = ess / q
    a_cell = ess / (q * r)
    out = 0.0
    for k in range(q):
        out += lgamma(a_row) - lgamma(a_row + row[k])
        out += sum(lgamma(a_cell + v) - lgamma(a_cell) for v in n[k])
    return out


def score(ds: DiscreteDataset, graph: CausalGraph, method: str = "bic", ess: float = 1.0) -> float:
    """Network score: sum of family scores over all nodes. Higher is better."""
    topological_order(graph)
    return sum(
        family_score(ds, node, tuple(sorted(graph.parents(node))), method=method, ess=ess)
        for node in graph.nodes
    )


# --- BayesNet JSON ------------------------------------------------------------

def net_to_json(net: BayesNet) -> dict:
    from .graph import graph_to_json

    return {
        "graph": graph_to_json(net.graph),
        "cpts": [
            {
                "child": c.child,
                "parents": list(c.parents),
                "parent_cards": list(c.parent_cards),
                "states": list(c.states),
                "table": c.table.tolist(),
                "uniform_rows": sorted(c.uniform_rows),
            }
            for c in (net.cpts[n] for n in sorted(net.graph.nodes))
        ],
    }


def net_from_json(obj: dict) -> BayesNet:
    from .graph import graph_from_json
    from .errors import ParseError

    try:
        graph = graph_from_json(obj["graph"])
        cpts = {
            c["child"]: Cpt(
                child=c["child"],
                parents=tuple(c["parents"]),
                parent_cards=tuple(c["parent_cards"]),
                states=tuple(c["states"]),
                table=np.asarray(c["table"], dtype=np.float64),
                uniform_rows=frozenset(c.get("uniform_rows", ())),
            )
            for c in obj["cpts"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed net JSON: {exc}") from None
    return BayesNet(graph=graph, cpts=cpts)
