"""Fitted Bayesian networks: fitting, their JSON form, and exact queries.

A :class:`BayesNet` is a DAG plus one :class:`Cpt` per node, and a CPT's
table is a tuple of rows of Python floats. :func:`fit_mle` and
:func:`fit_bayes` fit the CPTs from a dataset's contingency counts
``N(c, r)`` of a child state ``c`` under a parent configuration ``r``,
row-major over the parents in name order, where the child has ``r_i``
states and its parents ``q`` configurations:

* MLE             ``P(c|r) = N(c,r) / N(r)``, uniform fallback on ``N(r)=0``
* Bayesian (BDeu-uniform prior, equivalent sample size ``ess``)
                  ``P(c|r) = (N(c,r) + ess/(q*r_i)) / (N(r) + ess/q)``

Each probability is the float that numpy computes from the same counts in
an integer array, in the same order of operations. The counts come from
the dataset's :attr:`datafile.DiscreteDataset.tallies`, the counting
kernel that the scores, tests and learners share.

:func:`posterior` runs bucket elimination (Dechter 1999) over log-space
factors with a min-degree elimination order, in plain Python: each bucket
adds its factors' logs cell by cell and sums out the bucket's variable by
a max-shifted log-sum-exp, so probabilities far below the float range
survive as logs, within a bucket and between buckets. It raises
:class:`ZeroProbabilityEvidence` instead of returning NaNs when the
evidence has probability zero, so callers must handle unreachable states
explicitly. The brute-force enumeration oracle it is tested against lives
in the test suite.

This module imports only the standard library, ``graph``, ``jsontext``
and the package's errors, so that ``fit``, ``infer`` and ``impact`` start
without numpy. ``simgen`` samples these CPTs with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, inf, log, prod
from numbers import Real
from typing import Iterable, Mapping

from .errors import (
    InvalidCpt,
    NonPositiveEss,
    ParseError,
    UnknownColumn,
    UnknownState,
    UnknownVariable,
    ZeroProbabilityEvidence,
)
from .graph import CausalGraph, _is_list_of, graph_from_json, graph_to_json, topological_order
from .jsontext import refuse_lone_surrogate


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table P(child | parents).

    ``table[r][c]`` is the probability of child state ``c`` under parent
    configuration ``r`` (row-major over ``parent_cards``). Any 2-D sequence
    of numbers, a numpy array included, is stored as a tuple of row tuples
    of floats. Rows flagged in ``uniform_rows`` had zero observations and
    fell back to uniform.
    """

    child: str
    parents: tuple[str, ...]
    parent_cards: tuple[int, ...]
    states: tuple[str, ...]
    table: tuple[tuple[float, ...], ...] = field(repr=False)
    uniform_rows: frozenset[int] = frozenset()

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise InvalidCpt(f"{self.child}: state labels must be unique, got {list(self.states)!r}")
        try:
            rows = [list(row) for row in self.table]
        except TypeError:
            raise InvalidCpt(f"{self.child}: a CPT table must be a sequence of rows") from None
        if not all(isinstance(p, Real) for row in rows for p in row):
            raise InvalidCpt(f"{self.child}: CPT entries must be numbers")
        table = tuple(tuple(map(float, row)) for row in rows)
        q = prod(self.parent_cards) if self.parents else 1
        widths = {len(row) for row in table}
        if len(widths) > 1:
            raise InvalidCpt(f"{self.child}: CPT rows have {min(widths)} to {max(widths)} entries")
        if len(table) != q or widths - {len(self.states)}:
            raise InvalidCpt(f"{self.child}: CPT shape {(len(table), *widths)} != ({q}, {len(self.states)})")
        if not all(-1e-12 <= p <= 1 + 1e-12 for row in table for p in row):  # NaN fails too
            raise InvalidCpt(f"{self.child}: CPT entries outside [0, 1]")
        if any(abs(sum(row) - 1.0) > 1e-9 for row in table):
            raise InvalidCpt(f"{self.child}: CPT rows must sum to 1")
        object.__setattr__(self, "table", table)

    @property
    def cardinality(self) -> int:
        return len(self.states)


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
        extra = sorted(set(self.cpts) - set(self.graph.nodes))
        if extra:
            raise InvalidCpt(f"CPT for a node not in the graph: {', '.join(extra)}")
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


# --- fitting ------------------------------------------------------------------

def _fit(ds, graph: CausalGraph, smooth) -> BayesNet:
    topological_order(graph)
    tally = ds.tallies
    cpts = {}
    for node in graph.nodes:
        parents = tuple(sorted(graph.parents(node)))
        family = [ds.index(name) for name in (*parents, node)]
        table, uniform = smooth(tally(family))
        cpts[node] = Cpt(
            child=node,
            parents=parents,
            parent_cards=tuple(tally.cards[k] for k in family[:-1]),
            states=ds.specs[family[-1]].states,
            table=table,
            uniform_rows=frozenset(uniform),
        )
    return BayesNet(graph=graph, cpts=cpts)


def fit_mle(ds, graph: CausalGraph) -> BayesNet:
    """Maximum-likelihood CPTs: exact count ratios, uniform on unseen rows.
    ``ds`` is a :class:`datafile.DiscreteDataset`."""

    def smooth(n: list[list[int]]):
        table, uniform = [], []
        for k, row in enumerate(n):
            total = sum(row)
            if total:
                table.append([c / total for c in row])
            else:
                table.append([1.0 / len(row)] * len(row))
                uniform.append(k)
        return table, uniform

    return _fit(ds, graph, smooth)


def fit_bayes(ds, graph: CausalGraph, ess: float = 1.0) -> BayesNet:
    """Dirichlet-smoothed posterior-mean CPTs under a BDeu-uniform prior;
    ``ds`` as :func:`fit_mle` takes it."""
    if not 0 < ess < inf:
        raise NonPositiveEss(f"ess must be a finite number > 0, got {ess}")

    def smooth(n: list[list[int]]):
        q, r = len(n), len(n[0])
        alpha = ess / (q * r)
        table = []
        for row in n:
            total = sum(row) + alpha * r
            table.append([(c + alpha) / total for c in row])
        return table, [k for k, row in enumerate(n) if not any(row)]

    return _fit(ds, graph, smooth)


# --- queries ------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    """``target`` names one DP, or a tuple of distinct DPs for a joint."""

    target: str | tuple[str, ...]
    evidence: Mapping[str, int] = field(default_factory=dict)


def _validate_query(net: BayesNet, q: Query) -> tuple[str, ...]:
    targets = (q.target,) if isinstance(q.target, str) else tuple(q.target)
    if not targets or len(set(targets)) != len(targets):
        raise UnknownVariable(f"targets {targets!r} must be distinct and non-empty")
    for t in targets:
        if t not in net.graph.node_set:
            raise UnknownVariable(f"no node named {t!r}")
        if t in q.evidence:
            raise UnknownVariable(f"target {t!r} cannot also be evidence")
    for name, state in q.evidence.items():
        if name not in net.graph.node_set:
            raise UnknownVariable(f"no node named {name!r}")
        if not 0 <= state < net.cardinality(name):
            raise UnknownState(f"{name} has no state index {state}")
    return targets


def _log(p: float) -> float:
    return log(p) if p > 0 else -inf


def sum_left_to_right(terms: Iterable[float]) -> float:
    """The floats ``terms`` added from the left, as ``sum`` adds them up to
    Python 3.11 (from 3.12, ``sum`` compensates its roundings), so that
    every interpreter writes the same outputs."""
    total = 0.0
    for term in terms:
        total += term
    return total


def logsumexp(logs) -> float:
    """``log(sum(exp(l) for l in logs))``, shifted by the maximum so that no
    term underflows, and added left to right; ``-inf`` when every term is."""
    m = max(logs)
    return m if m == -inf else m + log(sum_left_to_right(exp(x - m) for x in logs))


def _cells(strides: Mapping[str, int], order: tuple[str, ...], card: Mapping[str, int], base: int = 0) -> list[int]:
    """For each assignment of the variables ``order``, row-major, the index
    ``base + sum(state * stride)`` of its cell in a flat table with the
    given ``strides``; a variable the table lacks has stride 0."""
    at = [base]
    for v in order:
        stride = strides.get(v, 0)
        at = [a + s * stride for a in at for s in range(card[v])]
    return at


def _row_major_strides(vars_: tuple[str, ...], card: Mapping[str, int]) -> dict[str, int]:
    strides, step = {}, 1
    for v in reversed(vars_):
        strides[v] = step
        step *= card[v]
    return strides


def _restricted_cpt(cpt: Cpt, evidence: Mapping[str, int], card: Mapping[str, int]):
    """The CPT as a log-space factor restricted by the evidence: its
    unobserved variables in sorted order, and its logs, flat and row-major
    over them."""
    scope = cpt.parents + (cpt.child,)
    strides = _row_major_strides(scope, card)
    vars_ = tuple(sorted(v for v in scope if v not in evidence))
    base = sum(evidence[v] * strides[v] for v in scope if v in evidence)
    flat = [p for row in cpt.table for p in row]
    return vars_, [_log(flat[a]) for a in _cells(strides, vars_, card, base)]


def _sum_product(factors: list, out: tuple[str, ...], card: Mapping[str, int]) -> list[float]:
    """Log of the product of the factors, summed over every variable not in
    ``out``; flat and row-major over ``out``, in that order.

    A product is the sum of its factors' logs, and each sum is shifted by
    the maximum of its terms before exponentiation, so neither underflows.
    """
    summed = tuple(sorted({v for vars_, _ in factors for v in vars_} - set(out)))
    order = out + summed
    terms = [0.0] * prod(card[v] for v in order)
    for vars_, logs in factors:
        terms = [t + logs[a] for t, a in zip(terms, _cells(_row_major_strides(vars_, card), order, card))]
    block = prod(card[v] for v in summed)
    return [logsumexp(terms[k:k + block]) for k in range(0, len(terms), block)]


def posterior(net: BayesNet, q: Query) -> tuple:
    """P(target | evidence) by bucket elimination.

    Only the target and evidence nodes and their ancestors enter; every
    other node sums out to 1. Evidence restricts each CPT, and families it
    observes completely fold into one log scalar. Hidden variables are
    eliminated in min-degree order on the factor interaction graph, ties
    broken lexicographically. For a single target the result is a tuple of
    floats, normalized over its states; for a tuple of targets it is the
    normalized joint as nested tuples, one level per target in the given
    order.
    """
    targets = _validate_query(net, q)
    relevant = {*targets, *q.evidence}
    for v in tuple(relevant):
        relevant |= net.graph.ancestors(v)
    card = {v: net.cpts[v].cardinality for v in relevant}

    factors = []
    scalar = 0.0
    for node in sorted(relevant):
        vars_, logs = _restricted_cpt(net.cpts[node], q.evidence, card)
        if vars_:
            factors.append((vars_, logs))
        else:
            scalar += logs[0]

    hidden = {v for vars_, _ in factors for v in vars_} - set(targets)
    while hidden:
        # a variable's bucket scope is itself plus its current neighbours
        scope = {v: set().union(*(vars_ for vars_, _ in factors if v in vars_)) for v in hidden}
        var = min(hidden, key=lambda v: (len(scope[v] & hidden), v))
        bucket = [f for f in factors if var in f[0]]
        factors = [f for f in factors if var not in f[0]]
        out = tuple(sorted(scope[var] - {var}))
        factors.append((out, _sum_product(bucket, out, card)))
        hidden.discard(var)

    logs = [x + scalar for x in _sum_product(factors, targets, card)]
    z = logsumexp(logs)
    if z == -inf:
        raise ZeroProbabilityEvidence(f"evidence {dict(q.evidence)!r} has probability 0")
    flat = [exp(x - z) for x in logs]
    for target in reversed(targets[1:]):
        flat = [tuple(flat[k:k + card[target]]) for k in range(0, len(flat), card[target])]
    return tuple(flat)


# --- BayesNet JSON ------------------------------------------------------------

def net_to_json(net: BayesNet) -> dict:
    return {
        "graph": graph_to_json(net.graph),
        "cpts": [
            {
                "child": c.child,
                "parents": list(c.parents),
                "parent_cards": list(c.parent_cards),
                "states": list(c.states),
                "table": [list(row) for row in c.table],  # json_text lays a tuple out on one line
                "uniform_rows": sorted(c.uniform_rows),
            }
            for c in (net.cpts[n] for n in sorted(net.graph.nodes))
        ],
    }


def net_from_json(obj: dict) -> BayesNet:
    """Validate a parsed net JSON object: ``graph`` as
    :func:`graph.graph_from_json` reads it, and ``cpts`` a list with one
    record per child, whose ``child`` is a name, ``parents`` and ``states``
    lists of names, no state holding a lone surrogate, ``parent_cards`` a
    list of integers, ``table`` a list of rows of numbers, all of one
    length, and ``uniform_rows``, empty when absent, a list of indices of
    those rows. Any other form raises :class:`ParseError`; a record of that
    form that breaks a CPT's own contract raises :class:`InvalidCpt`."""
    try:
        graph = graph_from_json(obj["graph"])
        records = obj["cpts"]
        if not isinstance(records, list):
            raise ParseError("malformed net JSON: cpts must be a list")
        cpts: dict[str, Cpt] = {}
        for c in records:
            child, table, uniform_rows = c["child"], c["table"], c.get("uniform_rows", [])
            if not isinstance(child, str):
                raise ParseError(f"malformed net JSON: a CPT's child must be a name, got {child!r}")
            if child in cpts:
                raise ParseError(f"malformed net JSON: two CPT records for {child!r}")
            for key in ("parents", "states"):
                if not _is_list_of(c[key], str):
                    raise ParseError(f"malformed net JSON: {child}: {key} must be a list of names, got {c[key]!r}")
            refuse_lone_surrogate(f"malformed net JSON: {child}: state", *c["states"])
            if not _is_list_of(c["parent_cards"], int):
                raise ParseError(f"malformed net JSON: {child}: parent_cards must be a list of integers")
            if not (isinstance(table, list) and all(_is_list_of(row, int, float) for row in table)
                    and len({len(row) for row in table}) <= 1):
                raise ParseError(f"malformed net JSON: {child}: table must be a list of rows of numbers, "
                                 f"all of one length")
            if not (_is_list_of(uniform_rows, int) and all(0 <= r < len(table) for r in uniform_rows)):
                raise ParseError(f"malformed net JSON: {child}: uniform_rows must be a list of indices "
                                 f"of the table's {len(table)} rows, got {uniform_rows!r}")
            cpts[child] = Cpt(
                child=child,
                parents=tuple(c["parents"]),
                parent_cards=tuple(c["parent_cards"]),
                states=tuple(c["states"]),
                table=table,
                uniform_rows=frozenset(uniform_rows),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed net JSON: {exc}") from None
    except OverflowError:
        raise ParseError("malformed net JSON: a table cell is too large for a float") from None
    return BayesNet(graph=graph, cpts=cpts)
