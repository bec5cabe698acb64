"""Exact probabilistic queries on a BayesNet.

:func:`posterior` runs bucket elimination (Dechter 1999) over log-space
factors with a min-degree elimination order. Each bucket is one
``np.einsum`` over max-shifted, exponentiated operands, so probabilities
far below the float range survive as logs between buckets. It raises
:class:`ZeroProbabilityEvidence` instead of returning NaNs when the
evidence has probability zero, so callers must handle unreachable states
explicitly. The brute-force enumeration oracle it is tested against lives
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import UnknownState, UnknownVariable, ZeroProbabilityEvidence
from .estimation import BayesNet


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


def _restricted_cpt(net: BayesNet, node: str, evidence: Mapping[str, int]):
    """The node's CPT as a log-space factor restricted by the evidence: its
    unobserved variables in sorted order, and one array axis per variable."""
    cpt = net.cpts[node]
    scope = cpt.parents + (node,)
    with np.errstate(divide="ignore"):
        logp = np.log(cpt.table).reshape(cpt.parent_cards + (cpt.cardinality,))
    logp = logp[tuple(evidence.get(v, slice(None)) for v in scope)]
    kept = [v for v in scope if v not in evidence]
    vars_ = tuple(sorted(kept))
    return vars_, np.transpose(logp, [kept.index(v) for v in vars_])


def _sum_product(factors: list, out: tuple[str, ...]) -> np.ndarray:
    """Log of the product of the factors, summed over every variable not in
    ``out``; one axis per name in ``out``, in that order.

    Factors over the same variables are added in log space first, so the
    einsum sees at most one operand per distinct scope. Each operand is
    shifted by its maximum before exponentiation and the shifts are added
    back after the log. Labels are numbered within this one call, which
    keeps them under numpy's limit of 52 whatever the size of the net.
    """
    by_scope: dict[tuple[str, ...], np.ndarray] = {}
    for vars_, logp in factors:
        by_scope[vars_] = by_scope[vars_] + logp if vars_ in by_scope else logp
    label = {v: k for k, v in enumerate(sorted({v for vars_ in by_scope for v in vars_}))}
    args: list = []
    shift = 0.0
    for vars_, logp in by_scope.items():
        m = float(logp.max())
        m = m if np.isfinite(m) else 0.0
        shift += m
        args += [np.exp(logp - m), [label[v] for v in vars_]]
    with np.errstate(divide="ignore"):
        return np.log(np.einsum(*args, [label[v] for v in out])) + shift


def posterior(net: BayesNet, q: Query) -> np.ndarray:
    """P(target | evidence) by bucket elimination.

    Only the target and evidence nodes and their ancestors enter; every
    other node sums out to 1. Evidence restricts each CPT, and families it
    observes completely fold into one log scalar. Hidden variables are
    eliminated in min-degree order on the factor interaction graph, ties
    broken lexicographically. For a single target the result is normalized
    over its states; for a tuple of targets it is the normalized joint with
    one axis per target in the given order.
    """
    targets = _validate_query(net, q)
    relevant = {*targets, *q.evidence}
    for v in tuple(relevant):
        relevant |= net.graph.ancestors(v)

    factors = []
    scalar = 0.0
    for node in sorted(relevant):
        vars_, logp = _restricted_cpt(net, node, q.evidence)
        if vars_:
            factors.append((vars_, logp))
        else:
            scalar += float(logp)

    hidden = {v for vars_, _ in factors for v in vars_} - set(targets)
    while hidden:
        # a variable's bucket scope is itself plus its current neighbours
        scope = {v: set().union(*(vars_ for vars_, _ in factors if v in vars_)) for v in hidden}
        var = min(hidden, key=lambda v: (len(scope[v] & hidden), v))
        bucket = [f for f in factors if var in f[0]]
        factors = [f for f in factors if var not in f[0]]
        out = tuple(sorted(scope[var] - {var}))
        factors.append((out, _sum_product(bucket, out)))
        hidden.discard(var)

    logp = _sum_product(factors, targets) + scalar
    with np.errstate(invalid="ignore"):
        z = float(np.logaddexp.reduce(logp, axis=None))
    if z == -np.inf or np.isnan(z):
        raise ZeroProbabilityEvidence(f"evidence {dict(q.evidence)!r} has probability 0")
    return np.exp(logp - z)
