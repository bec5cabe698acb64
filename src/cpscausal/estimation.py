"""Contingency counts, independence testing, and network scores.

Everything here reduces to contingency counts ``N(c, r)`` of a child state
``c`` under a parent configuration ``r``. Parent configurations are indexed
row-major over the parent state indices in the CPT's parent order, so a CPT
table has shape ``(prod(parent_cards), child_card)``. The CPT estimators
:func:`fit_mle` and :func:`fit_bayes` count in pure Python in
:mod:`inference`, which ``fit`` runs without numpy; they are named here too.

Counting has two kernels, chosen by the table's cell count alone. A table
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

``_tally`` counts a batch of families whose DPs have the same
cardinalities at once; with bitsets, by stacked ANDs, one popcount and one
sum, and a DP that every family in the batch shares is ANDed in once. Its
scratch stays within ``_BLOCK_BYTES`` (256 KiB) at any record count: the
families are tiled, and when one family's cells over all the 64-record
words outgrow the budget, so are the words, each tile's popcounts added
into the family's counts. ``family_scores`` and ``_chi_square_stats`` (which
PC calls) group their families by cardinalities and call it per group;
``counts``, ``family_score`` and ``chi_square_ci`` are the one-family case
of the same code, so each formula exists once and a batched score or
statistic is the same float as the one-family one. Two sums need care
for that. numpy sums a row pairwise, in an order set by its length, so a
batch's BIC sums each table's non-zero terms in row-major order and sums
the tables with the same number of terms together, a row each. The
chi-square statistic adds the strata one after the other, so an empty
stratum's zero leaves the running sum as it was. PC runs each test of an
unordered pair once, with the pair in name order, and memoizes its
decision (see ``learning.learn_pc``).

Closed forms (natural logarithms throughout):

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

from dataclasses import dataclass
from math import exp, inf, lgamma, log, prod

import numpy as np

from .errors import DuplicateParent, InsufficientData, NonPositiveEss, UsageError
from .graph import CausalGraph, topological_order
# the net model and its fitting live in inference, which fit runs without numpy; still named here
from .inference import BayesNet, Cpt, fit_bayes, fit_mle  # noqa: F401
from .ingest import BITSET_CELLS, DiscreteDataset


@dataclass(frozen=True)
class CiResult:
    statistic: float
    dof: int
    p_value: float
    independent: bool


# the bitset block that one step of _tally ANDs together, families x cells x
# 64-record words, stays under this many bytes (256 KiB), unless one word
# of one family's cells exceeds it; past one family, the words are tiled too
_BLOCK_BYTES = 1 << 18


def _family(ds: DiscreteDataset, child: str, parents: tuple[str, ...] | list[str]) -> tuple[int, ...]:
    """Column indices of a family, parents first and child last."""
    cols = tuple(ds.index(v) for v in (*parents, child))
    if len(set(cols)) != len(cols):
        raise DuplicateParent(f"{child}: parents must be distinct and exclude the child")
    return cols


def _by_cards(ds: DiscreteDataset, families: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], list[int], np.ndarray]]:
    """The families grouped by the cardinalities of their columns, in
    first-seen order: per group, the cardinalities, the families' positions
    in ``families`` and their columns as one array, a family per row."""
    card = ds.cards
    groups: dict[tuple[int, ...], list[int]] = {}
    for k, cols in enumerate(families):
        groups.setdefault(tuple([card[c] for c in cols]), []).append(k)
    return [(cards, which, np.array([families[k] for k in which])) for cards, which in groups.items()]


def _tally(ds: DiscreteDataset, cols: np.ndarray, cards: tuple[int, ...]) -> np.ndarray:
    """Contingency counts of a batch of families with the same cardinalities.

    ``cols`` holds one family per row, as column indices in row-major order
    (parents first, child last), and ``cards`` their cardinalities. Returns
    an ``(m, prod(cards))`` intp array: each family's cells in row-major
    order. See the module docstring for the two kernels.
    """
    cells = prod(cards)
    out = np.zeros((len(cols), cells), dtype=np.intp)
    if cells > BITSET_CELLS:
        for row, family in zip(out, cols.tolist()):
            # row-major cell index ((p1 * c2 + p2) * c3 + ...) * r + child, by Horner's rule in place
            cell = ds.data[:, family[0]].astype(np.intp)
            for k, card in zip(family[1:], cards[1:]):
                cell *= card
                cell += ds.data[:, k]
            row[:] = np.bincount(cell, minlength=cells)
        return out
    bits, first = ds._state_bits
    words = bits.shape[1]
    # each column's state-bitset rows: one range when all the families share
    # the column, which is then ANDed in once and broadcast, else a range per family
    rows = [slice(first[c[0]], first[c[0]] + card) if len(c) == 1 or (c == c[0]).all()
            else first[c][:, None] + np.arange(card) for c, card in zip(cols.T, cards)]
    # tiles of families x cells x words within the budget: all the words and
    # as many families as fit, or, when one family's words outgrow it, one
    # family and as many words as fit
    span = min(words, max(1, _BLOCK_BYTES // (8 * cells)))
    step = max(1, _BLOCK_BYTES // (8 * cells * span))
    for at in range(0, words, span):
        tile = bits[:, at:at + span]
        for lo in range(0, len(cols), step):
            block = [tile[r][None] if isinstance(r, slice) else tile[r[lo:lo + step]] for r in rows]
            # one row per cell in row-major order: the child's state bitsets,
            # then each parent's ANDed in from the last to the first, as the
            # outer index; each cell's count is the popcount of its row
            acc = block[-1]
            for b in reversed(block[:-1]):
                acc = (b[:, :, None, :] & acc[:, None, :, :]).reshape(max(len(b), len(acc)), -1, tile.shape[1])
            # a uint32 sum holds any count under 2**32 records and is faster
            # than intp; the counts of a family's tiles add up exactly
            out[lo:lo + step] += np.bitwise_count(acc).sum(axis=2, dtype=np.uint32)
    return out


def counts(ds: DiscreteDataset, child: str, parents: tuple[str, ...] | list[str] = ()) -> np.ndarray:
    """Contingency counts N(child_state, parent_config), shape (q, r_child)."""
    cols = _family(ds, child, parents)
    cards = tuple(ds.cards[k] for k in cols)
    return _tally(ds, np.array([cols]), cards).reshape(-1, cards[-1])


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
    cols = _family(ds, j, s + (i,))
    for v in (i, j):
        if np.count_nonzero(counts(ds, v)) == 1:
            raise InsufficientData(f"{v} is constant in the data")
    stats, dofs = _chi_square_stats(ds, [cols])
    stat, dof = float(stats[0]), int(dofs[0])
    p = _chi2_sf(stat, dof)
    return CiResult(statistic=stat, dof=dof, p_value=p, independent=p > alpha)


def _chi_square_stats(ds: DiscreteDataset, tests: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Pearson statistics and degrees of freedom of many CI tests, each
    given as the column indices ``(*s, i, j)`` of ``chi_square_ci(ds, i, j,
    s)``, whose statistic and dof each reproduces exactly."""
    stats, dofs = np.empty(len(tests)), np.empty(len(tests), dtype=np.intp)
    for cards, which, cols in _by_cards(ds, tests):
        ci, cj = cards[-2:]
        # one (ci, cj) table per stratum: the cell index is ((s..) * ci + i) * cj + j
        joint = _tally(ds, cols, cards).reshape(len(which), -1, ci, cj)
        # margins and their products are exact integers, so each expected
        # count is rounded once, in the division
        row, col = joint.sum(axis=3), joint.sum(axis=2)
        total = row.sum(axis=2)
        expected = row[:, :, :, None] * col[:, :, None, :] / np.maximum(total, 1)[:, :, None, None]
        # a cell with zero expectation adds 0, and so does an empty stratum
        terms = np.divide(np.square(joint - expected), expected, out=np.zeros(joint.shape), where=expected > 0)
        # a running sum over the strata in order, like a stratum-by-stratum loop
        stats[which] = np.add.accumulate(terms.reshape(*total.shape, -1).sum(axis=2), axis=1)[:, -1]
        dofs[which] = (ci - 1) * (cj - 1) * np.count_nonzero(total, axis=1)
    return stats, dofs


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
    return family_scores(ds, child, [parents], method=method, ess=ess)[0]


def family_scores(ds: DiscreteDataset, child: str, parent_sets: list[tuple[str, ...]],
                  method: str = "bic", ess: float = 1.0) -> list[float]:
    """``family_score`` of one child under each parent set, counted in
    batches; each float equals ``family_score``'s."""
    if method not in ("bic", "k2", "bdeu"):
        raise UsageError(f"unknown score method {method!r}")
    return _family_scores(ds, [_family(ds, child, ps) for ps in parent_sets], method, ess)


def _family_scores(ds: DiscreteDataset, families: list[tuple[int, ...]], method: str, ess: float) -> list[float]:
    """Scores of families given as column indices, parents first and child
    last; the child may differ from family to family."""
    if method == "bdeu" and not 0 < ess < inf:
        raise NonPositiveEss(f"ess must be a finite number > 0, got {ess}")
    out = [0.0] * len(families)
    for cards, which, cols in _by_cards(ds, families):
        n = _tally(ds, cols, cards).reshape(len(which), -1, cards[-1])
        for k, v in zip(which, _SCORES[method](n, ds.n_records, ess)):
            out[k] = v
    return out


def _bic(n: np.ndarray, n_records: int, ess: float) -> list[float]:
    m, q, r = n.shape
    mask = n > 0
    nz = n[mask]  # each table's non-zero cells, in row-major order, table after table
    terms = nz * np.log(nz / np.broadcast_to(n.sum(axis=2)[:, :, None], n.shape)[mask])
    # numpy sums a row pairwise in an order set by its length, so tables with
    # the same number of terms are summed together, each as one row
    sizes = np.count_nonzero(mask.reshape(m, -1), axis=1)
    starts = np.cumsum(sizes) - sizes
    by_size: dict[int, list[int]] = {}
    for k, size in enumerate(sizes.tolist()):
        by_size.setdefault(size, []).append(k)
    ll = np.empty(m)
    for size, which in by_size.items():
        ll[which] = terms[starts[which][:, None] + np.arange(size)].sum(axis=1)
    return (ll - (log(n_records) / 2.0) * (r - 1) * q).tolist()


def _dirichlet(n: np.ndarray, a_row: float, a_cell: float) -> list[float]:
    """Log marginal likelihood of each (q, r) table under a Dirichlet prior
    with ``a_cell`` per cell and ``a_row`` = r * a_cell per row."""
    scores = []
    for table, rows in zip(n.tolist(), n.sum(axis=2).tolist()):
        out = 0.0
        for cells, row in zip(table, rows):
            out += lgamma(a_row) - lgamma(a_row + row)
            out += sum(lgamma(a_cell + v) - lgamma(a_cell) for v in cells)
        scores.append(out)
    return scores


# each maps a batch of (m, q, r) count tables to m family scores; K2 is the
# Dirichlet score with one pseudo-count per cell, BDeu spreads ess over the q * r cells
_SCORES = {
    "bic": _bic,
    "k2": lambda n, n_records, ess: _dirichlet(n, n.shape[2], 1),
    "bdeu": lambda n, n_records, ess: _dirichlet(n, ess / n.shape[1], ess / (n.shape[1] * n.shape[2])),
}


def score(ds: DiscreteDataset, graph: CausalGraph, method: str = "bic", ess: float = 1.0) -> float:
    """Network score: sum of family scores over all nodes. Higher is better."""
    topological_order(graph)
    return sum(
        family_score(ds, node, tuple(sorted(graph.parents(node))), method=method, ess=ess)
        for node in graph.nodes
    )
