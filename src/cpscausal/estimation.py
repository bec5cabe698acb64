"""Contingency counts, independence testing, and network scores.

Everything here reduces to contingency counts ``N(c, r)`` of a child state
``c`` under a parent configuration ``r``. Parent configurations are indexed
row-major over the parent state indices in the CPT's parent order, so a CPT
table has ``prod(parent_cards)`` rows of ``child_card`` cells. The CPT
estimators :func:`fit_mle` and :func:`fit_bayes` live in :mod:`inference`;
they are named here too.

A dataset is a :class:`datafile.DiscreteDataset`. Every count comes from
the one counting kernel, :class:`tally.Tallies`, which the dataset holds as
its ``tallies`` and which keeps every table it counts. :func:`counts`,
:func:`family_score`, :func:`family_scores`, :func:`chi_square_ci`,
:func:`mutual_information` and :func:`score` count through it, and so do
the learners, which apply the same formulas (``_scorer``, ``_chi_square``
and ``_mutual_information``) to its tables, so each formula exists once
and a learner's score or statistic is the same float as the public
function's. PC runs each test of
an unordered pair once, with the pair in name order, and memoizes its
decision (see ``learning.learn_pc``).

Every logarithm is ``math.log``. Where a float decides an output, the sums
keep numpy's order, so that every output is the one that the same formulas
give in numpy wherever numpy's ``log`` is libm's: ``_pairwise_sum`` is
numpy's pairwise sum of a float64 array, which adds
each BIC's terms (the non-zero cells, row-major), each chi-square
stratum's cells, and the mutual information's terms and column margins.
The chi-square statistic adds the strata one after the other, and a
mutual-information row margin adds its cells one after the other. Integer
counts and margins are exact, so each expected count is rounded once, in
its division.

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

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from math import exp, inf, lgamma, log

from .errors import DuplicateParent, InsufficientData, NonPositiveEss, UnknownColumn, UsageError
from .graph import CausalGraph, topological_order
# the net model and its fitting live in inference, which fit runs without numpy; still named here
from .inference import BayesNet, Cpt, fit_bayes, fit_mle  # noqa: F401


@dataclass(frozen=True)
class CiResult:
    statistic: float
    dof: int
    p_value: float
    independent: bool


def _column_of(ds) -> dict[str, int]:
    """Each DP's column in the dataset ``ds``, by name."""
    return {spec.name: k for k, spec in enumerate(ds.specs)}


def _family(column: Mapping[str, int], child: str, parents: Sequence[str]) -> tuple[int, ...]:
    """Column indices of a family, parents first and child last."""
    cols = []
    for name in (*parents, child):
        try:
            cols.append(column[name])
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownColumn(f"no variable named {name!r}") from None
    if len(set(cols)) != len(cols):
        raise DuplicateParent(f"{child}: parents must be distinct and exclude the child")
    return tuple(cols)


def _pairwise_sum(terms: Sequence[float], lo: int = 0, n: int | None = None) -> float:
    """numpy's sum of the float64 array ``terms[lo:lo + n]``: one after the
    other below 8 terms; up to 128, eight running sums of every eighth term,
    added pairwise, then the terms left over one by one; above 128, the sums
    of two halves, split at a multiple of 8."""
    n = len(terms) - lo if n is None else n
    if n < 8:
        total = 0.0
        for at in range(lo, lo + n):
            total += terms[at]
        return total
    if n <= 128:
        whole = n - n % 8
        r = list(terms[lo:lo + 8])
        for at in range(lo + 8, lo + whole, 8):
            for k in range(8):
                r[k] += terms[at + k]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for at in range(lo + whole, lo + n):
            total += terms[at]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms, lo, half) + _pairwise_sum(terms, lo + half, n - half)


def counts(ds, child: str, parents: tuple[str, ...] | list[str] = ()) -> list[list[int]]:
    """Contingency counts N(child_state, parent_config): one row of the
    child's states per parent configuration."""
    return ds.tallies(_family(_column_of(ds), child, parents))


def chi_square_ci(ds, i: str, j: str, s: tuple[str, ...] | list[str] = (), alpha: float = 0.01) -> CiResult:
    """Pearson chi-square test of i independent of j given the variables in s.

    The statistic sums over the strata (configurations of s); expected
    counts come from each stratum's margins. Strata with no observations
    are skipped and excluded from the degrees of freedom, which are
    ``(|i|-1) * (|j|-1)`` per non-empty stratum.
    """
    s = tuple(s)
    if i == j or i in s or j in s:
        raise DuplicateParent("i, j, and the conditioning set must be disjoint")
    column = _column_of(ds)
    family = _family(column, j, s + (i,))
    tally = ds.tallies
    for v in (i, j):
        if sum(1 for n in tally.flat((column[v],)) if n) == 1:
            raise InsufficientData(f"{v} is constant in the data")
    stat, dof = _chi_square(tally.flat(family), tally.cards[family[-2]], tally.cards[family[-1]])
    p = _chi2_sf(stat, dof)
    return CiResult(statistic=stat, dof=dof, p_value=p, independent=p > alpha)


def _chi_square(n: list[int], ci: int, cj: int) -> tuple[float, int]:
    """The Pearson statistic and degrees of freedom of the counts ``n`` of
    the family ``(*s, i, j)``, whose cells are ``((s..) * ci + i) * cj + j``;
    see :func:`chi_square_ci`. A cell of zero expectation adds 0."""
    size = ci * cj
    stat, strata = 0.0, 0
    for at in range(0, len(n), size):
        cells = n[at:at + size]
        rows = [sum(cells[k:k + cj]) for k in range(0, size, cj)]
        total = sum(rows)
        if not total:
            continue
        cols = [sum(cells[k::cj]) for k in range(cj)]
        terms = []
        for a, row in enumerate(rows):
            for b, col in enumerate(cols):
                expected = row * col / total
                if expected > 0:
                    d = cells[a * cj + b] - expected
                    terms.append(d * d / expected)
                else:
                    terms.append(0.0)
        stat += _pairwise_sum(terms)
        strata += 1
    return stat, (ci - 1) * (cj - 1) * strata


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


def mutual_information(ds, i: str, j: str) -> float:
    """Plug-in mutual information of two columns, natural log, in nats."""
    if i == j:
        raise DuplicateParent("mutual information needs two distinct variables")
    cj, ci = _family(_column_of(ds), i, (j,))
    tally = ds.tallies
    return _mutual_information(tally.flat((ci, cj)), tally.cards[ci], tally.cards[cj], tally.n_records)


def _mutual_information(n: list[int], ci: int, cj: int, n_records: int) -> float:
    """The plug-in mutual information of the counts ``n`` of the family
    ``(i, j)``, whose cells are ``i * cj + j``."""
    p = [count / n_records for count in n]
    p_i = []
    for at in range(0, len(p), cj):
        margin = 0.0
        for v in p[at:at + cj]:
            margin += v
        p_i.append(margin)
    p_j = [_pairwise_sum(p[b::cj]) for b in range(cj)]
    return _pairwise_sum([p[a * cj + b] * log(p[a * cj + b] / (p_i[a] * p_j[b]))
                          for a in range(ci) for b in range(cj) if n[a * cj + b]])


def family_score(ds, child: str, parents: tuple[str, ...], method: str = "bic", ess: float = 1.0) -> float:
    """Decomposable per-family contribution of one node to a network score."""
    return family_scores(ds, child, [parents], method=method, ess=ess)[0]


def family_scores(ds, child: str, parent_sets: list[tuple[str, ...]], method: str = "bic",
                  ess: float = 1.0) -> list[float]:
    """``family_score`` of one child under each parent set, from one
    count of the dataset; each float equals ``family_score``'s."""
    if method not in ("bic", "k2", "bdeu"):
        raise UsageError(f"unknown score method {method!r}")
    column = _column_of(ds)
    families = [_family(column, child, ps) for ps in parent_sets]
    tally = ds.tallies
    scorer = _scorer(method, ess, tally.n_records)
    return [scorer(tally.flat(family), tally.cards[family[-1]]) for family in families]


def _scorer(method: str, ess: float, n_records: int) -> Callable[[list[int], int], float]:
    """The family score ``method`` of a table of counts with ``r`` child
    states per row, of ``n_records`` records: BIC, or the Dirichlet score
    with one pseudo-count per cell (K2) or ``ess`` spread over the cells
    (BDeu)."""
    if method == "bdeu" and not 0 < ess < inf:
        raise NonPositiveEss(f"ess must be a finite number > 0, got {ess}")
    if method == "bic":
        return lambda n, r: _bic(n, r, n_records)
    if method == "k2":
        return lambda n, r: _dirichlet(n, r, r, 1)
    return lambda n, r: _dirichlet(n, r, ess / (len(n) // r), ess / len(n))


def _bic(n: list[int], r: int, n_records: int) -> float:
    terms: list[float] = []
    for at in range(0, len(n), r):
        row = n[at:at + r]
        total = sum(row)
        if total:
            terms += [count * log(count / total) for count in row if count]
    return _pairwise_sum(terms) - (log(n_records) / 2.0) * (r - 1) * (len(n) // r)


def _dirichlet(n: list[int], r: int, a_row: float, a_cell: float) -> float:
    """Log marginal likelihood of a table of ``r`` cells per row under a
    Dirichlet prior with ``a_cell`` per cell and ``a_row`` = r * a_cell per
    row."""
    out = 0.0
    for at in range(0, len(n), r):
        cells = n[at:at + r]
        out += lgamma(a_row) - lgamma(a_row + sum(cells))
        out += sum(lgamma(a_cell + v) - lgamma(a_cell) for v in cells)
    return out


def score(ds, graph: CausalGraph, method: str = "bic", ess: float = 1.0) -> float:
    """Network score: sum of family scores over all nodes. Higher is better."""
    topological_order(graph)
    return sum(
        family_score(ds, node, tuple(sorted(graph.parents(node))), method=method, ess=ess)
        for node in graph.nodes
    )
