import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpscausal import cli, estimation, learning
from cpscausal.errors import (
    DuplicateParent,
    InsufficientData,
    InvalidCpt,
    NonPositiveEss,
    UnknownColumn,
    UsageError,
)
from cpscausal.estimation import (
    _chi2_sf,
    chi_square_ci,
    counts,
    family_score,
    family_scores,
    fit_bayes,
    fit_mle,
    mutual_information,
    score,
)
from cpscausal.fixtures import FIXTURE_NAMES, get_fixture
from cpscausal.graph import CausalGraph, Edge
from cpscausal.inference import net_from_json, net_to_json
from cpscausal.ingest import ACTUATOR, DiscreteDataset, VariableSpec, dataset_to_json
from cpscausal.tally import BITSET_CELLS, Tallies
from oracles import read_as_one_array, read_dataset_text, reference_chi_square, reference_counts, reference_cpt_tables, \
    reference_family_score


def make_ds(columns: dict[str, list[int]], cards: dict[str, int] | None = None) -> DiscreteDataset:
    cards = cards or {}
    specs = tuple(
        VariableSpec(name, ACTUATOR,
                     tuple(f"s{k}" for k in range(cards.get(name, max(vals) + 1 if max(vals) > 0 else 2))))
        for name, vals in columns.items()
    )
    return DiscreteDataset(specs=specs, columns=[np.asarray(v, dtype=np.int64).tolist() for v in columns.values()])


class TestCounts:
    def test_direct_tally(self):
        ds = make_ds({"A": [0, 0, 1, 0]})
        assert counts(ds, "A") == [[3, 1]]

    def test_conservation(self):
        rng = np.random.default_rng(0)
        ds = make_ds({"A": rng.integers(0, 2, 50).tolist(),
                      "B": rng.integers(0, 3, 50).tolist()}, cards={"B": 3})
        assert sum(map(sum, counts(ds, "A", ("B",)))) == 50

    def test_row_count_is_parent_config_product(self):
        ds = make_ds({"A": [0, 1], "B": [0, 1], "C": [0, 2]}, cards={"C": 3})
        table = counts(ds, "A", ("B", "C"))
        assert len(table) == 6 and {len(row) for row in table} == {2}

    def test_duplicate_parent(self):
        ds = make_ds({"A": [0, 1], "B": [0, 1]})
        with pytest.raises(DuplicateParent):
            counts(ds, "A", ("B", "B"))
        with pytest.raises(DuplicateParent):
            counts(ds, "A", ("A",))

    def test_unknown_column(self):
        ds = make_ds({"A": [0, 1]})
        with pytest.raises(UnknownColumn):
            counts(ds, "Z")


# Seven binary DPs (B0..B6), one DP each with 3 to 12 states (C3..C12), and
# C19, so that a family can have 1,026 cells (2 * 3 * 9 * 19), the fewest
# above BITSET_CELLS that these DPs give
_ORACLE_CARDS = {**{f"B{k}": 2 for k in range(7)}, **{f"C{c}": c for c in range(3, 13)}, "C19": 19}
_ORACLE_FAMILIES = [
    ("B0", ()), ("C12", ()), ("C19", ()),
    ("C3", ("B4", "B1")),
    ("B2", ("C12", "C7")),                                  # 168 cells
    ("C4", ("B5", "B0", "B3", "B2", "C8", "B1")),           # 1,024 cells, the largest bitset table
    ("C3", ("C19", "B6", "C9")),                            # 1,026 cells, a Counter table
    ("C11", ("C12", "C9")),                                 # 1,188 cells
    ("B6", ("B3", "B5", "B0", "B4", "B1")),                 # 64 cells
    ("C5", ("C12", "B2", "C7", "B6", "C3")),                # 5,040 cells
]


def _oracle_families(seed: int, n_families: int = 40) -> list[tuple[str, tuple[str, ...]]]:
    """The fixed families above, then random ones of up to 5000 cells with 0
    to 5 parents in random (so mostly non-sorted) order."""
    rng = np.random.default_rng(seed)
    names = sorted(_ORACLE_CARDS)
    out = list(_ORACLE_FAMILIES)
    while len(out) < n_families:
        family = [names[k] for k in rng.permutation(len(names))[:int(rng.integers(1, 7))]]
        if math.prod(_ORACLE_CARDS[v] for v in family) <= 5000:
            out.append((family[-1], tuple(family[:-1])))
    return out


def _oracle_ds(n: int) -> DiscreteDataset:
    rng = np.random.default_rng(n)
    return make_ds({v: rng.integers(0, c, n).tolist() for v, c in _ORACLE_CARDS.items()}, cards=_ORACLE_CARDS)


class TestCountsOracle:
    """``counts`` tallies tables of at most BITSET_CELLS cells from bitsets
    and larger ones with Counter; both must match a record-by-record tally."""

    def test_families_cover_both_sides_of_the_switch(self):
        cells = {math.prod(_ORACLE_CARDS[v] for v in (*ps, c)) for c, ps in _oracle_families(0)}
        assert BITSET_CELLS in cells
        assert min(cells) <= BITSET_CELLS < min(c for c in cells if c > BITSET_CELLS) <= BITSET_CELLS + 2
        assert max(len(ps) for c, ps in _oracle_families(0)) >= 5

    # 63, 64 and 65 records end just before, on and after a 64-bit word
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1000])
    def test_matches_reference_tally(self, n):
        ds = _oracle_ds(n)
        for child, parents in _oracle_families(n):
            assert counts(ds, child, parents) == reference_counts(ds, child, parents).tolist(), (child, parents)

    def test_counter_of_many_cells_does_not_wrap_round(self):
        # three 12-state DPs: 1,728 cells, above BITSET_CELLS, so counted by
        # Counter from the dataset's bytes; cells 256 and above wrap in a byte
        rng = np.random.default_rng(5)
        ds = make_ds({v: [11, *rng.integers(0, 12, 600).tolist()] for v in "XYZ"}, cards=dict.fromkeys("XYZ", 12))
        before = ds.columns
        assert all(isinstance(column, bytes) for column in before) and 12 ** 3 > BITSET_CELLS
        for child, parents in [("Z", ("X", "Y")), ("X", ("Z", "Y")), ("Y", ("Z", "X"))]:
            expected = reference_counts(ds, child, parents)
            assert expected[-1, -1] >= 1  # the last cell, 1,727, is counted
            assert counts(ds, child, parents) == expected.tolist(), (child, parents)
        assert ds.columns == before  # and the columns are left as they were


# families as DP names with the child last, counted through one Tallies in
# turn: binary families that all share one DP and families that share none,
# and families on both sides of BITSET_CELLS, each in two orders
_KERNEL_BATCHES = [
    [("B0",), ("B3",)],
    [("B1", "B0"), ("B2", "B0"), ("B3", "B0"), ("B6", "B0")],
    [("B4", "B5", "B1"), ("B0", "B2", "B3"), ("B6", "B1", "B5")],
    [("B5", "B0", "B3", "B2", "B1", "B4"), ("B0", "B1", "B2", "B3", "B4", "B6"), ("B6", "B5", "B4", "B3", "B2", "B1")],
    [("B5", "B0", "B3", "B2", "C8", "B1", "C4")],     # 1,024 cells, the largest bitset table
    [("C19", "B6", "C9", "C3")],                      # 1,026 cells, a Counter table
    [("C12", "C7", "B2")],                            # 168 cells
]


def _kernel_results(ds, batch, fresh=False):
    """For each family of ``batch``, counted through one Tallies in turn, or
    each through its own when ``fresh``: its BIC, K2 and BDeu scores, and
    the statistic of its last two DPs given the others."""
    column = estimation._column_of(ds)
    tally = Tallies(ds.columns, ds.cards)
    scorers = [estimation._scorer(method, 1.0, ds.n_records) for method in ("bic", "k2", "bdeu")]
    out = []
    for family in batch:
        n = (Tallies(ds.columns, ds.cards) if fresh else tally).flat([column[v] for v in family])
        out.append(([score(n, ds.cardinality(family[-1])) for score in scorers],
                    estimation._chi_square(n, ds.cardinality(family[-2]), ds.cardinality(family[-1]))
                    if len(family) >= 2 else None))
    return out


class TestKernelShortcuts:
    """A table the kernel reads back from one counted before, in another
    order, sums out of the focused table, splits from it by one more DP, or
    counts afresh, must hold the same counts, and the scores and statistics
    made of them must be the same floats."""

    def test_batches_cover_both_sides_of_the_switch(self):
        cells = {math.prod(_ORACLE_CARDS[v] for v in batch[0]) for batch in _KERNEL_BATCHES}
        assert min(cells) <= BITSET_CELLS < max(cells) and BITSET_CELLS in cells

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1000])
    def test_counts_scores_and_statistics_do_not_depend_on_the_path(self, n):
        ds = _oracle_ds(n)
        column = estimation._column_of(ds)
        for batch in _KERNEL_BATCHES:
            expected = [reference_counts(ds, f[-1], f[:-1]).ravel().tolist() for f in batch]
            fresh = [Tallies(ds.columns, ds.cards).flat([column[v] for v in f]) for f in batch]
            assert fresh == expected, batch
            default = _kernel_results(ds, batch)
            tally = Tallies(ds.columns, ds.cards)
            for family, want in zip(batch, expected):
                cols = [column[v] for v in family]
                # each sub-family by one DP less, focused, then the family split from it by the DP left out
                for k in range(len(cols)):
                    rest = cols[:k] + cols[k + 1:]
                    if rest:
                        tally.focus(rest)
                        assert Tallies(ds.columns, ds.cards).flat(rest) == tally.flat(rest)
                    assert tally.flat(cols) == want, (n, family, k)
                # the family focused, and each sub-family summed out of it, in reverse order
                tally.focus(cols)
                for k in range(1, len(cols)):
                    part = cols[k:][::-1]
                    assert tally.flat(part) == Tallies(ds.columns, ds.cards).flat(part), (n, family, part)
                # the family read back in reverse order
                assert tally.flat(cols[::-1]) == reference_counts(ds, family[0], family[:0:-1]).ravel().tolist()
            assert _kernel_results(ds, batch) == default == _kernel_results(ds, batch, fresh=True)
            assert _kernel_results(ds, batch[::-1]) == default[::-1]


class TestFitMle:
    def test_root_prior(self):
        ds = make_ds({"A": [0, 0, 1, 0]})
        net = fit_mle(ds, CausalGraph(nodes=("A",)))
        assert net.cpts["A"].table == ((0.75, 0.25),)

    def test_deterministic_dependence(self):
        # MV101 open exactly when LIT101 medium
        lit = [0, 1, 2, 1, 1, 0, 2, 1]
        mv = [0, 1, 0, 1, 1, 0, 0, 1]
        ds = make_ds({"LIT101": lit, "MV101": mv}, cards={"LIT101": 3})
        g = CausalGraph(nodes=("LIT101", "MV101"), edges=(Edge("LIT101", "MV101"),))
        net = fit_mle(ds, g)
        # hand tally: every Medium row has MV101=1, others MV101=0
        assert net.cpts["MV101"].table[1] == (0.0, 1.0)
        assert net.cpts["MV101"].table[0] == (1.0, 0.0)

    def test_unseen_config_uniform_and_flagged(self):
        ds = make_ds({"A": [0, 0], "B": [0, 1]})
        g = CausalGraph(nodes=("A", "B"), edges=(Edge("A", "B"),))
        net = fit_mle(ds, g)
        assert net.cpts["B"].table[1] == (0.5, 0.5)
        assert net.cpts["B"].uniform_rows == frozenset({1})

    def test_exact_count_ratios(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            a = rng.integers(0, 2, 17).tolist()
            b = rng.integers(0, 3, 17).tolist()
            ds = make_ds({"A": a, "B": b}, cards={"B": 3})
            g = CausalGraph(nodes=("A", "B"), edges=(Edge("A", "B"),))
            net = fit_mle(ds, g)
            tally = Counter(zip(a, b))
            for pa in (0, 1):
                n_pa = sum(v for (x, _), v in tally.items() if x == pa)
                for c in (0, 1, 2):
                    expected = Fraction(tally.get((pa, c), 0), n_pa) if n_pa else Fraction(1, 3)
                    assert net.cpts["B"].table[pa][c] == float(expected)


class TestFitBayes:
    def test_zero_count_row_is_uniform(self):
        ds = make_ds({"A": [0, 0], "B": [0, 1]})
        g = CausalGraph(nodes=("A", "B"), edges=(Edge("A", "B"),))
        net = fit_bayes(ds, g, ess=2.5)
        assert net.cpts["B"].table[1] == (0.5, 0.5)

    def test_hand_evaluated_smoothing(self):
        # counts [3, 1], no parents, ess=4: (3 + 4/2) / (4 + 4) and (1 + 4/2) / (4 + 4)
        ds = make_ds({"A": [0, 0, 1, 0]})
        net = fit_bayes(ds, CausalGraph(nodes=("A",)), ess=4.0)
        assert net.cpts["A"].table == ((0.625, 0.375),)

    def test_tiny_ess_approaches_mle(self):
        rng = np.random.default_rng(4)
        ds = make_ds({"A": rng.integers(0, 2, 40).tolist(),
                      "B": rng.integers(0, 2, 40).tolist()})
        g = CausalGraph(nodes=("A", "B"), edges=(Edge("A", "B"),))
        mle = fit_mle(ds, g)
        tiny = fit_bayes(ds, g, ess=1e-9)
        for n in ("A", "B"):
            assert np.max(np.abs(np.subtract(mle.cpts[n].table, tiny.cpts[n].table))) < 1e-6

    def test_non_positive_ess(self):
        ds = make_ds({"A": [0, 1]})
        with pytest.raises(NonPositiveEss):
            fit_bayes(ds, CausalGraph(nodes=("A",)), ess=0.0)

    @pytest.mark.parametrize("ess", [float("nan"), float("inf"), -float("inf")])
    def test_ess_that_is_not_finite_is_refused(self, ess):
        ds = make_ds({"A": [0, 1], "B": [1, 0]})
        with pytest.raises(NonPositiveEss, match="ess must be a finite number > 0"):
            fit_bayes(ds, CausalGraph(nodes=("A",)), ess=ess)
        with pytest.raises(NonPositiveEss, match="ess must be a finite number > 0"):
            family_scores(ds, "A", [("B",)], method="bdeu", ess=ess)


# families of 1,023 and 1,024 cells, the largest that the kernel counts from
# bitsets, of 1,025, the smallest it counts with Counter, and with a DP of
# more than 256 states, which it counts with Counter whatever its cells
_CELL_EDGES = [(3, 11, 31), (32, 32), (2, 2, 2, 2, 8, 8), (5, 5, 41), (257,), (2, 257)]


@given(cards=st.sampled_from(_CELL_EDGES) | st.lists(st.integers(2, 300), min_size=1, max_size=3).filter(
           lambda cards: math.prod(cards) <= 5000),
       n=st.sampled_from([1, 2, 64]) | st.integers(1, 400), seed=st.integers(0, 2**32 - 1), wide=st.booleans())
@settings(deadline=None)
def test_fit_counts_are_estimations_counts(cards, n, seed, wide):
    rng = np.random.default_rng(seed)
    # the family's DPs in the dataset in reverse, after one of 300 states
    # when wide, whose column is a list
    names = [f"D{k}" for k in range(len(cards))]
    columns = {name: rng.integers(0, card, n).tolist() for name, card in zip(names, cards)}
    extra = {"W": rng.integers(0, 300, n).tolist()} if wide else {}
    ds = make_ds({**extra, **dict(reversed(columns.items()))},
                 cards={"W": 300, **dict(zip(names, cards))})
    family = [ds.index(name) for name in names]
    tally = Tallies(ds.columns, ds.cards)
    assert tally(family) == counts(ds, names[-1], names[:-1]) == reference_counts(ds, names[-1], names[:-1]).tolist()


def _fit_cases():
    """Datasets and the graphs to fit to them: each fixture's, with and
    without a uniform row, and one whose uniform rows have three states."""
    for name in FIXTURE_NAMES:
        fx = get_fixture(name)
        for n in (30, 500):
            yield pytest.param(fx.sample(n, seed=2), fx.net.graph, id=f"{name}-{n}")
    ds = make_ds({"A": [0, 0, 2, 2, 0], "B": [0, 1, 2, 2, 1]}, cards={"A": 3, "B": 3})
    yield pytest.param(ds, CausalGraph(nodes=("A", "B"), edges=(Edge("A", "B"),)), id="unseen-parent-state")


@pytest.mark.parametrize("ess", [None, 1e-9, 0.37, 1.0, 10.0], ids=["mle", "bayes-1e-9", "bayes-0.37", "bayes-1",
                                                                   "bayes-10"])
@pytest.mark.parametrize("ds, graph", _fit_cases())
def test_fitted_tables_are_numpys_to_the_bit(ds, graph, ess):
    net = fit_mle(ds, graph) if ess is None else fit_bayes(ds, graph, ess=ess)
    for node, table in reference_cpt_tables(ds, graph, ess).items():
        assert [[p.hex() for p in row] for row in net.cpts[node].table] == \
            [[p.hex() for p in row] for row in table.tolist()], node
    # the same net from the dataset as fit reads its file
    read = read_dataset_text(cli._dump_json(dataset_to_json(ds)))
    assert read_as_one_array(cli._dump_json(dataset_to_json(ds)))
    assert net == (fit_mle(read, graph) if ess is None else fit_bayes(read, graph, ess=ess))


class TestChiSquare:
    def test_independent_fair_coins(self):
        rng = np.random.default_rng(99)
        a = rng.integers(0, 2, 10_000)
        b = rng.integers(0, 2, 10_000)
        ds = make_ds({"A": a.tolist(), "B": b.tolist()})
        res = chi_square_ci(ds, "A", "B", alpha=0.01)
        assert res.independent
        # hand-rolled statistic over the 2x2 table
        tally = Counter(zip(a.tolist(), b.tolist()))
        n = 10_000
        stat = 0.0
        for x in (0, 1):
            for y in (0, 1):
                row = tally[(x, 0)] + tally[(x, 1)]
                col = tally[(0, y)] + tally[(1, y)]
                expected = row * col / n
                stat += (tally[(x, y)] - expected) ** 2 / expected
        assert res.statistic == pytest.approx(stat, abs=1e-9)
        assert res.dof == 1
        # independent p-value check via the regularized upper incomplete gamma
        import mpmath
        assert res.p_value == pytest.approx(float(mpmath.gammainc(0.5, res.statistic / 2, regularized=True)), rel=1e-9)

    def test_copy_is_dependent(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, 500).tolist()
        ds = make_ds({"A": a, "B": a})
        res = chi_square_ci(ds, "A", "B")
        assert not res.independent
        assert res.p_value < 1e-6

    def test_conditional_dof_counts_nonempty_strata(self):
        # C=0 stratum only: dof = (2-1)*(2-1) per observed stratum
        ds = make_ds({"A": [0, 1, 0, 1], "B": [0, 0, 1, 1], "C": [0, 0, 0, 0]})
        res = chi_square_ci(ds, "A", "B", ("C",))
        assert res.dof == 1

    def test_constant_variable_rejected(self):
        ds = make_ds({"A": [0, 0, 0], "B": [0, 1, 0]})
        with pytest.raises(InsufficientData):
            chi_square_ci(ds, "A", "B")

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        ds = make_ds({"A": rng.integers(0, 3, 300).tolist(),
                      "B": rng.integers(0, 2, 300).tolist(),
                      "C": rng.integers(0, 2, 300).tolist()}, cards={"A": 3})
        r1 = chi_square_ci(ds, "A", "B", ("C",))
        r2 = chi_square_ci(ds, "B", "A", ("C",))
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-12)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)
        assert r1.dof == r2.dof

    @pytest.mark.parametrize("fixture, n", [("stage1", 400), ("twostage", 60)])
    def test_matches_stratum_by_stratum_reference(self, fixture, n):
        # 60 twostage records leave many strata empty and many margins zero;
        # the strata are summed in another float order, hence the tolerance
        ds = get_fixture(fixture).sample(n, seed=31)
        names = sorted(ds.names)
        checked = 0
        for i, j in itertools.combinations(names, 2):
            rest = [v for v in names if v not in (i, j)]
            for s in itertools.chain(((),), itertools.combinations(rest, 1), itertools.combinations(rest[:4], 2)):
                try:
                    res = chi_square_ci(ds, i, j, s)
                except InsufficientData:
                    continue
                stat, dof = reference_chi_square(ds, i, j, s)
                assert res.dof == dof, (i, j, s)
                assert res.statistic == pytest.approx(stat, rel=1e-12, abs=1e-12), (i, j, s)
                checked += 1
        assert checked >= 50


@st.composite
def count_tables(draw):
    """A small contingency table of two or three DPs of 2 to 4 states, row-
    major over the DPs, with at least one record; zero cells and cells of
    one record are drawn often, so that empty and single-record rows are
    common."""
    cards = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    cells = draw(st.lists(st.sampled_from([0, 0, 1]) | st.integers(0, 10),
                          min_size=math.prod(cards), max_size=math.prod(cards)).filter(any))
    return cards, cells


def _table_dataset(cards: list[int], cells: list[int]) -> DiscreteDataset:
    """The dataset of DPs X0, X1, ... whose table, row-major over them in
    that order, is ``cells``."""
    records = [state for cell, count in enumerate(cells) for state in [cell] * count]
    columns = {}
    for k in range(len(cards)):
        stride = math.prod(cards[k + 1:])
        columns[f"X{k}"] = [cell // stride % cards[k] for cell in records]
    return make_ds(columns, cards={f"X{k}": card for k, card in enumerate(cards)})


def _assert_close(got: float, terms: list, floor: int = 0) -> None:
    """``got`` is the sum of the mpmath ``terms`` within 1e-12 relative to
    the sum of their magnitudes, which is the sum itself wherever the terms
    share a sign, plus ``floor``."""
    exact = mpmath.fsum(terms)
    assert abs(mpmath.mpf(got) - exact) <= 1e-12 * (mpmath.fsum(abs(t) for t in terms) + floor), (got, exact)


@given(table=count_tables(), ess=st.sampled_from([1e-3, 0.37, 1.0, 2.5, 100.0]))
@settings(max_examples=300, deadline=None)
def test_scores_and_statistics_match_mpmath(table, ess):
    # the family scores, the mutual information and the chi-square statistic
    # of small tables against their closed forms at 50 digits
    cards, cells = table
    ds = _table_dataset(cards, cells)
    names = list(ds.names)
    child, parents = names[-1], tuple(names[:-1])
    r, q, n_records = cards[-1], math.prod(cards[:-1]), sum(cells)
    rows = [cells[at:at + r] for at in range(0, len(cells), r)]
    lg = mpmath.loggamma
    with mpmath.workdps(50):
        ll = [c * mpmath.log(mpmath.mpf(c) / sum(row)) for row in rows for c in row if c]
        _assert_close(family_score(ds, child, parents, "bic"),
                      ll + [-mpmath.log(n_records) / 2 * (r - 1) * q])
        k2 = [t for row in rows for t in (lg(r), -lg(sum(row) + r), *(lg(c + 1) for c in row))]
        _assert_close(family_score(ds, child, parents, "k2"), k2)
        a_row, a_cell = mpmath.mpf(ess) / q, mpmath.mpf(ess) / (q * r)
        bdeu = [t for row in rows
                for t in (lg(a_row), -lg(a_row + sum(row)), *(u for c in row for u in (lg(a_cell + c), -lg(a_cell))))]
        _assert_close(family_score(ds, child, parents, "bdeu", ess=ess), bdeu)

        # the first two DPs' mutual information, over the table summed over the third
        ci, cj = cards[0], cards[1]
        joint = [sum(cells[(a * cj + b) * (len(cells) // (ci * cj)):][:len(cells) // (ci * cj)]) for a in range(ci)
                 for b in range(cj)]
        row_i = [sum(joint[a * cj:(a + 1) * cj]) for a in range(ci)]
        col_j = [sum(joint[b::cj]) for b in range(cj)]
        mi = [mpmath.mpf(joint[a * cj + b]) / n_records
              * mpmath.log(mpmath.mpf(joint[a * cj + b]) * n_records / (row_i[a] * col_j[b]))
              for a in range(ci) for b in range(cj) if joint[a * cj + b]]
        # each term's ratio is rounded before its log, and the terms' weights add up to 1
        _assert_close(mutual_information(ds, names[0], names[1]), mi, floor=1)

        # the last two DPs given the first when there are three
        si, sj = cards[-2], cards[-1]
        chi2, strata = [], 0
        for at in range(0, len(cells), si * sj):
            stratum = cells[at:at + si * sj]
            total = sum(stratum)
            if not total:
                continue
            strata += 1
            for a in range(si):
                for b in range(sj):
                    expected = mpmath.mpf(sum(stratum[a * sj:(a + 1) * sj]) * sum(stratum[b::sj])) / total
                    if expected:
                        chi2.append((stratum[a * sj + b] - expected) ** 2 / expected)
        if 1 in (_states_seen(cards, cells, len(cards) - 2), _states_seen(cards, cells, len(cards) - 1)):
            with pytest.raises(InsufficientData):
                chi_square_ci(ds, names[-2], names[-1], tuple(names[:-2]))
        else:
            res = chi_square_ci(ds, names[-2], names[-1], tuple(names[:-2]))
            assert res.dof == (si - 1) * (sj - 1) * strata
            _assert_close(res.statistic, chi2 or [mpmath.mpf(0)])


def _states_seen(cards: list[int], cells: list[int], k: int) -> int:
    """How many states of the table's DP ``k`` its records hold."""
    stride = math.prod(cards[k + 1:])
    return len({cell // stride % cards[k] for cell, count in enumerate(cells) if count})


def assert_chi2_tail(p: float, stat: float, dof: int) -> None:
    """p is Q(dof/2, stat/2) to 1e-11 relative, by mpmath at 40 digits.
    Below the smallest normal double no float carries 11 digits, so there p
    need only be that small too."""
    with mpmath.workdps(40):
        ref = float(mpmath.gammainc(dof / 2, stat / 2, mpmath.inf, regularized=True))
    if ref < sys.float_info.min:
        assert p <= sys.float_info.min, (stat, dof, p, ref)
    else:
        assert abs(p - ref) <= 1e-11 * ref, (stat, dof, p, ref)


class TestChiSquareTail:
    def test_matches_mpmath_on_a_grid(self):
        # every small dof, then a geometric sweep to 3000; stat from 0 to 3 dof
        dofs = sorted(set(range(1, 31)) | {int(v) for v in np.geomspace(31, 3000, 25)})
        for dof in dofs:
            for k in range(31):
                stat = 3.0 * dof * k / 30
                assert_chi2_tail(_chi2_sf(stat, dof), stat, dof)

    def test_series_and_continued_fraction_meet(self):
        # the two branches switch at stat = dof + 2
        for dof in (1, 2, 7, 40, 999):
            for stat in np.nextafter(dof + 2.0, [0.0, np.inf]).tolist() + [dof + 2.0]:
                assert_chi2_tail(_chi2_sf(stat, dof), stat, dof)

    def test_nan_statistic_returns_nan(self):
        assert math.isnan(_chi2_sf(math.nan, 3))

    @pytest.mark.parametrize("fixture", FIXTURE_NAMES)
    def test_every_pc_test_matches_mpmath(self, fixture, monkeypatch):
        # every p-value that PC decides an edge on passes through learning._chi2_sf
        seen = []

        def recording(stat, dof):
            p = _chi2_sf(stat, dof)
            seen.append((stat, dof, p))
            return p

        monkeypatch.setattr(learning, "_chi2_sf", recording)
        for n in (60, 2000):
            learning.learn_pc(get_fixture(fixture).sample(n, seed=31), learning.PcConfig(alpha=0.05))
        assert seen
        for stat, dof, p in seen:
            assert_chi2_tail(p, stat, dof)


class TestMutualInformation:
    def test_product_distribution_is_zero(self):
        # empirical joint factorizes exactly: every (a, b) pair equally often
        pairs = list(itertools.product((0, 1), (0, 1, 2))) * 4
        ds = make_ds({"A": [p[0] for p in pairs], "B": [p[1] for p in pairs]}, cards={"B": 3})
        assert mutual_information(ds, "A", "B") == pytest.approx(0.0, abs=1e-15)

    def test_perfect_copy_is_ln2(self):
        ds = make_ds({"A": [0, 1, 0, 1], "B": [0, 1, 0, 1]})
        assert mutual_information(ds, "A", "B") == pytest.approx(math.log(2), rel=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), min_size=2, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_symmetric_and_nonnegative(self, pairs):
        ds = make_ds({"A": [p[0] for p in pairs], "B": [p[1] for p in pairs]},
                     cards={"A": 2, "B": 3})
        mi_ab = mutual_information(ds, "A", "B")
        mi_ba = mutual_information(ds, "B", "A")
        assert mi_ab == pytest.approx(mi_ba, abs=1e-12)
        assert mi_ab >= -1e-15


class TestScores:
    def test_bic_hand_value(self):
        ds = make_ds({"A": [0, 0, 0, 1]})
        expected = 3 * math.log(0.75) + math.log(0.25) - math.log(4) / 2
        assert score(ds, CausalGraph(nodes=("A",)), "bic") == pytest.approx(expected, abs=1e-12)

    def test_edge_from_independent_variable_lowers_bic(self):
        rng = np.random.default_rng(12)
        ds = make_ds({"A": rng.integers(0, 2, 10_000).tolist(),
                      "B": rng.integers(0, 2, 10_000).tolist()})
        empty = CausalGraph(nodes=("A", "B"))
        one = CausalGraph(nodes=("A", "B"), edges=(Edge("A", "B"),))
        assert score(ds, one, "bic") < score(ds, empty, "bic")

    def test_decomposability(self):
        rng = np.random.default_rng(13)
        ds = make_ds({"A": rng.integers(0, 2, 200).tolist(),
                      "B": rng.integers(0, 2, 200).tolist(),
                      "C": rng.integers(0, 2, 200).tolist()})
        g0 = CausalGraph(nodes=("A", "B", "C"), edges=(Edge("A", "B"),))
        g1 = CausalGraph(nodes=("A", "B", "C"), edges=(Edge("A", "B"), Edge("A", "C")))
        for method in ("bic", "k2", "bdeu"):
            delta = score(ds, g1, method) - score(ds, g0, method)
            family_delta = (family_score(ds, "C", ("A",), method)
                            - family_score(ds, "C", (), method))
            assert delta == pytest.approx(family_delta, abs=1e-9)

    def test_unknown_method_is_a_usage_error(self):
        ds = make_ds({"A": [0, 1], "B": [1, 0]})
        with pytest.raises(UsageError, match="unknown score method 'aic'"):
            family_score(ds, "A", ("B",), method="aic")

    @pytest.mark.parametrize("method", ["bic", "bdeu"])
    def test_score_equivalence_chain_vs_fork(self, method):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(20, 200))
            ds = make_ds({"A": rng.integers(0, 2, n).tolist(),
                          "B": rng.integers(0, 3, n).tolist(),
                          "C": rng.integers(0, 2, n).tolist()},
                         cards={"B": 3})
            chain = CausalGraph(nodes=("A", "B", "C"), edges=(Edge("A", "B"), Edge("B", "C")))
            fork = CausalGraph(nodes=("A", "B", "C"), edges=(Edge("B", "A"), Edge("B", "C")))
            assert score(ds, chain, method) == pytest.approx(score(ds, fork, method), abs=1e-9)


class TestFamilyScoresMatchReference:
    """``family_scores`` counts and scores families in batches; each float
    must equal the one-family computation in oracles.reference_family_score."""

    @pytest.mark.parametrize("n", [60, 3000])
    @pytest.mark.parametrize("fixture", FIXTURE_NAMES)
    def test_every_family_of_up_to_three_parents(self, fixture, n):
        ds = get_fixture(fixture).sample(n, seed=17)
        names = sorted(ds.names)
        for child in names:
            others = [v for v in names if v != child]
            parent_sets = [ps for k in range(4) for ps in itertools.combinations(others, k)]
            parent_sets += [ps[::-1] for ps in parent_sets if len(ps) > 1]  # parents out of name order
            for method in ("bic", "k2", "bdeu"):
                got = family_scores(ds, child, parent_sets, method=method, ess=2.5)
                want = [reference_family_score(ds, child, ps, method=method, ess=2.5) for ps in parent_sets]
                assert got == want, (child, method)

    def test_tables_above_the_bitset_limit(self):
        # 5 * 6 * 9 * 7 = 1,890 cells: Counter, mixed in one call with bitset tables
        rng = np.random.default_rng(5)
        cards = {"A": 5, "B": 6, "C": 7, "D": 2, "E": 9}
        ds = make_ds({v: rng.integers(0, c, 400).tolist() for v, c in cards.items()}, cards=cards)
        parent_sets = [(), ("A",), ("A", "B"), ("A", "B", "E"), ("B", "D"), ("D",)]
        assert 5 * 6 * 9 * 7 > BITSET_CELLS
        for method in ("bic", "k2", "bdeu"):
            assert family_scores(ds, "C", parent_sets, method) == [
                reference_family_score(ds, "C", ps, method) for ps in parent_sets]
            assert family_score(ds, "C", ("A", "B", "E"), method) == \
                reference_family_score(ds, "C", ("A", "B", "E"), method)

    def test_errors(self):
        ds = make_ds({"A": [0, 1], "B": [1, 0]})
        with pytest.raises(UsageError, match="unknown score method"):
            family_scores(ds, "A", [("B",)], method="aic")
        with pytest.raises(NonPositiveEss):
            family_scores(ds, "A", [("B",)], method="bdeu", ess=0.0)
        with pytest.raises(DuplicateParent):
            family_scores(ds, "A", [(), ("A",)])
        with pytest.raises(UnknownColumn):
            family_scores(ds, "A", [("Z",)])
        assert family_scores(ds, "A", []) == []


def test_net_json_rejects_a_cpt_for_a_node_not_in_the_graph(repo_root, tmp_path):
    obj = json.loads((repo_root / "tests/golden/stage1/net.json").read_text())
    fit101 = next(c for c in obj["cpts"] if c["child"] == "FIT101")
    obj["cpts"].append(dict(fit101, child="GHOST"))  # once loaded, and dropped on the next write
    path = tmp_path / "net.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InvalidCpt, match="not in the graph: GHOST$"):
        net_from_json(json.loads(path.read_text()))


def test_net_json_round_trip(stage1):
    obj = net_to_json(stage1.net)
    back = net_from_json(obj)
    assert back.graph == stage1.net.graph
    for n in stage1.net.graph.nodes:
        assert back.cpts[n].table == stage1.net.cpts[n].table
        assert back.cpts[n].states == stage1.net.cpts[n].states
