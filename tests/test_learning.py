import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpscausal import learning
from cpscausal.errors import CpsCausalError, InsufficientData, NoConsistentExtension, UsageError
from cpscausal.estimation import chi_square_ci, mutual_information, score
from cpscausal.fixtures import FIXTURE_NAMES, get_fixture
from cpscausal.graph import (
    CausalGraph,
    Edge,
    is_dag,
    markov_equivalent,
    v_structures,
)
from cpscausal.ingest import DiscreteDataset
from cpscausal.learning import (
    ClConfig,
    HcConfig,
    PcConfig,
    _best_move,
    _moves,
    _pc_orient,
    extend_to_dag,
    learn_cl,
    learn_hc,
    learn_pc,
)
from cpscausal.simgen import forward_sample
from cpscausal.tally import Tallies
from oracles import (
    all_spanning_trees,
    random_net,
    reference_extend_to_dag,
    reference_learn_cl,
    reference_learn_hc,
    reference_learn_pc,
    reference_pc_orient,
)

from test_estimation import make_ds


class TestConfigs:
    def test_negative_limits_are_usage_errors(self):
        with pytest.raises(UsageError, match="max_cond_size"):
            PcConfig(max_cond_size=-1)
        with pytest.raises(UsageError, match="max_parents"):
            HcConfig(max_parents=-1)

    def test_zero_limits_are_legal(self):
        ds = get_fixture("stage1").sample(300, seed=4)
        assert learn_pc(ds, PcConfig(max_cond_size=0)).graph.edges
        assert not learn_hc(ds, HcConfig(max_parents=0)).graph.edges

    def test_usage_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            PcConfig(alpha=1.5)
        with pytest.raises(ValueError):
            HcConfig(plateau_k=0)


def skeleton(g: CausalGraph) -> set[frozenset[str]]:
    return {frozenset((e.src, e.dst)) for e in g.edges}


class TestPc:
    def test_collider_recovered(self):
        fx = get_fixture("collider3")
        ds = fx.sample(20_000, seed=101)
        res = learn_pc(ds)
        assert skeleton(res.graph) == {frozenset("AC"), frozenset("BC")}
        assert v_structures(extend_to_dag(res.graph)) == {("C", frozenset(("A", "B")))}

    def test_independent_columns_empty_graph(self):
        rng = np.random.default_rng(21)
        ds = make_ds({"A": rng.integers(0, 2, 5000).tolist(),
                      "B": rng.integers(0, 2, 5000).tolist()})
        res = learn_pc(ds)
        assert res.graph.edges == ()
        assert res.sepsets[("A", "B")] == ()

    def test_chain_left_undirected(self):
        fx = get_fixture("chain3")
        ds = fx.sample(20_000, seed=102)
        res = learn_pc(ds)
        assert skeleton(res.graph) == {frozenset("AB"), frozenset("BC")}
        assert all(not e.directed for e in res.graph.edges)

    @pytest.mark.parametrize("n_cond", [0, 1, 2])
    def test_constant_dp_statistic_is_exactly_zero(self, n_cond):
        # why learn_pc needs no constant-DP pre-pass: the expected counts of
        # a constant DP's tables are exact, so each of its tests gives p = 1
        ds = get_fixture("stage1").sample(300, seed=31)
        columns = list(ds.columns)
        columns[ds.index("P102")] = bytes([ds.cardinality("P102") - 1]) * ds.n_records
        ds = DiscreteDataset(specs=ds.specs, columns=columns)
        tally, column = Tallies(ds.columns, ds.cards), {v: ds.index(v) for v in ds.names}
        tests = [learning._ci_statistic(tally, column, min("P102", j), max("P102", j), s)
                 for j in ds.names if j != "P102"
                 for s in itertools.combinations([v for v in ds.names if v not in ("P102", j)], n_cond)]
        assert [stat for stat, dof in tests] == [0.0] * len(tests)
        assert all(learning._chi2_sf(0.0, dof) == 1.0 for stat, dof in tests)

    def test_single_variable_insufficient(self):
        ds = make_ds({"A": [0, 1]})
        with pytest.raises(InsufficientData):
            learn_pc(ds)

    def test_skeleton_invariant_under_column_permutation(self):
        fx = get_fixture("stage1")
        ds = fx.sample(20_000, seed=103)
        res = learn_pc(ds)
        perm = [3, 0, 4, 1, 2]
        shuffled = DiscreteDataset(
            specs=tuple(ds.specs[k] for k in perm),
            columns=[ds.columns[k] for k in perm])
        res2 = learn_pc(shuffled)
        assert skeleton(res.graph) == skeleton(res2.graph)

    def test_deterministic(self):
        fx = get_fixture("stage1")
        ds = fx.sample(10_000, seed=104)
        assert learn_pc(ds).graph == learn_pc(ds).graph


class TestExtendToDag:
    def test_directed_input_unchanged(self):
        g = CausalGraph(nodes=("A", "B"), edges=(Edge("A", "B"),))
        assert extend_to_dag(g) == g

    def test_single_undirected_edge_lexicographic(self):
        g = CausalGraph(nodes=("A", "B"), edges=(Edge("A", "B", directed=False),))
        out = extend_to_dag(g)
        assert out.has_edge("A", "B") and out.fully_directed

    def test_extension_is_markov_equivalent_to_some_consistent_dag(self):
        # undirected chain A - B - C: valid extensions avoid a new v-structure
        g = CausalGraph(nodes=("A", "B", "C"),
                        edges=(Edge("A", "B", directed=False), Edge("B", "C", directed=False)))
        out = extend_to_dag(g)
        assert is_dag(out)
        # brute force: some fully directed graph with this skeleton and no
        # v-structure must be equivalent to the output
        candidates = []
        for d1 in ((("A", "B"),), (("B", "A"),)):
            for d2 in ((("B", "C"),), (("C", "B"),)):
                cand = CausalGraph(nodes=("A", "B", "C"),
                                   edges=(Edge(*d1[0]), Edge(*d2[0])))
                if is_dag(cand) and not v_structures(cand):
                    candidates.append(cand)
        assert any(markov_equivalent(out, c) for c in candidates)

    def test_v_structure_constraints_respected(self):
        # A -> C <- B fixed, C - D free: D must not become a new collider parent
        g = CausalGraph(nodes=("A", "B", "C", "D"),
                        edges=(Edge("A", "C"), Edge("B", "C"), Edge("C", "D", directed=False)))
        out = extend_to_dag(g)
        assert out.has_edge("C", "D")

    def test_no_extension(self):
        # directed cycle cannot be extended
        g = CausalGraph(nodes=("A", "B"), edges=(Edge("A", "B"), Edge("B", "A")))
        with pytest.raises(NoConsistentExtension):
            extend_to_dag(g)


@st.composite
def pc_skeletons(draw):
    """3-9 sorted names, a random skeleton as adjacency sets, and for each
    non-adjacent pair a random separating set, so that v-structures
    conflict: PC's orientation phase as ``learn_pc`` calls it."""
    names = [f"V{k}" for k in range(draw(st.integers(3, 9)))]
    adj: dict[str, set[str]] = {v: set() for v in names}
    sepsets = {}
    for i, j in itertools.combinations(names, 2):
        if draw(st.booleans()):
            adj[i].add(j)
            adj[j].add(i)
        else:
            s = draw(st.sets(st.sampled_from([v for v in names if v not in (i, j)])))
            sepsets[(i, j)] = sepsets[(j, i)] = tuple(sorted(s))
    return names, adj, sepsets


def extension(extend, pdag):
    """The DAG an extension returns, or the class and message it raises."""
    try:
        return extend(pdag)
    except CpsCausalError as e:
        return type(e), str(e)


class TestOrientationMatchesReference:
    """_pc_orient and extend_to_dag on per-node sets against the scans of
    every name in oracles.reference_pc_orient and reference_extend_to_dag."""

    @given(pc_skeletons())
    @settings(deadline=None)
    def test_random_skeletons(self, skeleton):
        names, adj, sepsets = skeleton
        ds = make_ds({v: [0, 1] for v in names})
        got = _pc_orient(ds, names, {v: set(a) for v, a in adj.items()}, dict(sepsets))
        want = reference_pc_orient(ds, names, {v: set(a) for v, a in adj.items()}, dict(sepsets))
        assert got == want
        assert extension(extend_to_dag, got.graph) == extension(reference_extend_to_dag, want.graph)

    @given(st.data())
    @settings(deadline=None)
    def test_random_pdags(self, data):
        # any mix of directed and undirected edges, directed cycles included
        nodes = tuple(f"V{k}" for k in range(data.draw(st.integers(2, 7))))
        edges = []
        for a, b in itertools.combinations(nodes, 2):
            kind = data.draw(st.sampled_from(("none", "forward", "back", "undirected")))
            if kind != "none":
                edges.append(Edge(*((b, a) if kind == "back" else (a, b)), directed=kind != "undirected"))
        pdag = CausalGraph(nodes=nodes, edges=tuple(edges))
        assert extension(extend_to_dag, pdag) == extension(reference_extend_to_dag, pdag)


class TestHc:
    def test_independent_columns_empty_graph(self):
        rng = np.random.default_rng(22)
        ds = make_ds({"A": rng.integers(0, 2, 10_000).tolist(),
                      "B": rng.integers(0, 2, 10_000).tolist()})
        # oracle: every single-edge graph scores below the empty graph
        empty = CausalGraph(nodes=("A", "B"))
        for e in (Edge("A", "B"), Edge("B", "A")):
            assert score(ds, CausalGraph(nodes=("A", "B"), edges=(e,))) < score(ds, empty)
        assert learn_hc(ds).graph.edges == ()

    def test_strong_pair_gets_one_edge(self):
        rng = np.random.default_rng(23)
        a = rng.integers(0, 2, 10_000)
        flip = rng.random(10_000) < 0.05
        b = np.where(flip, 1 - a, a)
        ds = make_ds({"A": a.tolist(), "B": b.tolist()})
        res = learn_hc(ds)
        assert skeleton(res.graph) == {frozenset("AB")}
        # oracle: exhaustive comparison over the three two-node graphs
        scores = {
            "empty": score(ds, CausalGraph(nodes=("A", "B"))),
            "ab": score(ds, CausalGraph(nodes=("A", "B"), edges=(Edge("A", "B"),))),
            "ba": score(ds, CausalGraph(nodes=("A", "B"), edges=(Edge("B", "A"),))),
        }
        assert max(scores, key=scores.get) in ("ab", "ba")
        assert scores["ab"] == pytest.approx(scores["ba"], abs=1e-9)  # score equivalent

    def test_trace_non_decreasing(self):
        fx = get_fixture("stage1")
        ds = fx.sample(5000, seed=105)
        res = learn_hc(ds)
        assert all(b >= a - 1e-12 for a, b in zip(res.trace, res.trace[1:]))
        assert res.trace[-1] >= score(ds, CausalGraph(nodes=ds.names))

    def test_max_parents_respected(self):
        fx = get_fixture("twostage")
        ds = fx.sample(5000, seed=106)
        res = learn_hc(ds, HcConfig(max_parents=1))
        assert all(len(res.graph.parents(n)) <= 1 for n in res.graph.nodes)

    def test_deterministic(self):
        fx = get_fixture("stage1")
        ds = fx.sample(5000, seed=107)
        assert learn_hc(ds).graph == learn_hc(ds).graph

    @pytest.mark.parametrize("fixture", ["twostage", "stage1", "collider3"])
    def test_plateau_k_only_repeats_the_final_score(self, fixture):
        # a stale iteration changes nothing, so the next one is stale too
        ds = get_fixture(fixture).sample(3000, seed=112)
        for method in ("bic", "k2", "bdeu"):
            base = learn_hc(ds, HcConfig(score_method=method))
            for k in (2, 5):
                got = learn_hc(ds, HcConfig(score_method=method, plateau_k=k))
                assert got.graph == base.graph
                assert got.trace == base.trace + (base.trace[-1],) * (k - 1)

    def test_search_stops_at_the_first_stale_iteration(self):
        ds = get_fixture("twostage").sample(3000, seed=112)
        with mock.patch.object(learning, "_best_move", wraps=learning._best_move) as best_move:
            res = learn_hc(ds, HcConfig(plateau_k=5))
        moves = len(res.trace) - 5
        assert moves > 0 and res.trace[moves - 1:] == (res.trace[-1],) * 6
        assert best_move.call_count == moves + 1


class TestHcMatchesReference:
    """learn_hc's delta cache against the move-by-move rescoring in
    oracles.reference_learn_hc: the same graph, and the same trace under
    ==, float for float."""

    @staticmethod
    def assert_same(ds, cfg):
        got, want = learn_hc(ds, cfg), reference_learn_hc(ds, cfg)
        assert got.graph == want.graph, cfg
        assert got.trace == want.trace, cfg

    @pytest.mark.parametrize("method", ["bic", "k2", "bdeu"])
    @pytest.mark.parametrize("fixture", FIXTURE_NAMES)
    def test_fixtures(self, fixture, method):
        ds = get_fixture(fixture).sample(3000, seed=111)
        for max_parents in (None, 1, 2):
            self.assert_same(ds, HcConfig(score_method=method, max_parents=max_parents))

    @staticmethod
    def random_ds(n_dps, seed):
        rng = np.random.default_rng(seed)
        # columns out of name order, so sorted-name indices differ from column indices
        names = tuple(rng.permutation([f"X{k:02d}" for k in range(n_dps)]).tolist())
        return forward_sample(random_net(names, 3, rng), 1500, seed=seed)

    @pytest.mark.parametrize("n_dps", range(6, 13))
    def test_random_data_all_settings(self, n_dps):
        ds = self.random_ds(n_dps, n_dps)
        for method, max_parents, plateau_k in itertools.product(("bic", "k2", "bdeu"), (None, 1, 2), (1, 3)):
            self.assert_same(ds, HcConfig(score_method=method, plateau_k=plateau_k, max_parents=max_parents))
        self.assert_same(ds, HcConfig(plateau_k=2, max_iter=3))
        self.assert_same(ds, HcConfig(plateau_k=5, max_iter=12))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_data(self, seed):
        # many datasets: a gain summed in another float order shows on a few of them
        ds = self.random_ds(6 + seed % 7, 1000 + seed)
        for method in ("bic", "k2", "bdeu"):
            self.assert_same(ds, HcConfig(score_method=method))

    @staticmethod
    def hc_state(n, edges, own, toggled):
        """learn_hc's search state over nodes 0..n-1: their parent sets from
        ``edges`` (src, dst), each node's ``own`` score and ``toggled``
        scores, and its moves."""
        parents = [{s for s, d in edges if d == v} for v in range(n)]
        return parents, own, toggled, [_moves(parents[d], own[d], toggled[d]) for d in range(n)]

    def test_best_move_tie_break(self):
        # 2 -> 0 -> 1 with every score 0 but these: adding 2 -> 1, removing
        # 2 -> 0 and reversing 0 -> 1 (0.5 for 1 without 0, 1.0 for 0 with 1)
        # each gain 1.5; adding 1 -> 0 gains 1.0 but would close a cycle
        toggled = [{1: 1.0, 2: 1.5}, {0: 0.5, 2: 1.5}, {0: -1.0, 1: -5.0}]
        state = self.hc_state(3, [(2, 0), (0, 1)], [0.0, 0.0, 0.0], toggled)
        assert _best_move(*state) == (1.5, 0, 2, 1)  # the add first
        toggled[1][2] = -1.0
        state = self.hc_state(3, [(2, 0), (0, 1)], [0.0, 0.0, 0.0], toggled)
        assert _best_move(*state) == (1.5, 1, 2, 0)  # then the remove
        toggled[0][2] = 0.25
        state = self.hc_state(3, [(2, 0), (0, 1)], [0.0, 0.0, 0.0], toggled)
        assert _best_move(*state) == (1.5, 2, 0, 1)  # then the reversal
        # adding 2 -> 1 and 1 -> 2 each gain 2.0, but 1 -> 2 would close a cycle
        toggled[1][2], toggled[2][1] = 2.0, 0.0
        state = self.hc_state(3, [(2, 0), (0, 1)], [0.0, 0.0, -2.0], toggled)
        assert _best_move(*state) == (2.0, 0, 2, 1)  # a larger gain wins
        state = self.hc_state(3, [(2, 0), (0, 1)], [2.0, 2.0, 3.0], toggled)
        assert _best_move(*state) is None  # a move must strictly improve the score: adding 2 -> 1 gains 0.0

    def test_reversal_past_another_path_is_illegal(self):
        # 0 -> 1 -> 2 and 0 -> 2: reversing 0 -> 2 would close 0 -> 1 -> 2 -> 0
        toggled = [{2: 0.0}, {0: 0.0, 2: 0.0}, {0: 5.0, 1: 0.0}]
        state = self.hc_state(3, [(0, 1), (1, 2), (0, 2)], [-5.0, 0.0, 0.0], toggled)
        assert _best_move(*state) == (5.0, 1, 0, 2)  # the remove; the reversal would gain 10

    @given(st.data())
    @settings(deadline=None)
    def test_matches_a_scan_of_every_move(self, data):
        # scores from a few values, so that gains tie exactly, on a random
        # DAG; each node's toggle of another may be missing, as past max_parents
        n = data.draw(st.integers(2, 6))
        order = data.draw(st.permutations(range(n)))
        edges = [(order[a], order[b]) for a, b in itertools.combinations(range(n), 2) if data.draw(st.booleans())]
        values = st.sampled_from([-1.0, 0.0, 0.5, 1.5, 2.0])
        parents = [{s for s, d in edges if d == v} for v in range(n)]
        toggled = [{s: data.draw(values) for s in range(n) if s != d and (s in parents[d] or data.draw(st.booleans()))}
                   for d in range(n)]
        own = [data.draw(values) for _ in range(n)]

        def reaches(graph, a, b):
            seen, stack = set(), [a]
            while stack:
                v = stack.pop()
                if v == b:
                    return True
                stack += [w for s, w in graph if s == v and w not in seen]
                seen.update(w for s, w in graph if s == v)
            return False

        want = []
        for s, d in itertools.permutations(range(n), 2):
            if (s, d) in edges:
                want.append((-(toggled[d][s] - own[d]), 1, s, d))
                rest = [e for e in edges if e != (s, d)]
                if d in toggled[s] and not reaches(rest, s, d):
                    want.append((-(((toggled[d][s] - own[d]) + toggled[s][d]) - own[s]), 2, s, d))
            elif s in toggled[d] and not reaches(edges, d, s):
                want.append((-(toggled[d][s] - own[d]), 0, s, d))
        best = min((key for key in want if key[0] < 0), default=None)
        got = _best_move(*self.hc_state(n, edges, own, toggled))
        assert got == (None if best is None else (-best[0], *best[1:]))

    def test_exact_ties(self):
        # A and B are the same column, so A -> B and B -> A gain the same
        # float and the (src, dst) tie-break picks A -> B
        rng = np.random.default_rng(25)
        a = rng.integers(0, 3, 4000)
        c = np.where(rng.random(4000) < 0.1, rng.integers(0, 3, 4000), a)
        ds = make_ds({"C": c.tolist(), "B": a.tolist(), "A": a.tolist()})
        for method in ("bic", "k2", "bdeu"):
            self.assert_same(ds, HcConfig(score_method=method, plateau_k=3))
        assert learn_hc(ds).graph.has_edge("A", "B")


class TestPcMatchesReference:
    """learn_pc's memoized, batched tests against oracles.reference_learn_pc,
    which calls chi_square_ci once per visit of a pair and conditioning set:
    the same graph and the same separating sets."""

    CONFIGS = [PcConfig(alpha=alpha, max_cond_size=max_cond_size)
               for alpha, max_cond_size in itertools.product((0.01, 0.05), (None, 0, 1))]

    @classmethod
    def assert_same(cls, ds):
        for cfg in cls.CONFIGS:
            got, want = learn_pc(ds, cfg), reference_learn_pc(ds, cfg)
            assert got.graph == want.graph, cfg
            assert got.sepsets == want.sepsets, cfg

    @pytest.mark.parametrize("n", [60, 2000, 20_000])
    @pytest.mark.parametrize("fixture", FIXTURE_NAMES)
    def test_fixtures(self, fixture, n):
        self.assert_same(get_fixture(fixture).sample(n, seed=31))

    @pytest.mark.parametrize("n_dps", range(6, 13))
    def test_random_data(self, n_dps):
        self.assert_same(TestHcMatchesReference.random_ds(n_dps, 500 + n_dps))

    @pytest.mark.parametrize("all_but_two", [False, True], ids=["one", "all_but_two"])
    @pytest.mark.parametrize("fixture, kept", [("stage1", ("LIT101", "P101")), ("twostage", ("AIT201", "FIT201")),
                                               ("collider3", ("A", "C"))],
                             ids=["stage1", "twostage", "collider3"])
    def test_constant_dps(self, fixture, kept, all_but_two, monkeypatch):
        # learn_pc tests a constant DP like any other: its statistic is
        # exactly 0, so level 0 drops each of its edges with the set ()
        ds = get_fixture(fixture).sample(300, seed=31)
        constant = [v for v in ds.names if v not in kept] if all_but_two else [kept[0]]
        columns = list(ds.columns)
        for v in constant:
            columns[ds.index(v)] = bytes([ds.cardinality(v) - 1]) * ds.n_records  # a state other than 0
        ds = DiscreteDataset(specs=ds.specs, columns=columns)
        seen = []
        statistic = learning._ci_statistic

        def recording(tally, column, i, j, s):
            stat, dof = statistic(tally, column, i, j, s)
            seen.append((i, j, stat))
            return stat, dof

        monkeypatch.setattr(learning, "_ci_statistic", recording)
        self.assert_same(ds)
        assert all(stat == 0.0 for i, j, stat in seen if {i, j} & set(constant))
        for cfg in self.CONFIGS:
            got = learn_pc(ds, cfg)
            for c in constant:
                assert not any(c in (e.src, e.dst) for e in got.graph.edges), cfg
                assert all(got.sepsets[(c, v)] == () for v in ds.names if v != c), cfg

    @pytest.mark.parametrize("fixture, n", [("twostage", 60), ("twostage", 2000), ("stage1", 20_000)])
    def test_statistics_are_chi_square_ci_s(self, fixture, n, monkeypatch):
        # each statistic and dof learn_pc computes is, bit for bit, the one
        # chi_square_ci gives for the pair in name order
        ds = get_fixture(fixture).sample(n, seed=31)
        seen = []
        statistic = learning._ci_statistic

        def recording(tally, column, i, j, s):
            stat, dof = statistic(tally, column, i, j, s)
            seen.append(((i, j, s), stat, dof))
            return stat, dof

        monkeypatch.setattr(learning, "_ci_statistic", recording)
        learn_pc(ds, PcConfig(alpha=0.05))
        assert seen
        # each test of a pair and a conditioning set runs once
        assert len({key for key, stat, dof in seen}) == len(seen)
        for (i, j, s), stat, dof in seen:
            assert i < j
            res = chi_square_ci(ds, i, j, s)
            assert (res.statistic, res.dof) == (stat, dof), (i, j, s)


class TestCl:
    def test_copy_pair_in_tree(self):
        rng = np.random.default_rng(24)
        a = rng.integers(0, 2, 4000)
        ds = make_ds({"A": a.tolist(), "B": rng.integers(0, 2, 4000).tolist(), "C": a.tolist()})
        tree = learn_cl(ds, ClConfig(root="A"))
        assert tree.has_edge("A", "C")
        # oracle: the A-C tree beats the other two spanning trees on total weight
        weights = {frozenset(p): mutual_information(ds, *sorted(p))
                   for p in itertools.combinations("ABC", 2)}
        tree_weight = sum(weights[frozenset((e.src, e.dst))] for e in tree.edges)
        best = max(
            sum(weights[frozenset(e)] for e in t)
            for t in all_spanning_trees(("A", "B", "C"))
        )
        assert tree_weight == pytest.approx(best, abs=1e-12)

    def test_tree_shape(self):
        fx = get_fixture("twostage")
        ds = fx.sample(3000, seed=108)
        tree = learn_cl(ds, ClConfig(root="LIT101"))
        assert len(tree.edges) == len(ds.names) - 1
        assert is_dag(tree)
        non_root_indegrees = [len(tree.parents(n)) for n in ds.names if n != "LIT101"]
        assert all(d == 1 for d in non_root_indegrees)
        assert tree.parents("LIT101") == ()

    def test_stage6_rooted_at_pump(self):
        fx = get_fixture("stage6")
        ds = fx.sample(20_000, seed=109)
        tree = learn_cl(ds, ClConfig(root="P602"))
        assert [(e.src, e.dst) for e in tree.edges] == [("P602", "FIT601")]

    def test_deterministic(self):
        fx = get_fixture("stage1")
        ds = fx.sample(3000, seed=110)
        cfg = ClConfig(root="MV101")
        assert learn_cl(ds, cfg) == learn_cl(ds, cfg)


class TestClMatchesReference:
    """learn_cl's Prim tree grown from the root against the Kruskal tree
    oriented by breadth-first search in oracles.reference_learn_cl."""

    @pytest.mark.parametrize("n", [20, 60, 500, 5000])
    @pytest.mark.parametrize("fixture", FIXTURE_NAMES)
    def test_fixtures_every_root(self, fixture, n):
        ds = get_fixture(fixture).sample(n, seed=113)
        for root in ds.names:
            assert learn_cl(ds, ClConfig(root)) == reference_learn_cl(ds, ClConfig(root)), root

    @pytest.mark.parametrize("n", [20, 500])
    def test_duplicated_and_constant_columns(self, n):
        # B copies A and D copies C, so their links tie on mutual information;
        # K is constant, so each of its links has mutual information 0
        x, y, z, w = (list(column) for column in get_fixture("twostage").sample(n, seed=114).columns[:4])
        ds = make_ds({"A": x, "B": x, "C": y, "D": y, "E": z, "F": w, "K": [0] * n}, dict.fromkeys("ABCDEFK", 3))
        for root in ds.names:
            assert learn_cl(ds, ClConfig(root)) == reference_learn_cl(ds, ClConfig(root)), root

    def test_tied_links_of_nested_pairs(self):
        # records of four +-1 spins whose couplings A-B and C-D are strong and
        # A-D and B-C weaker (an Ising cycle), each configuration repeated as
        # often as its rounded probability in 1000 records: the counts do not
        # change when A is swapped with B and C with D, so the links A-D and
        # B-C tie exactly, and A-C and B-D are weaker still. The tied links
        # compete for the cut that joins {A, B} to {C, D}, where the sorted
        # pair ("A", "D") comes before ("B", "C") but the reversed pair
        # ("C", "B") before ("D", "A")
        configs = np.array(list(itertools.product((0, 1), repeat=4)))
        spin = 2 * configs - 1
        energy = 1.5 * (spin[:, 0] * spin[:, 1] + spin[:, 2] * spin[:, 3]) \
            + 0.7 * (spin[:, 0] * spin[:, 3] + spin[:, 1] * spin[:, 2])
        weight = np.exp(energy)
        data = np.repeat(configs, np.rint(1000 * weight / weight.sum()).astype(int), axis=0)
        ds = make_ds(dict(zip("ABCD", data.T)), dict.fromkeys("ABCD", 2))
        mi = {pair: mutual_information(ds, *pair) for pair in itertools.combinations("ABCD", 2)}
        assert mi["A", "D"] == mi["B", "C"]
        assert min(mi["A", "B"], mi["C", "D"]) > mi["A", "D"] > max(mi["A", "C"], mi["B", "D"])
        learnt = learn_cl(ds, ClConfig("A"))
        assert {(e.src, e.dst) for e in learnt.edges} == {("A", "B"), ("A", "D"), ("D", "C")}
        for root in ds.names:
            assert learn_cl(ds, ClConfig(root)) == reference_learn_cl(ds, ClConfig(root)), root

    @given(st.data())
    @settings(deadline=None)
    def test_random_small_datasets(self, data):
        # few records and few states, so mutual-information ties are common
        n_dps = data.draw(st.integers(2, 6))
        n = data.draw(st.integers(1, 12))
        cols = {f"V{k}": data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)) for k in range(n_dps)}
        ds = make_ds(cols, dict.fromkeys(cols, 3))
        root = data.draw(st.sampled_from(ds.names))
        assert learn_cl(ds, ClConfig(root)) == reference_learn_cl(ds, ClConfig(root))


def test_structure_recovery_on_stage1(stage1):
    """PC and HC both find the three arcs the domain graph shares with the
    data, plus at most two extras, on 50k sampled records."""
    ds = stage1.sample(50_000, seed=42)
    required = {frozenset(("LIT101", "MV101")), frozenset(("LIT101", "P101")),
                frozenset(("MV101", "FIT101"))}
    for learnt in (learn_pc(ds).graph, learn_hc(ds).graph):
        sk = skeleton(learnt)
        assert required <= sk
        assert len(sk - required) <= 2


def test_domain_vs_learnt_comparison_workflow(stage1):
    """The graph-comparison workflow: every shared arc shows up in the diff
    as common or reversed (orientation of score-equivalent edges is a
    tie-break artifact, so only the adjacency is pinned)."""
    from importlib import resources
    from cpscausal.graph import compare
    from cpscausal.impact import load_domain_graph

    domain = load_domain_graph(
        resources.files("cpscausal").joinpath("data/domains/stage1.graph").read_text())
    ds = stage1.sample(50_000, seed=42)
    learnt = extend_to_dag(learn_pc(ds).graph)
    diff = compare(domain, learnt)
    matched = {frozenset(e) for e in diff.common} | {frozenset(e) for e in diff.reversed}
    assert {frozenset(("LIT101", "P101")), frozenset(("LIT101", "MV101")),
            frozenset(("MV101", "FIT101"))} <= matched
