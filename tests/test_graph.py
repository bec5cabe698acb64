import itertools

import numpy as np
import pytest

from cpscausal.errors import (
    CyclicGraph,
    DuplicateEdge,
    NodeSetMismatch,
    SelfLoop,
    StillCyclic,
    UnknownNode,
    UsageError,
)
from cpscausal.graph import (
    CONTROL,
    LEARNT,
    PHYSICAL,
    CausalGraph,
    Edge,
    add_edge,
    break_cycles,
    compare,
    d_separated,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_dag,
    markov_equivalent,
    structures,
    topological_order,
)
from oracles import all_dags, dsep_oracle, random_dag, reference_d_separated


def g_of(nodes, *edges, kind=LEARNT):
    return CausalGraph(nodes=tuple(nodes), edges=tuple(Edge(s, d, kind) for s, d in edges))


class TestAddEdge:
    def test_stage1_control_edge(self):
        g = CausalGraph(nodes=("P101", "P102", "LIT101", "MV101", "FIT101"))
        g = add_edge(g, "LIT101", "MV101", CONTROL)
        assert g.has_edge("LIT101", "MV101")
        assert g.edge("LIT101", "MV101").kind == CONTROL

    def test_self_loop(self):
        g = CausalGraph(nodes=("A", "B"))
        with pytest.raises(SelfLoop):
            add_edge(g, "A", "A")

    def test_duplicate(self):
        g = add_edge(CausalGraph(nodes=("A", "B")), "A", "B")
        with pytest.raises(DuplicateEdge):
            add_edge(g, "A", "B")

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            add_edge(CausalGraph(nodes=("A",)), "A", "Z")

    def test_cycles_allowed_transiently(self):
        g = g_of("AB", ("A", "B"), ("B", "A"))
        assert not is_dag(g)


class TestTopology:
    def test_chain(self):
        g = g_of(("x1", "x3", "x6"), ("x1", "x3"), ("x3", "x6"))
        assert is_dag(g)
        assert topological_order(g) == ("x1", "x3", "x6")

    def test_two_cycle(self):
        assert not is_dag(g_of("AB", ("A", "B"), ("B", "A")))

    def test_lexicographic_tie_break(self):
        assert topological_order(CausalGraph(nodes=("B", "A"))) == ("A", "B")

    def test_cyclic_raises(self):
        with pytest.raises(CyclicGraph):
            topological_order(g_of("ABC", ("A", "B"), ("B", "C"), ("C", "A")))


class TestStructures:
    def test_collider(self):
        s = structures(g_of(("x1", "x2", "x4"), ("x1", "x4"), ("x2", "x4")))
        assert s.colliders == (("x4", ("x1", "x2")),)
        assert s.forks == () and s.chains == ()

    def test_fork(self):
        s = structures(g_of(("x2", "x4", "x5"), ("x2", "x4"), ("x2", "x5")))
        assert s.forks == (("x2", ("x4", "x5")),)

    def test_single_edge_has_nothing(self):
        s = structures(g_of("AB", ("A", "B")))
        assert s == ((), (), ())

    def test_chain_listing(self):
        s = structures(g_of("ABC", ("A", "B"), ("B", "C")))
        assert s.chains == (("A", "B", "C"),)


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        g = g_of(("x1", "x3", "x6"), ("x1", "x3"), ("x3", "x6"))
        assert d_separated(g, "x1", "x6", {"x3"})
        assert not d_separated(g, "x1", "x6", set())

    def test_collider_unblocks_when_conditioned(self):
        g = g_of(("x1", "x2", "x4"), ("x1", "x4"), ("x2", "x4"))
        assert d_separated(g, "x1", "x2", set()) is dsep_oracle(g, "x1", "x2", set()) is True
        assert d_separated(g, "x1", "x2", {"x4"}) is dsep_oracle(g, "x1", "x2", {"x4"}) is False

    def test_collider_descendant_unblocks(self):
        g = g_of("ABCD", ("A", "C"), ("B", "C"), ("C", "D"))
        assert not d_separated(g, "A", "B", {"D"})

    def test_isolated_nodes(self):
        assert d_separated(CausalGraph(nodes=("A", "B")), "A", "B", set())

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            d_separated(CausalGraph(nodes=("A", "B")), "A", "Z", set())

    def test_cyclic_rejected(self):
        with pytest.raises(CyclicGraph):
            d_separated(g_of("ABC", ("A", "B"), ("B", "A")), "A", "C", set())

    def test_undirected_edge_rejected(self):
        g = CausalGraph(nodes=("A", "B", "C"), edges=(Edge("A", "B", directed=False), Edge("B", "C")))
        with pytest.raises(CyclicGraph):
            d_separated(g, "A", "C", set())

    @pytest.mark.parametrize("i, j, s", [("A", "A", ()), ("A", "C", ("A",)), ("A", "C", ("B", "C"))])
    def test_bad_query_is_usage_error(self, i, j, s):
        with pytest.raises(UsageError) as info:
            d_separated(g_of("ABC", ("A", "B"), ("B", "C")), i, j, s)
        assert isinstance(info.value, ValueError)

    def test_unknown_conditioning_node(self):
        with pytest.raises(UnknownNode):
            d_separated(g_of("ABC", ("A", "B"), ("B", "C")), "A", "C", {"Z"})

    def test_matches_oracle_on_all_4_node_dags(self):
        names = ("A", "B", "C", "D")
        for g in all_dags(names):
            for i, j in itertools.combinations(names, 2):
                rest = [n for n in names if n not in (i, j)]
                for r in range(len(rest) + 1):
                    for s in itertools.combinations(rest, r):
                        assert d_separated(g, i, j, s) == dsep_oracle(g, i, j, s), \
                            f"{g.edges} {i} {j} {s}"

    def test_matches_moral_graph_reference_on_every_small_dag(self):
        for names in ("AB", "ABC", "ABCD"):
            for g in all_dags(tuple(names)):
                for i, j in itertools.permutations(names, 2):
                    rest = [n for n in names if n not in (i, j)]
                    for s in itertools.chain.from_iterable(
                            itertools.combinations(rest, r) for r in range(len(rest) + 1)):
                        assert d_separated(g, i, j, s) == reference_d_separated(g, i, j, s), (g.edges, i, j, s)

    def test_matches_oracle_on_random_8_node_dags(self):
        rng = np.random.default_rng(2024)
        names = tuple(f"n{k}" for k in range(8))
        for _ in range(60):
            g = random_dag(names, rng)
            i, j = rng.choice(len(names), size=2, replace=False)
            i, j = names[i], names[j]
            rest = [n for n in names if n not in (i, j)]
            s = tuple(n for n in rest if rng.random() < 0.35)
            assert d_separated(g, i, j, s) == dsep_oracle(g, i, j, s)

    def test_matches_moral_graph_reference_on_large_dags(self):
        """Seeded 12- to 40-node DAGs, too large for path enumeration,
        against the moralized ancestral graph. Besides random conditioning
        sets, each graph gets queries between two parents of a collider
        that condition on a descendant of the collider but not on it."""
        rng = np.random.default_rng(8)
        answers = {True: 0, False: 0}
        collider_queries = 0
        for _ in range(120):
            names = tuple(f"n{k}" for k in range(int(rng.integers(12, 41))))
            g = random_dag(names, rng, p=float(rng.uniform(2, 5)) / len(names))
            queries = []
            for _ in range(10):
                i, j = (names[int(k)] for k in rng.choice(len(names), size=2, replace=False))
                queries.append((i, j, {n for n in names if n not in (i, j) and rng.random() < 0.2}))
            for c in names:
                pa, below = g.parents(c), sorted(g.descendants(c))
                if len(pa) < 2 or not below:
                    continue
                i, j = pa[0], pa[-1]
                d = below[int(rng.integers(len(below)))]
                others = {n for n in names if n not in (i, j, c) and rng.random() < 0.1}
                queries.append((i, j, others | {d}))
                collider_queries += 1
            for i, j, s in queries:
                got = d_separated(g, i, j, s)
                assert got == reference_d_separated(g, i, j, s), (g.edges, i, j, sorted(s))
                answers[got] += 1
        assert min(answers.values()) > 100 and collider_queries > 500, (answers, collider_queries)


class TestMarkovEquivalence:
    def test_chain_vs_fork(self):
        chain = g_of("ABC", ("A", "B"), ("B", "C"))
        fork = g_of("ABC", ("B", "A"), ("B", "C"))
        assert markov_equivalent(chain, fork)

    def test_chain_vs_collider(self):
        chain = g_of("ABC", ("A", "B"), ("B", "C"))
        collider = g_of("ABC", ("A", "B"), ("C", "B"))
        # oracle: collider encodes A indep C, chain encodes A indep C given B
        assert dsep_oracle(collider, "A", "C", set()) and not dsep_oracle(chain, "A", "C", set())
        assert not markov_equivalent(chain, collider)

    def test_reflexive(self):
        g = g_of("ABC", ("A", "B"))
        assert markov_equivalent(g, g)

    def test_node_set_mismatch(self):
        with pytest.raises(NodeSetMismatch):
            markov_equivalent(CausalGraph(nodes=("A",)), CausalGraph(nodes=("B",)))

    def test_equivalence_iff_identical_ci_sets_on_3_node_dags(self):
        names = ("A", "B", "C")
        dags = list(all_dags(names))

        def ci_profile(g):
            out = []
            for i, j in itertools.combinations(names, 2):
                rest = [n for n in names if n not in (i, j)]
                for r in range(len(rest) + 1):
                    for s in itertools.combinations(rest, r):
                        out.append(dsep_oracle(g, i, j, s))
            return tuple(out)

        profiles = [ci_profile(g) for g in dags]
        for (g1, p1), (g2, p2) in itertools.combinations(zip(dags, profiles), 2):
            assert markov_equivalent(g1, g2) == (p1 == p2), f"{g1.edges} vs {g2.edges}"


class TestCompare:
    def test_identical(self):
        g = g_of("ABC", ("A", "B"), ("B", "C"))
        diff = compare(g, g)
        assert diff.only_left == diff.only_right == diff.reversed == ()
        assert diff.common == (("A", "B"), ("B", "C"))

    def test_reversed_pair(self):
        diff = compare(g_of("AB", ("A", "B")), g_of("AB", ("B", "A")))
        assert diff.reversed == (("A", "B"),)
        assert diff.common == diff.only_left == diff.only_right == ()

    def test_kind_is_ignored(self):
        left = g_of("AB", ("A", "B"), kind=CONTROL)
        right = g_of("AB", ("A", "B"), kind=LEARNT)
        assert compare(left, right).common == (("A", "B"),)

    def test_antisymmetry_on_random_graphs(self):
        rng = np.random.default_rng(7)
        names = tuple("ABCDE")
        for _ in range(40):
            g1, g2 = random_dag(names, rng), random_dag(names, rng)
            d12, d21 = compare(g1, g2), compare(g2, g1)
            assert d12.only_left == d21.only_right
            assert d12.only_right == d21.only_left
            assert {frozenset(e) for e in d12.reversed} == {frozenset(e) for e in d21.reversed}
            n_cover = 2 * len(d12.common) + 2 * len(d12.reversed) + len(d12.only_left) + len(d12.only_right)
            assert n_cover == len(g1.edges) + len(g2.edges)


class TestBreakCycles:
    def test_explicit_removal(self):
        # the stage-2 learnt graph held a cycle through the two chemical sensors
        g = g_of(("AIT201", "AIT202", "P203"),
                 ("AIT202", "AIT201"), ("AIT201", "P203"), ("P203", "AIT202"))
        res = break_cycles(g, removals=[("AIT202", "AIT201")])
        assert is_dag(res.graph)
        assert res.removed == (("AIT202", "AIT201"),)

    def test_explicit_insufficient(self):
        g = g_of("ABC", ("A", "B"), ("B", "C"), ("C", "A"), ("B", "A"))
        with pytest.raises(StillCyclic):
            break_cycles(g, removals=[("B", "A")])

    def test_acyclic_unchanged(self):
        g = g_of("ABC", ("A", "B"))
        res = break_cycles(g)
        assert res.graph == g and res.removed == ()

    def test_three_cycle_removes_exactly_one(self):
        g = g_of("ABC", ("A", "B"), ("B", "C"), ("C", "A"))
        res = break_cycles(g)
        assert is_dag(res.graph)
        assert len(res.removed) == 1
        # oracle: no empty removal keeps it cyclic, so 1 is the minimum feedback arc set
        assert not is_dag(g)

    def test_heuristic_spares_domain_edges(self):
        g = CausalGraph(
            nodes=("A", "B", "C"),
            edges=(Edge("A", "B", CONTROL), Edge("B", "C", PHYSICAL), Edge("C", "A", LEARNT)))
        res = break_cycles(g)
        assert res.removed == (("C", "A"),)

    def test_heuristic_matches_minimum_on_small_graphs(self):
        # exhaustive minimum feedback arc set on random <=6-node graphs
        rng = np.random.default_rng(11)
        names = tuple("ABCDEF")
        for _ in range(25):
            edges = []
            for s, d in itertools.permutations(names, 2):
                if rng.random() < 0.18 and (d, s) not in edges:
                    edges.append((s, d))
            g = g_of(names, *edges)
            if is_dag(g):
                continue
            res = break_cycles(g)
            assert is_dag(res.graph)
            k = len(res.removed)
            # no smaller removal set may exist
            for size in range(k):
                for combo in itertools.combinations(edges, size):
                    out = g
                    from cpscausal.graph import remove_edge
                    for e in combo:
                        out = remove_edge(out, *e)
                    assert not is_dag(out), f"{combo} beats heuristic {res.removed}"


class TestSerialization:
    def test_json_round_trip(self):
        g = CausalGraph(
            nodes=("P101", "LIT101", "MV101"),
            edges=(Edge("LIT101", "MV101", CONTROL), Edge("LIT101", "P101", CONTROL),
                   Edge("MV101", "P101", LEARNT, directed=False)))
        assert graph_from_json(graph_to_json(g)) == g

    def test_dot_styles(self):
        g = CausalGraph(
            nodes=("A", "B", "C"),
            edges=(Edge("A", "B", CONTROL), Edge("B", "C", PHYSICAL)))
        dot = graph_to_dot(g)
        assert '"A" -> "B" [style=dashed];' in dot
        assert '"B" -> "C" [style=solid];' in dot
