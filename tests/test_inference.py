import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpscausal.errors import (
    InvalidCpt,
    UnknownState,
    UnknownVariable,
    ZeroProbabilityEvidence,
)
from cpscausal.fixtures import get_fixture
from cpscausal.graph import CausalGraph, Edge, d_separated
from cpscausal.inference import BayesNet, Cpt, Query, logsumexp, posterior, sum_left_to_right
from oracles import IncompleteAssignment, StateSpaceTooLarge, brute_force_posterior, joint_prob, random_net

FIXTURES = ("stage1", "stage1_learnt", "stage6", "chain3", "fork3", "collider3", "twostage")


def single_node_net(prior=(0.75, 0.25)) -> BayesNet:
    return BayesNet(
        graph=CausalGraph(nodes=("A",)),
        cpts={"A": Cpt("A", (), (), ("s0", "s1"), np.array([list(prior)]))})


def two_node_net() -> BayesNet:
    graph = CausalGraph(nodes=("A", "B"), edges=(Edge("A", "B"),))
    return BayesNet(graph=graph, cpts={
        "A": Cpt("A", (), (), ("a0", "a1"), np.array([[0.3, 0.7]])),
        "B": Cpt("B", ("A",), (2,), ("b0", "b1"), np.array([[0.9, 0.1], [0.4, 0.6]])),
    })


def deterministic_chain() -> BayesNet:
    graph = CausalGraph(nodes=("A", "B", "C"), edges=(Edge("A", "B"), Edge("B", "C")))
    copy = np.array([[1.0, 0.0], [0.0, 1.0]])
    return BayesNet(graph=graph, cpts={
        "A": Cpt("A", (), (), ("s0", "s1"), np.array([[0.5, 0.5]])),
        "B": Cpt("B", ("A",), (2,), ("s0", "s1"), copy),
        "C": Cpt("C", ("B",), (2,), ("s0", "s1"), copy),
    })


class TestCpt:
    def test_table_is_rows_of_floats_from_any_2d_sequence(self):
        rows = [[0.9, 0.1], [0.25, 0.75]]
        for table in (rows, np.array(rows), tuple(map(tuple, rows)), [np.array(r) for r in rows]):
            cpt = Cpt("B", ("A",), (2,), ("b0", "b1"), table)
            assert cpt.table == ((0.9, 0.1), (0.25, 0.75))
            assert all(type(p) is float for row in cpt.table for p in row)
        assert Cpt("B", ("A",), (2,), ("b0", "b1"), [[1, 0], [0, 1]]).table == ((1.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("table, message", [
        ([0.5, 0.5], "B: a CPT table must be a sequence of rows"),
        ([["0.5", "0.5"], [0.5, 0.5]], "B: CPT entries must be numbers"),
        ([[0.5, 0.5], [1.0]], "B: CPT rows have 1 to 2 entries"),
        ([[0.5, 0.5]], r"B: CPT shape \(1, 2\) != \(2, 2\)"),
        ([], r"B: CPT shape \(0,\) != \(2, 2\)"),
        ([[1.5, -0.5], [0.5, 0.5]], r"B: CPT entries outside \[0, 1\]"),
        ([[float("nan"), 1.0], [0.5, 0.5]], r"B: CPT entries outside \[0, 1\]"),
        ([[0.5, 0.6], [0.5, 0.5]], "B: CPT rows must sum to 1"),
    ], ids=["flat", "text", "ragged", "rows", "empty", "range", "nan", "sum"])
    def test_malformed_table_is_refused(self, table, message):
        with pytest.raises(InvalidCpt, match=f"^{message}$"):
            Cpt("B", ("A",), (2,), ("b0", "b1"), table)


class TestJointProb:
    def test_single_node(self):
        assert joint_prob(single_node_net(), {"A": 0}) == pytest.approx(0.75)

    def test_sums_to_one(self):
        fx = get_fixture("stage1")
        total = 0.0
        cards = [fx.net.cardinality(n) for n in fx.net.graph.nodes]
        for assign in itertools.product(*(range(c) for c in cards)):
            total += joint_prob(fx.net, dict(zip(fx.net.graph.nodes, assign)))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_hand_multiplied_stage1(self):
        fx = get_fixture("stage1")
        # LIT101=Medium, MV101=Open, P101=On, P102=Off, FIT101=High
        assign = {"LIT101": 1, "MV101": 1, "P101": 1, "P102": 0, "FIT101": 1}
        expected = 0.75 * 0.85 * 0.85 * 0.75 * 0.98
        assert joint_prob(fx.net, assign) == pytest.approx(expected, rel=1e-12)

    def test_incomplete_assignment(self):
        fx = get_fixture("stage6")
        with pytest.raises(IncompleteAssignment):
            joint_prob(fx.net, {"P602": 0})
        with pytest.raises(IncompleteAssignment):
            joint_prob(fx.net, {"P602": 0, "FIT601": 0, "GHOST": 1})

    def test_unknown_state(self):
        fx = get_fixture("stage6")
        with pytest.raises(UnknownState):
            joint_prob(fx.net, {"P602": 5, "FIT601": 0})


class TestPosterior:
    def test_root_marginal_is_prior(self):
        assert posterior(single_node_net(), Query("A")) == pytest.approx([0.75, 0.25])

    def test_two_node_bayes_by_hand(self):
        net = two_node_net()
        # P(A | B=0) = P(B=0 | A) P(A) / P(B=0)
        pb0 = 0.3 * 0.9 + 0.7 * 0.4
        expected = [0.3 * 0.9 / pb0, 0.7 * 0.4 / pb0]
        assert posterior(net, Query("A", {"B": 0})) == pytest.approx(expected, rel=1e-12)

    def test_stage1_pump_given_low_tank(self):
        fx = get_fixture("stage1")
        # the Bayes right-hand side evaluated from the fixture CPTs:
        # P(P101=On | LIT101=Low) = P(LIT101=Low | P101=On) P(P101=On) / P(LIT101=Low)
        p_on = 0.05 * 0.02 + 0.75 * 0.85 + 0.20 * 0.32
        p_low_given_on = (0.05 * 0.02) / p_on
        expected = p_low_given_on * p_on / 0.05
        got = posterior(fx.net, Query("P101", {"LIT101": 0}))[1]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_deterministic_chain_forces_ancestor(self):
        net = deterministic_chain()
        assert posterior(net, Query("A", {"C": 1})) == pytest.approx([0.0, 1.0])

    def test_zero_probability_evidence(self):
        net = deterministic_chain()
        # A=0 with C=1 is impossible under the copy CPTs
        with pytest.raises(ZeroProbabilityEvidence):
            posterior(net, Query("B", {"A": 0, "C": 1}))

    def test_unknown_variable_and_state(self):
        net = two_node_net()
        with pytest.raises(UnknownVariable):
            posterior(net, Query("Z"))
        with pytest.raises(UnknownVariable):
            posterior(net, Query("A", {"Z": 0}))
        with pytest.raises(UnknownState):
            posterior(net, Query("A", {"B": 9}))

    def test_normalized(self):
        fx = get_fixture("twostage")
        dist = posterior(fx.net, Query("LIT101", {"P205": 1, "FIT101": 0}))
        assert sum(dist) == pytest.approx(1.0, abs=1e-9)

    def test_tiny_evidence_survives_in_log_space(self):
        # a 70-node copy chain with flip probability 1e-6 and alternating
        # evidence: P(evidence) is about 1e-414, far below the float range
        eps = 1e-6
        names = tuple(f"X{k:02d}" for k in range(70))
        flip = np.array([[1 - eps, eps], [eps, 1 - eps]])
        cpts = {names[0]: Cpt(names[0], (), (), ("s0", "s1"), np.array([[0.5, 0.5]]))}
        for parent, child in zip(names, names[1:]):
            cpts[child] = Cpt(child, (parent,), (2,), ("s0", "s1"), flip)
        graph = CausalGraph(nodes=names, edges=tuple(Edge(a, b) for a, b in zip(names, names[1:])))
        evidence = {n: k % 2 for k, n in enumerate(names) if k > 0}
        got = posterior(BayesNet(graph=graph, cpts=cpts), Query(names[0], evidence))
        assert got == pytest.approx([eps, 1 - eps], rel=1e-9)

    @pytest.mark.parametrize("target, root_state", [("R", None), ("C00", None), ("C00", 2)])
    def test_root_with_seventy_observed_children(self, target, root_state):
        rng = np.random.default_rng(41)
        kids = tuple(f"C{k:02d}" for k in range(70))
        prior = np.array([[0.2, 0.3, 0.5]])
        tables = {c: rng.dirichlet((1.0, 1.0), size=3) for c in kids}
        cpts = {"R": Cpt("R", (), (), ("r0", "r1", "r2"), prior)}
        cpts.update({c: Cpt(c, ("R",), (3,), ("s0", "s1"), tables[c]) for c in kids})
        net = BayesNet(graph=CausalGraph(nodes=("R",) + kids, edges=tuple(Edge("R", c) for c in kids)),
                       cpts=cpts)
        states = {c: int(rng.integers(2)) for c in kids}
        evidence = {c: states[c] for c in kids if c != target}
        log_r = np.log(prior[0]) + sum(np.log(tables[c][:, s]) for c, s in evidence.items())
        p_r = np.exp(log_r - np.logaddexp.reduce(log_r))
        if root_state is not None:  # every family but the target's is fully observed
            evidence["R"] = root_state
            p_r = np.eye(3)[root_state]
        expected = p_r if target == "R" else p_r @ tables[target]
        got = posterior(net, Query(target, evidence))
        assert np.max(np.abs(got - expected)) < 1e-12


class TestBruteForce:
    def test_uniform_net_uniform_posterior(self):
        net = two_node_net()
        uniform = BayesNet(graph=net.graph, cpts={
            "A": Cpt("A", (), (), ("a0", "a1"), np.array([[0.5, 0.5]])),
            "B": Cpt("B", ("A",), (2,), ("b0", "b1"), np.array([[0.5, 0.5], [0.5, 0.5]])),
        })
        assert brute_force_posterior(uniform, Query("A", {"B": 1})) == pytest.approx([0.5, 0.5])

    def test_deterministic_chain(self):
        net = deterministic_chain()
        assert brute_force_posterior(net, Query("A", {"C": 1})) == pytest.approx([0.0, 1.0])

    def test_state_space_cap(self):
        rng = np.random.default_rng(31)
        net = random_net(tuple(f"n{k}" for k in range(25)), max_card=4, rng=rng)
        with pytest.raises(StateSpaceTooLarge):
            brute_force_posterior(net, Query("n0"))

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_matches_posterior_on_fixtures(self, fixture):
        fx = get_fixture(fixture)
        net = fx.net
        nodes = net.graph.nodes
        rng = np.random.default_rng(hash(fixture) % 2**32)
        for _ in range(10):
            target = nodes[rng.integers(len(nodes))]
            evidence = {}
            for n in nodes:
                if n != target and rng.random() < 0.4:
                    evidence[n] = int(rng.integers(net.cardinality(n)))
            q = Query(target, evidence)
            try:
                ve = posterior(net, q)
            except ZeroProbabilityEvidence:
                with pytest.raises(ZeroProbabilityEvidence):
                    brute_force_posterior(net, q)
                continue
            bf = brute_force_posterior(net, q)
            assert np.max(np.abs(ve - bf)) < 1e-9


def brute_force_joint(net: BayesNet, targets: tuple[str, ...], evidence: dict) -> np.ndarray:
    """P(targets | evidence) by the chain rule over single-target oracle calls."""
    first = brute_force_posterior(net, Query(targets[0], evidence))
    if len(targets) == 1:
        return first
    rows = [p * brute_force_joint(net, targets[1:], {**evidence, targets[0]: s}) if p > 0
            else np.zeros([net.cardinality(t) for t in targets[1:]])
            for s, p in enumerate(first)]
    return np.stack(rows)


class TestJointTargets:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_matches_brute_force_joint(self, fixture):
        net = get_fixture(fixture).net
        nodes = net.graph.nodes
        rng = np.random.default_rng(sum(map(ord, fixture)))
        for _ in range(10):
            size = min(len(nodes), int(rng.integers(2, 4)))
            targets = tuple(nodes[k] for k in rng.permutation(len(nodes))[:size])
            evidence = {n: int(rng.integers(net.cardinality(n)))
                        for n in nodes if n not in targets and rng.random() < 0.4}
            q = Query(targets, evidence)
            try:
                joint = posterior(net, q)
            except ZeroProbabilityEvidence:
                with pytest.raises(ZeroProbabilityEvidence):
                    brute_force_posterior(net, Query(targets[0], evidence))
                continue
            joint = np.array(joint)
            assert joint.shape == tuple(net.cardinality(t) for t in targets)
            assert np.max(np.abs(joint - brute_force_joint(net, targets, evidence))) < 1e-9
            marginal = joint.sum(axis=tuple(range(1, size)))
            assert np.max(np.abs(marginal - posterior(net, Query(targets[0], evidence)))) < 1e-9

    def test_repeated_or_observed_target_rejected(self):
        net = two_node_net()
        with pytest.raises(UnknownVariable):
            posterior(net, Query(("A", "A")))
        with pytest.raises(UnknownVariable):
            posterior(net, Query(("A", "B"), {"B": 0}))
        with pytest.raises(UnknownVariable):
            posterior(net, Query(()))


class TestDSeparationConsistency:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_dsep_implies_posterior_invariance(self, fixture):
        """The probabilistic counterpart of d-separation: conditioning on a
        d-separated variable never moves the posterior."""
        fx = get_fixture(fixture)
        net = fx.net
        nodes = net.graph.nodes
        checked = 0
        for i, j in itertools.permutations(nodes, 2):
            rest = [n for n in nodes if n not in (i, j)]
            for size in range(min(2, len(rest)) + 1):
                for s in itertools.combinations(rest[:6], size):
                    if not d_separated(net.graph, i, j, s):
                        continue
                    for s_assign in itertools.product(*(range(net.cardinality(v)) for v in s)):
                        base_ev = dict(zip(s, s_assign))
                        try:
                            base = posterior(net, Query(i, base_ev))
                        except ZeroProbabilityEvidence:
                            continue
                        for js in range(net.cardinality(j)):
                            try:
                                cond = posterior(net, Query(i, {**base_ev, j: js}))
                            except ZeroProbabilityEvidence:
                                continue
                            assert np.max(np.abs(np.subtract(base, cond))) < 1e-9
                            checked += 1
        # every fixture beyond the 2-node one has d-separations to exercise
        assert checked > 0 or len(nodes) == 2


# CPT cells: exact zeros, entries near 1e-300, and ordinary probabilities
_CELLS = st.sampled_from([0.0, 1e-300, 3e-299]) | st.floats(0.01, 1.0)
# below the smallest normal float a result has no relative precision left to compare
_ABS_TOL = sys.float_info.min * 1e-12


@st.composite
def _nets_and_queries(draw):
    """A net of 2 to 5 DPs of 2 or 3 states and up to two parents each,
    whose CPT rows mix exact zeros, entries near 1e-300 and ordinary
    probabilities, with one or two targets and any evidence on the rest."""
    names = tuple(f"V{k}" for k in range(draw(st.integers(2, 5))))
    card = {v: draw(st.integers(2, 3)) for v in names}
    edges = tuple(Edge(p, child) for k, child in enumerate(names)
                  for p in draw(st.lists(st.sampled_from(names[:k]), unique=True, max_size=2) if k else st.just([])))
    graph = CausalGraph(nodes=names, edges=edges)
    cpts = {}
    for v in names:
        parents = tuple(sorted(graph.parents(v)))
        parent_cards = tuple(card[p] for p in parents)
        rows = []
        for _ in range(math.prod(parent_cards)):
            row = draw(st.lists(_CELLS, min_size=card[v] - 1, max_size=card[v] - 1))
            row.insert(draw(st.integers(0, card[v] - 1)), draw(st.floats(0.01, 1.0)))
            rows.append([p / sum(row) for p in row])
        cpts[v] = Cpt(v, parents, parent_cards, tuple(f"s{s}" for s in range(card[v])), rows)
    targets = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)))
    evidence = {v: draw(st.integers(0, card[v] - 1)) for v in names if v not in targets and draw(st.booleans())}
    return BayesNet(graph=graph, cpts=cpts), targets, evidence


@given(case=_nets_and_queries())
@settings(deadline=None)
def test_posterior_matches_brute_force_with_zeros_and_tiny_entries(case):
    net, targets, evidence = case
    q = Query(targets[0] if len(targets) == 1 else targets, evidence)
    try:
        expected = brute_force_joint(net, targets, evidence)
    except ZeroProbabilityEvidence:
        # never a ValueError from the log of a zero
        with pytest.raises(ZeroProbabilityEvidence):
            posterior(net, q)
        return
    got = np.array(posterior(net, q))
    assert got.shape == expected.shape
    for a, b in zip(got.ravel().tolist(), expected.ravel().tolist()):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=_ABS_TOL), (a, b)


def test_logsumexp_adds_left_to_right():
    # 1 + 1e-16 rounds to 1, twice; Python 3.12's compensated sum gives 1 + 2e-16
    assert logsumexp([0.0, math.log(1e-16), math.log(1e-16)]) == 0.0
    assert sum_left_to_right([1.0, 1e-16, 1e-16]) == 1.0
    assert sum_left_to_right([1e-16, 1e-16, 1.0]) == 1.0000000000000002
