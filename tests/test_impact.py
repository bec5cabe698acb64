import json
from importlib import resources

import numpy as np
import pytest

from cpscausal.errors import ParseError, TargetNotInNet, UnknownNode, UnknownStage, UsageError, \
    ZeroProbabilityEvidence
from cpscausal.fixtures import get_fixture
from cpscausal.graph import CausalGraph, Edge
from cpscausal.impact import (
    AttackSpec,
    ImpactConfig,
    classify_attack,
    discover_impact,
    load_attacks,
    load_domain_graph,
    report_to_json,
    stage_from_name,
)
from cpscausal.inference import BayesNet, Cpt, Query, posterior


def data_text(rel: str) -> str:
    return resources.files("cpscausal").joinpath(f"data/{rel}").read_text()


class TestDomainGraph:
    def test_stage1_fixture_file(self):
        g = load_domain_graph(data_text("domains/stage1.graph"))
        assert set(g.nodes) == {"P101", "P102", "LIT101", "MV101", "FIT101"}
        assert len(g.edges) == 4
        assert g.edge("LIT101", "MV101").kind == "control"
        assert g.edge("MV101", "FIT101").kind == "physical"

    def test_stage6_fixture_file(self):
        g = load_domain_graph(data_text("domains/stage6.graph"))
        assert [(e.src, e.dst, e.kind) for e in g.edges] == [("P602", "FIT601", "physical")]

    def test_isolated_nodes(self):
        g = load_domain_graph("node A\nnode B\n")
        assert g.nodes == ("A", "B") and g.edges == ()

    def test_cycles_permitted(self):
        g = load_domain_graph("node A\nnode B\nedge A -> B : control\nedge B -> A : physical\n")
        assert len(g.edges) == 2

    def test_undeclared_node_rejected(self):
        with pytest.raises(UnknownNode):
            load_domain_graph("node A\nedge A -> B : control\n")

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            load_domain_graph("edge A => B\n")

    # str.splitlines breaks at each of these too; only \r\n, \r and \n end a line
    @pytest.mark.parametrize("mark", ["\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_comment_may_hold_characters_that_are_not_line_ends(self, mark):
        g = load_domain_graph(f"node A # x{mark}y z\nnode B\n")
        assert g.nodes == ("A", "B")
        with pytest.raises(ParseError, match="^line 3: "):
            load_domain_graph(f"node A # x{mark}y z\nnode B\nedge A => B\n")

    @pytest.mark.parametrize("line_end", ["\r", "\r\n"])
    def test_cr_and_crlf_line_ends(self, line_end):
        g = load_domain_graph(line_end.join(["# loop", "node A", "node B", "edge A -> B : control", ""]))
        assert g.nodes == ("A", "B") and len(g.edges) == 1
        with pytest.raises(ParseError, match="^line 2: "):
            load_domain_graph(line_end.join(["node A", "edge A => B", ""]))


class TestStageNames:
    def test_convention(self):
        assert stage_from_name("MV101") == "1"
        assert stage_from_name("AIT202") == "2"
        assert stage_from_name("DPIT301") == "3"
        assert stage_from_name("nonsense") is None


class TestClassify:
    STAGES = {n: stage_from_name(n) for n in
              ("MV101 P101 P102 LIT101 FIT101 MV201 P203 AIT202 LIT301 P301 P302 "
               "P402 UV401 FIT401 FIT501 AIT501 PIT501 P401").split()}

    def test_single_target_no_impact(self):
        a = AttackSpec(id="1", targeted=("MV101",))
        assert classify_attack(a, (), self.STAGES) == "TSIS"

    def test_multi_stage_targets_empty_impact(self):
        a = AttackSpec(id="4", targeted=("MV201", "P101", "P102"))
        assert classify_attack(a, (), self.STAGES) == "TMIM"

    def test_single_target_multi_stage_impact(self):
        a = AttackSpec(id="5", targeted=("LIT301",))
        assert classify_attack(a, ("MV201", "P101"), self.STAGES) == "TSIM"

    def test_all_nine_shipped_attacks(self):
        # expected impact sets and categories from the published walkthroughs
        expected = {
            "attack-1": ((), "TSIS"),
            "attack-2": (("LIT101",), "TSIS"),
            "attack-3": ((), "TSIS"),
            "attack-4": ((), "TMIM"),
            "attack-5": (("MV201", "P101"), "TSIM"),
            "attack-6": ((), "TSIS"),
            "attack-7": (("P203",), "TSIS"),
            "attack-8": ((), "TSIS"),
            "attack-9": ((), "TSIS"),
        }
        attacks = load_attacks(data_text("attacks/swat_attacks.json"))
        assert len(attacks) == 9
        for a in attacks:
            impacted, category = expected[a.id]
            stages = {n: stage_from_name(n) for n in set(a.targeted) | set(impacted)}
            assert classify_attack(a, impacted, stages) == category, a.id

    def test_unknown_stage(self):
        a = AttackSpec(id="x", targeted=("MV101",))
        with pytest.raises(UnknownStage):
            classify_attack(a, ("GHOST",), {"MV101": "1"})


class TestDiscoverImpact:
    def test_walkthrough_inclusion_and_exclusion(self, stage1_learnt):
        """The flow sensor clears theta = 0.9 at exactly 0.98; the pump
        tops out at exactly 0.80 and stays excluded."""
        rep = discover_impact(stage1_learnt.net, AttackSpec(id="a1", targeted=("MV101",)),
                              ImpactConfig(theta=0.9), stage_of=stage1_learnt.stage_of)
        by_name = {f.candidate: f for f in rep.findings}
        assert by_name["FIT101"].included
        assert by_name["FIT101"].probability == pytest.approx(0.98, abs=1e-12)
        assert by_name["FIT101"].target_state == "Close"
        assert by_name["FIT101"].candidate_state == "Low"
        assert not by_name["P101"].included
        assert by_name["P101"].probability == pytest.approx(0.80, abs=1e-12)
        assert rep.impacted == ("FIT101",)
        assert rep.category == "TSIS"

    def test_isolated_target_yields_empty(self, twostage):
        rep = discover_impact(twostage.net, AttackSpec(id="a5", targeted=("P205",)),
                              ImpactConfig(), stage_of=twostage.stage_of)
        assert rep.findings == () and rep.impacted == ()

    def test_targeted_never_impacted(self, twostage):
        rep = discover_impact(twostage.net,
                              AttackSpec(id="m", targeted=("LIT101", "MV101", "FIT201")),
                              ImpactConfig(theta=0.5), stage_of=twostage.stage_of)
        assert not set(rep.impacted) & {"LIT101", "MV101", "FIT201"}

    def test_theta_monotonicity(self, twostage):
        attacks = load_attacks(data_text("attacks/twostage.json"))
        for a in attacks:
            sets = [set(discover_impact(twostage.net, a, ImpactConfig(theta=t),
                                        stage_of=twostage.stage_of).impacted)
                    for t in (0.5, 0.9, 0.95)]
            assert sets[2] <= sets[1] <= sets[0], a.id

    def test_probabilities_match_direct_posterior(self, twostage):
        rep = discover_impact(twostage.net, AttackSpec(id="f", targeted=("FIT201",)),
                              ImpactConfig(), stage_of=twostage.stage_of)
        for f in rep.findings:
            t_states = twostage.net.states(f.target)
            c_states = twostage.net.states(f.candidate)
            dist = posterior(twostage.net, Query(
                f.target, {f.candidate: c_states.index(f.candidate_state)}))
            assert f.probability == pytest.approx(float(dist[t_states.index(f.target_state)]), abs=1e-12)

    def test_target_not_in_net(self, stage1_learnt):
        with pytest.raises(TargetNotInNet, match="LIT999"):
            discover_impact(stage1_learnt.net, AttackSpec(id="x", targeted=("LIT999",)))

    def test_undirected_neighbor_rule_sees_parents(self, twostage):
        children = discover_impact(
            twostage.net, AttackSpec(id="x", targeted=("FIT201",)),
            ImpactConfig(theta=0.5, candidate_rule="children"), stage_of=twostage.stage_of)
        both = discover_impact(
            twostage.net, AttackSpec(id="x", targeted=("FIT201",)),
            ImpactConfig(theta=0.5, candidate_rule="undirected_neighbors"),
            stage_of=twostage.stage_of)
        kids = {f.candidate for f in children.findings}
        assert kids == {"AIT201", "AIT202", "AIT203"}
        assert {f.candidate for f in both.findings} == kids | {"P101"}

    def test_zero_probability_candidate_states_skipped(self):
        # B's second state is unreachable; the finding must still appear
        graph = CausalGraph(nodes=("A", "B"), edges=(Edge("A", "B"),))
        net = BayesNet(graph=graph, cpts={
            "A": Cpt("A", (), (), ("s0", "s1"), np.array([[0.3, 0.7]])),
            "B": Cpt("B", ("A",), (2,), ("s0", "s1"), np.array([[1.0, 0.0], [1.0, 0.0]])),
        })
        rep = discover_impact(net, AttackSpec(id="z", targeted=("A",)), ImpactConfig(theta=0.9))
        assert [f.candidate for f in rep.findings] == ["B"]
        assert rep.findings[0].candidate_state == "s0"
        # P(A=s1 | B=s0) = 0.7: below theta
        assert rep.findings[0].probability == pytest.approx(0.7, abs=1e-12)
        assert rep.impacted == ()

    def test_invariant_under_relabeling_uninvolved_nodes(self, stage1_learnt):
        net = stage1_learnt.net
        renamed_graph = CausalGraph(
            nodes=tuple(n if n != "P101" else "ZZZ101" for n in net.graph.nodes),
            edges=tuple(Edge(e.src if e.src != "P101" else "ZZZ101",
                             e.dst if e.dst != "P101" else "ZZZ101", e.kind) for e in net.graph.edges))
        renamed_cpts = {}
        for n, c in net.cpts.items():
            new_name = n if n != "P101" else "ZZZ101"
            renamed_cpts[new_name] = Cpt(
                child=new_name,
                parents=tuple(p if p != "P101" else "ZZZ101" for p in c.parents),
                parent_cards=c.parent_cards, states=c.states, table=c.table)
        renamed = BayesNet(graph=renamed_graph, cpts=renamed_cpts)
        a = AttackSpec(id="a1", targeted=("MV101",))
        rep1 = discover_impact(net, a, ImpactConfig())
        rep2 = discover_impact(renamed, a, ImpactConfig())
        f1 = {f.candidate: f.probability for f in rep1.findings}
        f2 = {f.candidate: f.probability for f in rep2.findings}
        assert f1["FIT101"] == f2["FIT101"]
        assert f1["P101"] == f2["ZZZ101"]

    def test_preconditions_recorded_but_not_conditioned_by_default(self, twostage):
        plain = AttackSpec(id="p", targeted=("FIT201",))
        with_pre = AttackSpec(id="p", targeted=("FIT201",),
                              preconditions={"LIT101": "High"})
        rep_plain = discover_impact(twostage.net, plain, ImpactConfig(),
                                    stage_of=twostage.stage_of)
        rep_pre = discover_impact(twostage.net, with_pre, ImpactConfig(),
                                  stage_of=twostage.stage_of)
        assert [f.probability for f in rep_plain.findings] == \
               [f.probability for f in rep_pre.findings]

    def test_condition_preconditions_changes_evidence(self, twostage):
        a = AttackSpec(id="p", targeted=("FIT201",), preconditions={"LIT101": "High"})
        strict = discover_impact(twostage.net, a,
                                 ImpactConfig(condition_preconditions=True),
                                 stage_of=twostage.stage_of)
        # each probability now matches a posterior that also conditions on LIT101=High
        for f in strict.findings:
            c_states = twostage.net.states(f.candidate)
            t_states = twostage.net.states(f.target)
            dist = posterior(twostage.net, Query(f.target, {
                f.candidate: c_states.index(f.candidate_state), "LIT101": 2}))
            assert f.probability == pytest.approx(float(dist[t_states.index(f.target_state)]), abs=1e-12)

    def test_precondition_overlapping_target_is_dropped_for_its_query(self, twostage):
        # the targeted set may appear in the preconditions; the target's own
        # precondition cannot be evidence when querying that target
        a = AttackSpec(id="p", targeted=("FIT201",),
                       preconditions={"FIT201": "High", "LIT101": "High"})
        rep = discover_impact(twostage.net, a,
                              ImpactConfig(condition_preconditions=True),
                              stage_of=twostage.stage_of)
        assert rep.findings  # no crash, candidates still evaluated

    def test_per_attack_theta_override(self, twostage):
        a = AttackSpec(id="o", targeted=("FIT201",), theta=0.5)
        rep = discover_impact(twostage.net, a, ImpactConfig(theta=0.95),
                              stage_of=twostage.stage_of)
        assert rep.theta == 0.5
        assert set(rep.impacted) == {"AIT201", "AIT202", "AIT203"}

    def test_report_json_shape(self, twostage):
        rep = discover_impact(twostage.net, AttackSpec(id="f", targeted=("FIT201",)),
                              ImpactConfig(), stage_of=twostage.stage_of)
        obj = report_to_json(rep)
        assert obj["attack_id"] == "f"
        assert json.dumps(obj)  # serializable

    def test_report_json_finding_keys(self, twostage):
        rep = discover_impact(twostage.net, AttackSpec(id="f", targeted=("FIT201",)),
                              ImpactConfig(), stage_of=twostage.stage_of)
        obj = report_to_json(rep)
        assert list(obj) == ["attack_id", "theta", "findings", "impacted", "category"]
        assert obj["findings"]
        for f, finding in zip(obj["findings"], rep.findings, strict=True):
            assert list(f) == ["candidate", "target", "target_state", "candidate_state", "probability",
                               "included"]
            assert (f["candidate"], f["target"], f["target_state"], f["candidate_state"], f["probability"],
                    f["included"]) == (finding.candidate, finding.target, finding.target_state,
                                       finding.candidate_state, finding.probability, finding.included)


class TestAttackFile:
    def test_nine_attacks_parse(self):
        attacks = load_attacks(data_text("attacks/swat_attacks.json"))
        ids = [a.id for a in attacks]
        assert ids == [f"attack-{k}" for k in range(1, 10)]
        by_id = {a.id: a for a in attacks}
        assert by_id["attack-4"].targeted == ("MV201", "P101", "P102")
        assert by_id["attack-1"].preconditions == {"LIT101": "High"}

    def test_bad_json(self):
        with pytest.raises(ParseError):
            load_attacks("{not json")
        with pytest.raises(ParseError):
            load_attacks('{"id": "x"}')

    def test_empty_targeted_rejected(self):
        with pytest.raises(ParseError):
            load_attacks('[{"id": "x", "targeted": []}]')

    @pytest.mark.parametrize("targeted", ['"MV101"', '{"MV101": 1}', '["MV101", 101]', "null"])
    def test_targeted_must_be_a_list_of_names(self, targeted):
        # a bare string used to become one target per character
        with pytest.raises(ParseError, match="attack 'x': targeted must be a list of DP names"):
            load_attacks(f'[{{"id": "x", "targeted": {targeted}}}]')

    @pytest.mark.parametrize("pre", ['"ab"', '[["LIT101"]]', '[["LIT101", "Low"]]', '5', 'null', '{"LIT101": 5}',
                                     '{"LIT101": ["Low"]}'])
    def test_preconditions_must_be_a_mapping(self, pre):
        with pytest.raises(ParseError) as err:
            load_attacks(f'[{{"id": "x", "targeted": ["MV101"], "preconditions": {pre}}}]')
        assert str(err.value) == ("attack 'x': preconditions must be an object of DP names to state labels, "
                                  f"got {json.dumps(json.loads(pre))}")


    @pytest.mark.parametrize("record, message", [
        ('{"id": null, "targeted": ["MV101"]}', "attack 3 of the file: id must be a string or an integer, got null"),
        ('{"id": {"n": 1}, "targeted": ["MV101"]}',
         'attack 3 of the file: id must be a string or an integer, got {"n": 1}'),
        ('{"id": true, "targeted": ["MV101"]}', "attack 3 of the file: id must be a string or an integer, got true"),
        ('{"id": 1.5, "targeted": ["MV101"]}', "attack 3 of the file: id must be a string or an integer, got 1.5"),
        ('{"id": "a\\ud800", "targeted": ["MV101"]}',
         r'attack 3 of the file: id "a\\ud800" holds a lone surrogate'),
        ('{"id": "x", "targeted": ["LIT101", "LIT101"]}', "attack 'x': targeted names 'LIT101' more than once"),
        ('{"id": "first", "targeted": ["MV101"]}', "attack 'first': id is used by an earlier attack"),
        ('{"id": 1, "targeted": ["MV101"]}', "attack '1': id is used by an earlier attack"),
        ('{"id": "x", "targeted": ["MV101"], "description": 7}', "attack 'x': description must be a string, got 7"),
        ('{"id": "x", "targeted": ["MV101"], "theta": true}', "attack 'x': theta must be a number, got True"),
        ('{"id": "x", "targeted": ["MV101"], "theta": "high"}', "attack 'x': theta must be a number, got 'high'"),
        ('{"id": "x", "targeted": ["MV101"], "theta": NaN}', r"attack 'x': theta must be in \(0, 1\]"),
    ], ids=["null-id", "object-id", "bool-id", "float-id", "lone-surrogate-id", "repeated-target", "repeated-id",
            "repeated-id-as-integer", "description", "bool-theta", "text-theta", "nan-theta"])
    def test_bad_field_is_named_with_its_attack(self, record, message):
        # the third attack of the file, after two that are read
        with pytest.raises(ParseError, match=f"^{message}$"):
            load_attacks(f'[{{"id": "first", "targeted": ["P101"]}}, {{"id": "1", "targeted": ["P101"]}}, {record}]')

    def test_integer_id_and_integer_theta_are_read(self):
        (attack,) = load_attacks('[{"id": 7, "targeted": ["MV101"], "theta": 1}]')
        assert (attack.id, attack.theta) == ("7", 1)


def test_impact_config_range_errors_are_usage_errors():
    with pytest.raises(UsageError, match="theta"):
        ImpactConfig(theta=0)
    with pytest.raises(UsageError, match="candidate_rule"):
        ImpactConfig(candidate_rule="parents")


def per_state_table(net, a, cfg):
    """The impact definition computed the long way, one single-target
    posterior per candidate state: for each candidate, every
    P(target = s_k | cand = s_l) keyed by (target, s_k label, s_l label)."""
    pairs = {}
    for target in sorted(set(a.targeted)):
        hood = net.graph.children(target) if cfg.candidate_rule == "children" \
            else net.graph.neighbors(target)
        for cand in hood:
            if cand not in a.targeted:
                pairs.setdefault(cand, []).append(target)
    base = {dp: net.states(dp).index(label) for dp, label in a.preconditions.items()} \
        if cfg.condition_preconditions else {}
    out = {}
    for cand, targets in pairs.items():
        table = {}
        for target in targets:
            for s_l, c_label in enumerate(net.states(cand)):
                evidence = {dp: s for dp, s in base.items() if dp != target}
                evidence[cand] = s_l
                try:
                    dist = posterior(net, Query(target, evidence))
                except ZeroProbabilityEvidence:
                    continue
                table.update({(target, t_label, c_label): float(p)
                              for t_label, p in zip(net.states(target), dist)})
        if table:
            out[cand] = table
    return out


@pytest.mark.parametrize("fixture", ["stage1", "twostage"])
@pytest.mark.parametrize("conditioned", [False, True])
@pytest.mark.parametrize("rule", ["children", "undirected_neighbors"])
def test_findings_match_per_state_definition(fixture, conditioned, rule):
    fx = get_fixture(fixture)
    cfg = ImpactConfig(candidate_rule=rule, condition_preconditions=conditioned)
    for a in load_attacks(data_text(f"attacks/{fixture}.json")):
        rep = discover_impact(fx.net, a, cfg, stage_of=fx.stage_of)
        expected = per_state_table(fx.net, a, cfg)
        assert [f.candidate for f in rep.findings] == sorted(expected), a.id
        for f in rep.findings:
            table = expected[f.candidate]
            best = max(table.values())
            assert abs(f.probability - best) <= 1e-12, (a.id, f)
            # pairs within 1e-12 of the maximum tie; the (target, s_k, s_l) key picks one
            tied = [key for key, p in table.items() if p >= best - 1e-12]
            winner = min(tied, key=lambda key: (key[0], fx.net.states(key[0]).index(key[1]),
                                                fx.net.states(f.candidate).index(key[2])))
            assert (f.target, f.target_state, f.candidate_state) == winner, (a.id, f, tied)
            assert f.included == (best >= rep.theta), (a.id, f)


def test_exact_tie_goes_to_smallest_state_pair():
    """In twostage, P(MV101=Close | LIT101=Low) and P(MV101=Open |
    LIT101=Medium) are both 0.85 in the CPTs; computed, they differ in the
    last bit. The smaller (target, s_k, s_l) key wins."""
    fx = get_fixture("twostage")
    a = next(a for a in load_attacks(data_text("attacks/twostage.json")) if a.id == "fx-multi")
    rep = discover_impact(fx.net, a, ImpactConfig(candidate_rule="undirected_neighbors"), stage_of=fx.stage_of)
    f = next(f for f in rep.findings if f.candidate == "LIT101")
    assert (f.target, f.target_state, f.candidate_state) == ("MV101", "Close", "Low")
    assert f.probability == pytest.approx(0.85, abs=1e-12)
    assert not f.included


@pytest.mark.parametrize("v, prior", [(0.85, 0.1), (0.7, 0.6), (0.9, 0.3), (0.7, 0.45), (0.95, 0.2)])
def test_symmetric_cpt_tie_goes_to_smallest_state_pair(v, prior):
    """C -> T with P(T=t0 | C=c0) = P(T=t1 | C=c1) = v in the CPT. Read back
    from the joint the two may differ by an ulp either way; (t0, c0) wins."""
    g = CausalGraph(nodes=("C", "T"), edges=(Edge("C", "T"),))
    net = BayesNet(g, {
        "C": Cpt("C", (), (), ("c0", "c1"), np.array([[prior, 1 - prior]])),
        "T": Cpt("T", ("C",), (2,), ("t0", "t1"), np.array([[v, 1 - v], [1 - v, v]])),
    })
    rep = discover_impact(net, AttackSpec("tie", ("T",)), ImpactConfig(candidate_rule="undirected_neighbors"),
                          stage_of={"C": "1", "T": "1"})
    (f,) = rep.findings
    assert (f.target_state, f.candidate_state) == ("t0", "c0")
    assert f.probability == pytest.approx(v, abs=1e-12)
