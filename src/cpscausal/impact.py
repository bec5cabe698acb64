"""Attack specifications, taxonomy, and impact discovery over a fitted net.

An attack targets a set of DPs. Impact discovery walks the targeted DPs'
1-hop neighbours in the learnt graph (outgoing edges by default) and asks,
for each neighbour, whether observing some state of the neighbour pins
down some state of the targeted DP with confidence at least theta. The
neighbour joins the impacted set when the maximizing posterior clears the
threshold.

Attacks are classified by how many plant stages the targeted and impacted
DPs span (TSIS / TSIM / TMIS / TMIM). Since the targeted DPs count as
impacted by definition, the impact span is measured over the union of the
two sets.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from math import exp, inf, log
from numbers import Real
from typing import Iterable, Mapping

from .errors import ParseError, TargetNotInNet, UnknownNode, UnknownStage, UnknownState, UnknownVariable, \
    UsageError, ZeroProbabilityEvidence
from .graph import CONTROL, PHYSICAL, CausalGraph, Edge
from .inference import BayesNet, Query, logsumexp, posterior
from .jsontext import refuse_lone_surrogate, split_lines

CHILDREN = "children"
UNDIRECTED = "undirected_neighbors"

_STAGE_RE = re.compile(r"^[A-Za-z]+(\d+)$")

# Probabilities this close are one value computed along two float paths;
# exact ties in hand-written CPTs (0.85 vs 0.8500000000000002) differ by ulps.
_TIE = 1e-12


@dataclass(frozen=True)
class AttackSpec:
    id: str
    targeted: tuple[str, ...]
    preconditions: Mapping[str, str] = field(default_factory=dict)
    description: str = ""
    theta: float | None = None  # per-attack override of the run threshold

    def __post_init__(self):
        if not self.targeted:
            raise ParseError(f"attack {self.id!r}: targeted set must be non-empty")
        repeated = sorted({dp for dp in self.targeted if self.targeted.count(dp) > 1})
        if repeated:
            raise ParseError(f"attack {self.id!r}: targeted names {', '.join(map(repr, repeated))} more than once")
        if not isinstance(self.description, str):
            raise ParseError(f"attack {self.id!r}: description must be a string, got {self.description!r}")
        if self.theta is not None and (isinstance(self.theta, bool) or not isinstance(self.theta, Real)):
            raise ParseError(f"attack {self.id!r}: theta must be a number, got {self.theta!r}")
        if self.theta is not None and not 0 < self.theta <= 1:
            raise ParseError(f"attack {self.id!r}: theta must be in (0, 1]")


@dataclass(frozen=True)
class ImpactConfig:
    theta: float = 0.9
    candidate_rule: str = CHILDREN
    condition_preconditions: bool = False  # experimental: add preconditions as evidence

    def __post_init__(self):
        if not 0 < self.theta <= 1:
            raise UsageError(f"theta must be in (0, 1], got {self.theta}")
        if self.candidate_rule not in (CHILDREN, UNDIRECTED):
            raise UsageError(f"candidate_rule must be {CHILDREN!r} or {UNDIRECTED!r}")


@dataclass(frozen=True)
class CandidateFinding:
    """Best (target state, candidate state) pair for one candidate DP."""

    candidate: str
    target: str
    target_state: str
    candidate_state: str
    probability: float
    included: bool


@dataclass(frozen=True)
class ImpactReport:
    attack_id: str
    theta: float
    findings: tuple[CandidateFinding, ...]
    impacted: tuple[str, ...]
    category: str | None


def stage_from_name(name: str) -> str | None:
    """Stage id from the plant naming convention: the first digit of the
    numeric suffix (MV101 -> 1, AIT202 -> 2). None when underivable."""
    m = _STAGE_RE.match(name)
    return m.group(1)[0] if m else None


def classify_attack(a: AttackSpec, impacted: Iterable[str], stage_of: Mapping[str, str]) -> str:
    """TSIS / TSIM / TMIS / TMIM by stage span.

    The target span counts the targeted DPs' stages; the impact span counts
    the stages of targeted union impacted, because an attack always impacts
    its own targets.
    """
    impacted = tuple(impacted)
    for dp in set(a.targeted) | set(impacted):
        if dp not in stage_of:
            raise UnknownStage(f"no stage recorded for {dp!r}")
    t_span = {stage_of[dp] for dp in a.targeted}
    i_span = {stage_of[dp] for dp in set(a.targeted) | set(impacted)}
    return f"T{'S' if len(t_span) == 1 else 'M'}I{'S' if len(i_span) <= 1 else 'M'}"


def discover_impact(net: BayesNet, a: AttackSpec, cfg: ImpactConfig = ImpactConfig(),
                    stage_of: Mapping[str, str] | None = None) -> ImpactReport:
    """Threshold-based impact discovery on a fitted net.

    For every candidate neighbour v_j of a targeted DP v_i, evaluates
    P(v_i = s_k | v_j = s_l) over all state pairs and keeps the maximizing
    pair; v_j is impacted when that maximum reaches theta. Each pair costs
    one joint posterior P(v_j, v_i | evidence), read row by row. Candidate
    states whose evidence has probability zero are skipped. Ordering is
    deterministic: candidates lexicographic, and probabilities within 1e-12
    of the maximum count as equal, resolved toward the smaller
    (target, s_k, s_l).
    """
    missing = sorted(set(a.targeted) - set(net.graph.node_set))
    if missing:
        raise TargetNotInNet(f"attack {a.id!r}: targets not in the net: {', '.join(missing)}")
    theta = a.theta if a.theta is not None else cfg.theta

    pairs: dict[str, list[str]] = {}
    for target in sorted(set(a.targeted)):
        if cfg.candidate_rule == CHILDREN:
            hood = net.graph.children(target)
        else:
            hood = net.graph.neighbors(target)
        for cand in hood:
            if cand not in a.targeted:
                pairs.setdefault(cand, []).append(target)

    base_evidence: dict[str, int] = {}
    if cfg.condition_preconditions:
        for dp, label in a.preconditions.items():
            if dp not in net.graph.node_set:
                raise UnknownVariable(f"precondition DP {dp!r} not in the net")
            states = net.states(dp)
            if label not in states:
                raise UnknownState(f"attack {a.id!r}: precondition {dp} has no state {label!r}; "
                                   f"choices: {', '.join(states)}")
            base_evidence[dp] = states.index(label)

    findings = []
    for cand in sorted(pairs):
        scored = []  # (probability, target, s_k, s_l)
        for target in pairs[cand]:
            # preconditions may overlap the targeted set and the candidate
            evidence = {dp: s for dp, s in base_evidence.items() if dp not in (target, cand)}
            try:
                joint = posterior(net, Query(target=(cand, target), evidence=evidence))
            except ZeroProbabilityEvidence:
                continue
            # each row is normalized in log space, as posterior normalizes one target
            for s_l, row in enumerate(joint):
                logs = [log(p) if p > 0 else -inf for p in row]
                z = logsumexp(logs)
                if z == -inf:  # cand = s_l is unreachable under the evidence
                    continue
                scored.extend((exp(x - z), target, s_k, s_l) for s_k, x in enumerate(logs))
        if not scored:
            continue
        # maximizing pair: probabilities within _TIE of the maximum are equal,
        # and the smallest (target, s_k, s_l) among them wins
        top = max(r[0] for r in scored)
        p, target, s_k, s_l = min((r for r in scored if r[0] >= top - _TIE), key=lambda r: r[1:])
        findings.append(CandidateFinding(
            candidate=cand,
            target=target,
            target_state=net.states(target)[s_k],
            candidate_state=net.states(cand)[s_l],
            probability=p,
            included=p >= theta,
        ))

    impacted = tuple(f.candidate for f in findings if f.included)
    category = None
    stages = dict(stage_of) if stage_of is not None else {
        dp: st for dp in set(a.targeted) | set(impacted)
        if (st := stage_from_name(dp)) is not None
    }
    try:
        category = classify_attack(a, impacted, stages)
    except UnknownStage:
        if stage_of is not None:
            raise
    return ImpactReport(attack_id=a.id, theta=theta, findings=tuple(findings),
                        impacted=impacted, category=category)


# --- domain-graph spec file ---------------------------------------------------
#
#   # comment
#   node LIT101
#   edge LIT101 -> MV101 : control

_EDGE_RE = re.compile(r"^edge\s+(\S+)\s*->\s*(\S+)\s*:\s*(control|physical)$")
_NODE_RE = re.compile(r"^node\s+(\S+)$")


def load_domain_graph(text: str) -> CausalGraph:
    """Parse the line-oriented domain-graph spec into a typed graph.

    Cycles are permitted here; acyclicity is enforced at fit and inference
    boundaries (see graph.break_cycles).
    """
    nodes: list[str] = []
    edges: list[Edge] = []
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if m := _NODE_RE.match(line):
            nodes.append(m.group(1))
        elif m := _EDGE_RE.match(line):
            src, dst, kind = m.groups()
            for endpoint in (src, dst):
                if endpoint not in nodes:
                    raise UnknownNode(f"line {lineno}: edge references undeclared node {endpoint!r}")
            edges.append(Edge(src, dst, CONTROL if kind == "control" else PHYSICAL))
        else:
            raise ParseError(f"line {lineno}: expected 'node NAME' or 'edge SRC -> DST : control|physical'")
    return CausalGraph(nodes=tuple(nodes), edges=tuple(edges))


# --- attack file ----------------------------------------------------------------

def attacks_from_json(obj: list) -> tuple[AttackSpec, ...]:
    """The attacks of a parsed attack file: an array of objects, each with
    an ``id``, a string or an integer that no other attack has, a
    ``targeted`` list of DP names, optional ``preconditions``, an object of
    DP names to state labels, and the fields :class:`AttackSpec` checks.
    Raises :class:`ParseError` naming the attack, or its place in the file
    when its id is bad, and the field."""
    if not isinstance(obj, list):
        raise ParseError("attack file must be a JSON array of attack objects")
    out, ids = [], set()
    for k, rec in enumerate(obj, start=1):
        try:
            attack_id, targeted = rec["id"], rec["targeted"]
            if isinstance(attack_id, bool) or not isinstance(attack_id, (str, int)):
                raise ParseError(f"attack {k} of the file: id must be a string or an integer, "
                                 f"got {json.dumps(attack_id)}")
            attack_id = str(attack_id)
            refuse_lone_surrogate(f"attack {k} of the file: id", attack_id)
            if attack_id in ids:
                raise ParseError(f"attack {attack_id!r}: id is used by an earlier attack")
            ids.add(attack_id)
            if not (isinstance(targeted, list) and all(isinstance(t, str) for t in targeted)):
                raise ParseError(f"attack {attack_id!r}: targeted must be a list of DP names")
            preconditions = rec.get("preconditions", {})
            if not (isinstance(preconditions, dict) and all(isinstance(v, str) for v in preconditions.values())):
                raise ParseError(f"attack {attack_id!r}: preconditions must be an object of DP names to "
                                 f"state labels, got {json.dumps(preconditions)}")
            out.append(AttackSpec(
                id=attack_id,
                targeted=tuple(targeted),
                preconditions=preconditions,
                description=rec.get("description", ""),
                theta=rec.get("theta"),
            ))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed attack record: {exc}") from None
    return tuple(out)


def load_attacks(text: str) -> tuple[AttackSpec, ...]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"attack file is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer of more digits than Python converts
        raise ParseError(f"attack file holds a number that cannot be read: {exc}") from None
    except RecursionError:
        raise ParseError("attack file nests its arrays or objects too deeply to read") from None
    return attacks_from_json(obj)


def report_to_json(report: ImpactReport) -> dict:
    return {
        "attack_id": report.attack_id,
        "theta": report.theta,
        "findings": [asdict(f) for f in report.findings],  # the fields in the JSON key order
        "impacted": list(report.impacted),
        "category": report.category,
    }
