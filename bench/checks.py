"""Artifact checks, computed apart from the program under test.

Each check either recomputes an artifact from its inputs with code of its
own (counts, BIC, Pearson chi-square with an mpmath p-value, mutual
information, exact posteriors by einsum) or tests a property the method
must have. None compares against a stored copy of earlier output. A failed
check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import hashlib
import json
import string
from itertools import combinations, permutations
from pathlib import Path

import mpmath
import numpy as np

ALPHA = 0.01     # PC's CLI default significance level
THETA = 0.9      # impact's CLI default threshold
_LABELS = string.ascii_letters  # numpy einsum allows 52 subscripts


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def load(path: Path):
    return json.loads(Path(path).read_text())


def check_manifest(path: Path) -> None:
    """The artifact's sha256 matches its manifest."""
    manifest = load(path.with_name(path.name + ".manifest.json"))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    require(manifest["outputs"].get(path.name) == f"sha256:{digest}",
            f"{path.name}: sha256 does not match its manifest")


# --- dataset ------------------------------------------------------------------

class Data:
    """A dataset JSON as a state matrix plus names and cardinalities."""

    def __init__(self, obj: dict):
        self.names = [s["name"] for s in obj["specs"]]
        self.cards = {s["name"]: len(s["states"]) for s in obj["specs"]}
        self.states = {s["name"]: tuple(s["states"]) for s in obj["specs"]}
        self.x = np.asarray(obj["data"], dtype=np.int64)
        self.col = {n: self.x[:, k] for k, n in enumerate(self.names)}
        self.n = self.x.shape[0]

    def counts(self, child: str, parents=()) -> np.ndarray:
        """N(parent configuration, child state), shape (q, r)."""
        r = self.cards[child]
        q, cfg = 1, np.zeros(self.n, dtype=np.int64)
        for p in parents:  # row-major over the parents in the given order
            cfg = cfg * self.cards[p] + self.col[p]
            q *= self.cards[p]
        return np.bincount(cfg * r + self.col[child], minlength=q * r).reshape(q, r)


def check_dataset(csv_path: Path, specs, obj: dict) -> None:
    """Every cell is the state of its CSV cell under the plant's spec."""
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
    raw = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    got = [(s["name"], s["kind"], tuple(s["states"])) for s in obj["specs"]]
    require(got == [(s.name, s.kind, s.states) for s in specs], "dataset specs differ from the plant's")
    x = np.asarray(obj["data"], dtype=np.int64)
    require(x.shape == (raw.shape[0], len(specs)), f"dataset shape {x.shape} != records x DPs")
    for k, spec in enumerate(specs):
        values = raw[:, header.index(spec.name)]
        if spec.kind == "sensor":
            want = np.searchsorted(np.asarray(spec.bin_edges), values, side="right")
        else:
            want = np.full(values.shape, -1)
            for state, code in enumerate(spec.codes):
                want[values == code] = state
            require(bool(np.all(want >= 0)), f"{spec.name}: CSV holds an undeclared code")
        bad = np.flatnonzero(x[:, k] != want)
        require(bad.size == 0, f"{spec.name}: {bad.size} cells differ from the spec, first at record {bad[:1]}")


# --- graphs -------------------------------------------------------------------

def _parents(nodes, edges) -> dict[str, set[str]]:
    pa = {n: set() for n in nodes}
    for s, d in edges:
        pa[d].add(s)
    return pa


def _reaches(pa: dict[str, set[str]], a: str, b: str) -> bool:
    """Whether a directed path runs from a to b (walking parents up from b)."""
    stack, seen = [b], {b}
    while stack:
        v = stack.pop()
        if v == a:
            return True
        for p in pa[v] - seen:
            seen.add(p)
            stack.append(p)
    return False


def _acyclic(nodes, edges) -> bool:
    pa = _parents(nodes, edges)
    indeg = {n: len(pa[n]) for n in nodes}
    ch = {n: [] for n in nodes}
    for s, d in edges:
        ch[s].append(d)
    ready = [n for n in nodes if indeg[n] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for c in ch[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return seen == len(nodes)


def _dag(obj: dict, names) -> list[tuple[str, str]]:
    """Edges of a graph JSON that must be a DAG over exactly ``names``."""
    require(sorted(obj["nodes"]) == sorted(names), "graph nodes differ from the dataset's DPs")
    require(all(e.get("directed", True) for e in obj["edges"]), "graph has undirected edges")
    edges = [(e["src"], e["dst"]) for e in obj["edges"]]
    require(len(set(edges)) == len(edges), "graph repeats an edge")
    require(_acyclic(obj["nodes"], edges), "graph has a directed cycle")
    return edges


def bic(data: Data, child: str, parents) -> float:
    n = data.counts(child, sorted(parents)).astype(np.float64)
    q, r = n.shape
    row = np.broadcast_to(n.sum(axis=1, keepdims=True), n.shape)
    seen = n > 0
    ll = float((n[seen] * np.log(n[seen] / row[seen])).sum())
    return ll - np.log(data.n) / 2.0 * (r - 1) * q


def check_hc(data: Data, graph: dict) -> None:
    """A DAG over the dataset's DPs at a local BIC optimum: no single add,
    remove or reverse move raises BIC by more than 1e-6."""
    edges = _dag(graph, data.names)
    pa = _parents(data.names, edges)
    cache: dict[tuple[str, frozenset], float] = {}

    def fam(child: str, ps) -> float:
        key = (child, frozenset(ps))
        if key not in cache:
            cache[key] = bic(data, child, ps)
        return cache[key]

    for s, d in permutations(data.names, 2):
        if s in pa[d]:
            gain = fam(d, pa[d] - {s}) - fam(d, pa[d])
            require(gain <= 1e-6, f"removing {s}->{d} raises BIC by {gain}")
            pa[d].discard(s)
            cyclic = _reaches(pa, s, d)  # another s ~> d path: d->s would close a cycle
            pa[d].add(s)
            if not cyclic:
                gain += fam(s, pa[s] | {d}) - fam(s, pa[s])
                require(gain <= 1e-6, f"reversing {s}->{d} raises BIC by {gain}")
        elif d not in pa[s] and not _reaches(pa, d, s):
            gain = fam(d, pa[d] | {s}) - fam(d, pa[d])
            require(gain <= 1e-6, f"adding {s}->{d} raises BIC by {gain}")


def pearson_p(data: Data, i: str, j: str) -> float:
    """Marginal Pearson chi-square test of i and j; p-value from mpmath."""
    obs = data.counts(i, (j,)).astype(np.float64)  # (card j, card i)
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / data.n
    seen = expected > 0
    stat = float((np.square(obs[seen] - expected[seen]) / expected[seen]).sum())
    dof = (data.cards[i] - 1) * (data.cards[j] - 1)
    return float(mpmath.gammainc(dof / 2.0, stat / 2.0, mpmath.inf, regularized=True))


def check_pc(data: Data, graph: dict, dag: dict) -> None:
    """Every adjacent pair is marginally dependent at alpha, and the DAG
    that fit used extends the PC output: same skeleton, same directed edges."""
    require(sorted(graph["nodes"]) == sorted(data.names), "graph nodes differ from the dataset's DPs")
    for e in graph["edges"]:
        p = pearson_p(data, e["src"], e["dst"])
        require(p <= ALPHA, f"{e['src']}-{e['dst']} adjacent but marginal p = {p:.3g} > {ALPHA}")
    dag_edges = _dag(dag, data.names)
    skeleton = {frozenset((e["src"], e["dst"])) for e in graph["edges"]}
    require({frozenset(e) for e in dag_edges} == skeleton, "fit's DAG has another skeleton than PC's output")
    directed = {(e["src"], e["dst"]) for e in graph["edges"] if e.get("directed", True)}
    require(directed <= set(dag_edges), "fit's DAG flips an edge PC had oriented")


def mutual_information(data: Data, i: str, j: str) -> float:
    joint = data.counts(i, (j,)).astype(np.float64) / data.n
    outer = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    seen = joint > 0
    return float((joint[seen] * np.log(joint[seen] / outer[seen])).sum())


def max_spanning_tree_weight(names, weight) -> float:
    """Prim's algorithm on the complete graph."""
    inside, total = {names[0]}, 0.0
    while len(inside) < len(names):
        w, v = max((weight[frozenset((u, v))], v) for u in inside for v in names if v not in inside)
        inside.add(v)
        total += w
    return total


def check_cl(data: Data, graph: dict, root: str) -> None:
    """A spanning tree directed away from root whose mutual information
    equals that of a maximum spanning tree, within 1e-9."""
    edges = _dag(graph, data.names)
    pa = _parents(data.names, edges)
    require(not pa[root], f"root {root} has a parent")
    require(all(len(pa[n]) == 1 for n in data.names if n != root), "a non-root node lacks one parent")
    require(all(_reaches(pa, root, n) for n in data.names), "tree does not reach every node from the root")
    weight = {frozenset(p): mutual_information(data, *p) for p in combinations(data.names, 2)}
    got = sum(weight[frozenset(e)] for e in edges)
    best = max_spanning_tree_weight(data.names, weight)
    require(abs(got - best) <= 1e-9, f"tree mutual information {got} != maximum {best}")


def check_same_graph(graph: dict, net: dict) -> None:
    """fit used the learnt DAG unchanged."""
    edges = {(e["src"], e["dst"]) for e in graph["edges"]}
    require(edges == {(e["src"], e["dst"]) for e in net["graph"]["edges"]}, "net's graph is not the learnt graph")


# --- fit ----------------------------------------------------------------------

def check_fit(data: Data, net: dict) -> None:
    """Every CPT row is the count ratio within 1e-12; the uniform rows are
    exactly the parent configurations never seen."""
    edges = _dag(net["graph"], data.names)
    pa = _parents(data.names, edges)
    require(sorted(c["child"] for c in net["cpts"]) == sorted(data.names), "net lacks a CPT")
    for c in net["cpts"]:
        child, parents = c["child"], tuple(c["parents"])
        require(parents == tuple(sorted(pa[child])), f"{child}: CPT parents differ from the graph")
        require(c["parent_cards"] == [data.cards[p] for p in parents], f"{child}: parent cards wrong")
        require(tuple(c["states"]) == data.states[child], f"{child}: states differ from the dataset")
        n = data.counts(child, parents).astype(np.float64)
        table = np.asarray(c["table"], dtype=np.float64)
        require(table.shape == n.shape, f"{child}: CPT shape {table.shape} != {n.shape}")
        row = n.sum(axis=1)
        unseen = np.flatnonzero(row == 0)
        require(sorted(c["uniform_rows"]) == unseen.tolist(), f"{child}: uniform rows are not the unseen configs")
        seen = row > 0
        err = np.abs(table[seen] - n[seen] / row[seen, None]).max(initial=0.0)
        require(err <= 1e-12, f"{child}: CPT differs from the count ratio by {err}")
        require(bool(np.all(table[~seen] == 1.0 / n.shape[1])), f"{child}: unseen rows are not uniform")


# --- impact -------------------------------------------------------------------

class ExactNet:
    """Exact pairwise joints of a net JSON by one einsum over the CPTs of
    an ancestral set."""

    def __init__(self, net: dict):
        self.cpt = {c["child"]: c for c in net["cpts"]}
        self.tensor = {c["child"]: np.asarray(c["table"], dtype=np.float64)
                       .reshape(*c["parent_cards"], len(c["states"])) for c in net["cpts"]}
        self.children = {n: set() for n in self.cpt}
        for n, c in self.cpt.items():
            for p in c["parents"]:
                self.children[p].add(n)

    def ancestral(self, nodes) -> list[str]:
        out, stack = set(nodes), list(nodes)
        while stack:
            for p in self.cpt[stack.pop()]["parents"]:
                if p not in out:
                    out.add(p)
                    stack.append(p)
        return sorted(out)

    def joint(self, a: str, b: str) -> np.ndarray:
        """P(a, b) as a (card a, card b) matrix."""
        scope = self.ancestral((a, b))
        require(len(scope) <= len(_LABELS), "ancestral set too large for einsum labels")
        label = dict(zip(scope, _LABELS))
        operands = [self.tensor[n] for n in scope]
        subs = ["".join(label[v] for v in (*self.cpt[n]["parents"], n)) for n in scope]
        return np.einsum(",".join(subs) + "->" + label[a] + label[b], *operands, optimize="greedy")


def stage_category(targeted, impacted, stage_of) -> str:
    t_span = {stage_of[d] for d in targeted}
    i_span = {stage_of[d] for d in set(targeted) | set(impacted)}
    return f"T{'S' if len(t_span) == 1 else 'M'}I{'S' if len(i_span) == 1 else 'M'}"


def check_impact(net: dict, attacks: list, stage_of: dict, reports: list) -> None:
    """Candidates are the targets' children minus the targets; each finding
    is the exact maximum of P(target=s_k | candidate=s_l) over targets and
    state pairs, within 1e-9; inclusion and category follow from it."""
    exact = ExactNet(net)
    conditional: dict[tuple[str, str], np.ndarray] = {}
    require([r["attack_id"] for r in reports] == [str(a["id"]) for a in attacks], "reports do not match attacks")
    for a, rep in zip(attacks, reports):
        theta = a.get("theta") or THETA
        require(rep["theta"] == theta, f"{a['id']}: theta {rep['theta']} != {theta}")
        hood: dict[str, list[str]] = {}
        for t in sorted(set(a["targeted"])):
            for c in exact.children[t] - set(a["targeted"]):
                hood.setdefault(c, []).append(t)
        require([f["candidate"] for f in rep["findings"]] == sorted(hood),
                f"{a['id']}: candidates are not the targets' children")
        for f in rep["findings"]:
            cand = f["candidate"]
            best = -1.0
            for t in hood[cand]:
                if (t, cand) not in conditional:
                    j = exact.joint(t, cand)
                    with np.errstate(invalid="ignore", divide="ignore"):
                        conditional[(t, cand)] = np.where(j.sum(axis=0) > 0, j / j.sum(axis=0), -1.0)
                best = max(best, float(conditional[(t, cand)].max()))
            require(abs(f["probability"] - best) <= 1e-9,
                    f"{a['id']}/{cand}: probability {f['probability']} != exact maximum {best}")
            pair = conditional[(f["target"], cand)][
                exact.cpt[f["target"]]["states"].index(f["target_state"]),
                exact.cpt[cand]["states"].index(f["candidate_state"])]
            require(abs(pair - best) <= 1e-9, f"{a['id']}/{cand}: reported state pair is not the maximum")
            require(f["included"] == (f["probability"] >= theta), f"{a['id']}/{cand}: wrong inclusion")
        impacted = [f["candidate"] for f in rep["findings"] if f["included"]]
        require(rep["impacted"] == impacted, f"{a['id']}: impacted list differs from included findings")
        require(rep["category"] == stage_category(a["targeted"], impacted, stage_of),
                f"{a['id']}: category differs from the stage map")


# --- compare ------------------------------------------------------------------

def check_compare(left: dict, right: dict, diff: dict) -> None:
    """common, reversed and only_left partition the left edges; common,
    reversed (flipped) and only_right partition the right edges."""
    lhs = {(e["src"], e["dst"]) for e in left["edges"]}
    rhs = {(e["src"], e["dst"]) for e in right["edges"]}
    common, rev, only_l, only_r = ([tuple(e) for e in diff[k]]
                                   for k in ("common", "reversed", "only_left", "only_right"))
    flipped = [(d, s) for s, d in rev]
    for side, parts in ((lhs, common + rev + only_l), (rhs, common + flipped + only_r)):
        require(len(parts) == len(set(parts)) and set(parts) == side, "compare lists do not partition the edges")
    require(not set(only_l) & rhs and not set(only_r) & lhs, "an only_* edge sits in both graphs")
    require(not set(rev) & rhs, "a reversed edge sits in both graphs unreversed")


# --- one pipeline pass ----------------------------------------------------------

def check_all(workload, files, specs) -> None:
    """Every check that applies to the workload's artifacts."""
    for path in (files.dataset, files.graph, files.net, files.impact, files.compare):
        check_manifest(path)
    obj = load(files.dataset)
    check_dataset(files.csv, specs, obj)
    data = Data(obj)
    graph, net = load(files.graph), load(files.net)
    algo = workload.learn_args[1]
    if algo == "hc":
        check_hc(data, graph)
    elif algo == "pc":
        check_pc(data, graph, net["graph"])
    else:
        check_cl(data, graph, workload.learn_args[3])
    if algo != "pc":
        check_same_graph(graph, net)
    check_fit(data, net)
    check_impact(net, load(files.attacks), load(files.stages), load(files.impact))
    check_compare(load(files.domain), graph, load(files.compare))
