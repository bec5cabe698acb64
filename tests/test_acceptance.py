"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each criterion pins its tolerance here; nothing is deferred to later
calibration.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction
import numpy as np
import pytest

from cpscausal.estimation import fit_bayes, fit_mle, mutual_information, score
from cpscausal.fixtures import get_fixture
from cpscausal.graph import CausalGraph, Edge, d_separated
from cpscausal.impact import AttackSpec, ImpactConfig, discover_impact, load_attacks
from cpscausal.inference import Query, posterior
from cpscausal.ingest import ACTUATOR, DiscreteDataset, VariableSpec
from cpscausal.learning import ClConfig, learn_cl, learn_hc, learn_pc
from oracles import all_dags, all_paths, all_spanning_trees, brute_force_posterior, path_blocked, \
    random_dag, random_net

from test_impact import data_text


def ok(criterion: int, text: str) -> None:
    print(f"\n[criterion {criterion:02d}] PASS  {text}")


def test_c01_inference_oracle_equivalence():
    """posterior and brute_force_posterior agree within 1e-9 on 100 seeded
    random nets (<= 10 nodes, <= 4 states), in under 60 s."""
    rng = np.random.default_rng(20260811)
    t0 = time.time()
    worst = 0.0
    for trial in range(100):
        n_nodes = int(rng.integers(3, 11))
        net = random_net(tuple(f"n{k}" for k in range(n_nodes)), max_card=4, rng=rng)
        nodes = net.graph.nodes
        for _ in range(3):
            target = nodes[rng.integers(len(nodes))]
            evidence = {n: int(rng.integers(net.cardinality(n)))
                        for n in nodes if n != target and rng.random() < 0.35}
            q = Query(target, evidence)
            ve = posterior(net, q)
            bf = brute_force_posterior(net, q)
            worst = max(worst, float(np.max(np.abs(ve - bf))))
            assert np.max(np.abs(ve - bf)) < 1e-9
    dt = time.time() - t0
    assert dt < 60
    ok(1, f"100 random nets, 300 queries, max |VE - enumeration| = {worst:.2e}, {dt:.1f} s")


def test_c02_d_separation_oracle_equivalence():
    """d_separated matches the path-blocking oracle: exhaustively on every
    DAG with up to 5 nodes (all pairs, all conditioning sets), on 3000
    seeded 6-node DAGs with all pairs and sets, and on 500 random 8-node
    DAGs with random conditioning sets, in under 120 s.

    The full 6-node space (3,781,503 DAGs, about 9e8 queries) cannot fit
    the stated runtime budget; the seeded sample keeps the 6-node coverage
    while honouring it.
    """
    t0 = time.time()
    checked = 0

    def sweep(g, names):
        nonlocal checked
        desc = {n: g.descendants(n) for n in names}
        for i, j in itertools.combinations(names, 2):
            paths = all_paths(g, i, j)
            rest = [n for n in names if n not in (i, j)]
            for r in range(len(rest) + 1):
                for s in itertools.combinations(rest, r):
                    oracle = all(path_blocked(g, p, frozenset(s), desc) for p in paths)
                    assert d_separated(g, i, j, s) == oracle, (g.edges, i, j, s)
                    checked += 1

    n_small = 0
    for size in (2, 3, 4, 5):
        names = tuple(f"v{k}" for k in range(size))
        for g in all_dags(names):
            sweep(g, names)
            n_small += 1

    rng = np.random.default_rng(606)
    names6 = tuple(f"v{k}" for k in range(6))
    for _ in range(3000):
        sweep(random_dag(names6, rng, p=float(rng.uniform(0.15, 0.7))), names6)

    names8 = tuple(f"v{k}" for k in range(8))
    for _ in range(500):
        g = random_dag(names8, rng, p=float(rng.uniform(0.15, 0.6)))
        desc = {n: g.descendants(n) for n in names8}
        for _ in range(6):
            i, j = (names8[int(k)] for k in rng.choice(8, size=2, replace=False))
            s = frozenset(n for n in names8 if n not in (i, j) and rng.random() < 0.3)
            oracle = all(path_blocked(g, p, s, desc) for p in all_paths(g, i, j))
            assert d_separated(g, i, j, s) == oracle
            checked += 1

    dt = time.time() - t0
    assert dt < 120
    ok(2, f"{n_small} exhaustive DAGs (n<=5) + 3000 6-node + 500 8-node DAGs, "
          f"{checked} queries, {dt:.1f} s")


def test_c03_score_equivalence():
    """BIC and BDeu give equal scores (within 1e-9) to the Markov-equivalent
    3-node chain and fork on 20 random datasets."""
    rng = np.random.default_rng(33)
    chain = CausalGraph(nodes=("A", "B", "C"), edges=(Edge("A", "B"), Edge("B", "C")))
    fork = CausalGraph(nodes=("A", "B", "C"), edges=(Edge("B", "A"), Edge("B", "C")))
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(30, 500))
        cards = {"A": int(rng.integers(2, 4)), "B": int(rng.integers(2, 4)), "C": 2}
        specs = tuple(VariableSpec(v, ACTUATOR, tuple(f"s{k}" for k in range(cards[v])))
                      for v in ("A", "B", "C"))
        ds = DiscreteDataset(specs=specs, columns=[rng.integers(0, cards[v], n).tolist() for v in ("A", "B", "C")])
        for method in ("bic", "bdeu"):
            gap = abs(score(ds, chain, method) - score(ds, fork, method))
            worst = max(worst, gap)
            assert gap <= 1e-9
    ok(3, f"20 datasets, max |chain - fork| score gap = {worst:.2e} for BIC and BDeu")


def test_c04_chow_liu_optimality():
    """learn_cl's tree weight equals the brute-force maximum over every
    spanning tree, exactly, on all fixture datasets with <= 6 variables."""
    small = ("stage1", "stage1_learnt", "stage6", "chain3", "fork3", "collider3")
    for name in small:
        fx = get_fixture(name)
        ds = fx.sample(2000, seed=404)
        names = tuple(sorted(ds.names))
        weights = {frozenset(p): mutual_information(ds, *p)
                   for p in itertools.combinations(names, 2)}
        tree = learn_cl(ds, ClConfig(root=names[0]))
        got = math.fsum(sorted(weights[frozenset((e.src, e.dst))] for e in tree.edges))
        best = max(math.fsum(sorted(weights[frozenset(e)] for e in t))
                   for t in all_spanning_trees(names))
        assert got == best, f"{name}: {got} != {best}"
    ok(4, f"tree weight equals exhaustive spanning-tree maximum on {len(small)} fixtures")


def test_c05_structure_recovery():
    """PC and HC both recover the three-arc skeleton overlap {LIT101-MV101,
    LIT101-P101, MV101-FIT101} on 50k sampled stage-1 records, with at most
    2 extra edges, in under 30 s."""
    t0 = time.time()
    ds = get_fixture("stage1").sample(50_000, seed=42)
    required = {frozenset(("LIT101", "MV101")), frozenset(("LIT101", "P101")),
                frozenset(("MV101", "FIT101"))}
    extras = {}
    for label, graph in (("pc", learn_pc(ds).graph), ("hc", learn_hc(ds).graph)):
        sk = {frozenset((e.src, e.dst)) for e in graph.edges}
        assert required <= sk, f"{label} missed {required - sk}"
        extras[label] = len(sk - required)
        assert extras[label] <= 2, f"{label} found {extras[label]} extra edges"
    dt = time.time() - t0
    assert dt < 30
    ok(5, f"three required arcs recovered by pc (+{extras['pc']} extra) and "
          f"hc (+{extras['hc']} extra), {dt:.1f} s")


def test_c06_mle_exactness():
    """fit_mle entries equal exact count ratios, checked in rational
    arithmetic, on 5 hand-built datasets of <= 20 records."""
    datasets = [
        {"A": [0, 0, 1, 0], "B": [1, 0, 1, 1]},
        {"A": [0, 1, 2, 0, 1, 2, 0], "B": [0, 0, 1, 1, 0, 1, 0]},
        {"A": [0] * 19 + [1], "B": [0, 1] * 10},
        {"A": [0, 1, 0, 1, 0, 1], "B": [0, 0, 0, 1, 1, 1]},
        {"A": [1, 1, 0], "B": [0, 1, 1]},
    ]
    for cols in datasets:
        card_a = max(cols["A"]) + 1
        specs = (VariableSpec("A", ACTUATOR, tuple(f"s{k}" for k in range(max(2, card_a)))),
                 VariableSpec("B", ACTUATOR, ("s0", "s1")))
        ds = DiscreteDataset(specs=specs, columns=[cols["A"], cols["B"]])
        g = CausalGraph(nodes=("A", "B"), edges=(Edge("A", "B"),))
        net = fit_mle(ds, g)
        tally = Counter(zip(cols["A"], cols["B"]))
        for pa in range(specs[0].cardinality):
            n_pa = sum(v for (x, _), v in tally.items() if x == pa)
            for c in (0, 1):
                exact = Fraction(tally.get((pa, c), 0), n_pa) if n_pa else Fraction(1, 2)
                assert net.cpts["B"].table[pa][c] == float(exact)
        prior = net.cpts["A"].table[0]
        for s in range(specs[0].cardinality):
            assert prior[s] == float(Fraction(sum(1 for a in cols["A"] if a == s), len(cols["A"])))
    ok(6, "MLE equals exact rational count ratios on 5 hand-built datasets")


def test_c07_impact_walkthrough():
    """On the fixture built so that P(MV101=Close | FIT101=Low) = 0.98 and
    max-state P(MV101 | P101) = 0.80, theta = 0.9 includes the flow sensor
    and excludes the pump."""
    fx = get_fixture("stage1_learnt")
    rep = discover_impact(fx.net, AttackSpec(id="walkthrough", targeted=("MV101",)),
                          ImpactConfig(theta=0.9), stage_of=fx.stage_of)
    by = {f.candidate: f for f in rep.findings}
    assert by["FIT101"].probability == pytest.approx(0.98, abs=1e-12)
    assert by["P101"].probability == pytest.approx(0.80, abs=1e-12)
    assert by["FIT101"].included and not by["P101"].included
    assert rep.impacted == ("FIT101",)
    ok(7, "FIT101 included at 0.98, P101 excluded at 0.80, theta = 0.9")


def test_c08_isolated_target():
    """A targeted DP with no outgoing edge yields an empty impacted set
    under the children candidate rule."""
    fx = get_fixture("twostage")
    assert fx.net.graph.children("P205") == ()
    rep = discover_impact(fx.net, AttackSpec(id="sink", targeted=("P205",)),
                          ImpactConfig(candidate_rule="children"), stage_of=fx.stage_of)
    assert rep.findings == () and rep.impacted == ()
    ok(8, "out-degree-0 target produced zero candidates and empty impact")


def test_c09_theta_monotonicity():
    """impacted(0.95) is a subset of impacted(0.9) is a subset of
    impacted(0.5) across every shipped attack fixture."""
    runs = [
        ("twostage", load_attacks(data_text("attacks/twostage.json"))),
        ("stage1", load_attacks(data_text("attacks/stage1.json"))),
    ]
    strict = 0
    total = 0
    for fixture_name, attacks in runs:
        fx = get_fixture(fixture_name)
        for a in attacks:
            spec = AttackSpec(id=a.id, targeted=a.targeted, preconditions=a.preconditions,
                              description=a.description)  # drop any per-attack theta
            sets = [set(discover_impact(fx.net, spec, ImpactConfig(theta=t),
                                        stage_of=fx.stage_of).impacted)
                    for t in (0.95, 0.9, 0.5)]
            assert sets[0] <= sets[1] <= sets[2], a.id
            strict += (sets[0] < sets[2])
            total += 1
    assert strict >= 1  # the bands are actually exercised
    ok(9, f"{total} attacks monotone over theta in (0.95, 0.9, 0.5); {strict} strictly nested")


def test_c10_end_to_end_determinism(tmp_path, repo_root):
    """Two fresh CLI pipeline runs on the stage1 fixture reproduce the
    committed golden outputs byte-identically."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "regen_golden", repo_root / "scripts" / "regen_golden.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)

    golden = repo_root / "tests" / "golden" / "stage1"
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    regen.pipeline(run_a)
    regen.pipeline(run_b)

    names = sorted(p.name for p in golden.iterdir())
    assert len(names) >= 10  # five artifacts plus a manifest each, and the spec file
    for name in names:
        fresh_a = (run_a / name).read_bytes()
        fresh_b = (run_b / name).read_bytes()
        committed = (golden / name).read_bytes()
        assert fresh_a == fresh_b == committed, f"{name} not byte-identical"
    ok(10, f"{len(names)} pipeline artifacts byte-identical across two runs and the golden copy")


def test_c11_bayes_convergence():
    """fit_bayes(ess=1) and fit_mle differ by < 0.01 max-abs on 10k records
    from the stage-1 fixture."""
    fx = get_fixture("stage1")
    ds = fx.sample(10_000, seed=2026)
    g = fx.net.graph
    mle, bayes = fit_mle(ds, g), fit_bayes(ds, g, ess=1.0)
    worst = max(float(np.max(np.abs(np.subtract(mle.cpts[n].table, bayes.cpts[n].table))))
                for n in g.nodes)
    assert worst < 0.01
    ok(11, f"max |MLE - Bayes(ess=1)| = {worst:.4f} over all CPTs at N = 10,000")
