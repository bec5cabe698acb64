"""The traced run: the CLI pipeline in one process, with spans and counts.

``inproc_pass`` calls the library's public functions in the order the CLI
commands call them, and encodes and decodes JSON with the CLI's own
helpers, so its artifacts are byte-identical to the CLI's. ``Tracer.install``
wraps each function under the name its caller looks it up by, for example
``cpscausal.learning.chi_square_ci`` for PC and ``cpscausal.estimation.counts``
for every scorer. Nothing in the library changes; ``Tracer.remove`` puts
the originals back.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext

import cpscausal.cli as cli
import cpscausal.estimation as estimation
import cpscausal.graph as graph
import cpscausal.impact as impact
import cpscausal.learning as learning
from cpscausal.ingest import DiscreteDataset

import inputs
from pipeline import command_args

# chi_square_ci calls are counted per conditioning-set size: l0 .. l3, then
# l4plus for every larger size.
CHI2_LEVELS = ("l0", "l1", "l2", "l3", "l4plus")


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self.calls[name] += 1
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, owner, attr: str, name: str, key=None) -> None:
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))

        def traced(*args, **kwargs):
            if key is not None:
                self.calls[key(*args, **kwargs)] += 1
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(owner, attr, traced)

    def _count(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def install(self) -> None:
        for attr, name in (("parse_log", "ingest.parse_log"), ("discretize", "ingest.discretize"),
                           ("learn_hc", "learning.learn_hc"), ("learn_pc", "learning.learn_pc"),
                           ("learn_cl", "learning.learn_cl"), ("extend_to_dag", "learning.extend_to_dag"),
                           ("fit_mle", "estimation.fit_mle"), ("compare", "graph.compare"),
                           ("discover_impact", "impact.discover_impact")):
            self._wrap(cli, attr, name)
        self._wrap(learning, "family_score", "estimation.family_score")
        self._wrap(learning, "chi_square_ci", "estimation.chi_square_ci",
                   key=lambda ds, i, j, s=(), **kw:
                   f"estimation.chi_square_ci.calls.{CHI2_LEVELS[min(len(s), 4)]}")
        self._wrap(learning, "mutual_information", "estimation.mutual_information")
        self._wrap(estimation, "counts", "estimation.counts")
        self._wrap(estimation, "topological_order", "graph.topological_order")
        self._wrap(graph, "topological_order", "graph.topological_order")
        self._wrap(impact, "posterior", "inference.posterior")
        self._wrap(inputs, "forward_sample", "simgen.forward_sample")
        self._wrap(inputs, "write_historian_csv", "simgen.write_historian_csv")
        self._wrap(inputs, "load_domain_graph", "graph.load_domain_graph")
        self._count(DiscreteDataset, "index", "ingest.index")

    def remove(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name. Self time is a span's
        duration minus the durations of its direct children."""
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for name, start, end, _ in self.spans:
            total[name] += end - start
            own[name] += end - start
        for name, start, end, parent in self.spans:
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(total), dict(own)


def inproc_pass(workload, seed: int, f, span=lambda name: nullcontext()) -> dict:
    """Setup plus the five pipeline steps in this process; writes the
    artifacts to the paths in ``f`` and returns work counters."""
    args = {cmd: cli.build_parser().parse_args(argv) for cmd, argv in command_args(workload, f).items()}
    inputs.build(workload.plant, seed, f)
    f.dataset.parent.mkdir(parents=True, exist_ok=True)

    log = cli.parse_log(cli._read(str(f.csv)))
    ds = cli.discretize(log, cli.parse_spec_file(cli._read(str(f.spec))))
    with span("ingest.dataset_write"):
        text = cli._dump_json(cli.dataset_to_json(ds))
    f.dataset.write_text(text)
    out = {"dataset_json_bytes": len(text.encode()), "hc_iterations": 0}

    def read_dataset():
        with span("ingest.dataset_read"):
            return cli.dataset_from_json(cli._load_json(str(f.dataset)))

    def read_graph(path):
        with span("graph.graph_read"):
            return cli.graph_from_json(cli._load_json(str(path)))

    a = args["learn"]
    ds = read_dataset()
    if a.algo == "pc":
        learnt = cli.learn_pc(ds, cli.PcConfig(alpha=a.alpha, max_cond_size=a.max_cond_size)).graph
    elif a.algo == "hc":
        res = cli.learn_hc(ds, cli.HcConfig(score_method=a.score or "bic", plateau_k=a.plateau_k,
                                            max_iter=a.max_iter, max_parents=a.max_parents, ess=a.ess))
        learnt, out["hc_iterations"] = res.graph, len(res.trace)
    else:
        learnt = cli.learn_cl(ds, cli.ClConfig(root=a.root))
    f.graph.write_text(cli._dump_json(cli.graph_to_json(learnt)))

    ds, dag = read_dataset(), read_graph(f.graph)
    if not dag.fully_directed:
        dag = cli.extend_to_dag(dag)
    net = cli.fit_mle(ds, dag)
    with span("estimation.net_write"):
        f.net.write_text(cli._dump_json(cli.net_to_json(net)))

    a = args["impact"]
    with span("estimation.net_read"):
        net = cli.net_from_json(cli._load_json(str(f.net)))
    attacks = cli.load_attacks(cli._read(str(f.attacks)))
    cfg = cli.ImpactConfig(theta=a.theta, candidate_rule=a.candidate_rule,
                           condition_preconditions=a.condition_preconditions)
    stage_of = cli._load_json(str(f.stages))
    reports = [cli.discover_impact(net, attack, cfg, stage_of=stage_of) for attack in attacks]
    f.impact.write_text(cli._dump_json([cli.report_to_json(r) for r in reports]))
    out["attacks"] = len(attacks)

    diff = cli.compare(read_graph(f.domain), read_graph(f.graph))
    f.compare.write_text(cli._dump_json({k: [list(e) for e in getattr(diff, k)]
                                         for k in ("common", "reversed", "only_left", "only_right")}))
    return out
