"""Command-line pipeline: sample -> discretize -> learn -> fit -> infer/impact.

Every command validates its inputs, writes artifacts atomically (temp file
plus rename), and drops a ``<artifact>.manifest.json`` next to each output
recording the command, inputs, configuration, seed, tool version, and
output digests. Exit codes: 0 success, 2 usage error, 3 data error,
4 model error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CpsCausalError, DataError, ParseError, UsageError
from .estimation import fit_bayes, fit_mle, net_from_json, net_to_json
from .fixtures import FIXTURE_NAMES, get_fixture
from .graph import compare, graph_from_json, graph_to_dot, graph_to_json
from .impact import ImpactConfig, discover_impact, load_attacks, report_to_json
from .inference import Query, posterior
from .ingest import (
    dataset_from_json,  # the dict path, which bench/tracing.py reads through this module
    dataset_from_text,
    dataset_to_json,
    discretize,
    parse_log,
    parse_spec_file,
    format_spec_file,
    records_json,
)
from .learning import ClConfig, HcConfig, PcConfig, extend_to_dag, learn_cl, learn_hc, learn_pc
from .simgen import forward_sample, sample_with_clamp, write_historian_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_MODEL = 4


def _dump_json(obj) -> str:
    """Artifact text: ``json.dumps(obj, indent=2)``, except that a 2-D
    integer array, such as a dataset's records, gets one row per line."""
    return _json_text(obj, "\n") + "\n"


def _json_text(obj, newline: str) -> str:
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        return "{" + inner + ("," + inner).join(
            f"{json.dumps(str(key))}: {_json_text(value, inner)}" for key, value in obj.items()) + newline + "}"
    if isinstance(obj, list) and obj:
        return "[" + inner + ("," + inner).join(_json_text(value, inner) for value in obj) + newline + "]"
    if isinstance(obj, np.ndarray) and len(obj):
        return "[" + inner + records_json(obj, ("," + inner).encode()).decode() + newline + "]"
    return json.dumps(obj)


def _atomic_write(path: Path, text: str) -> str:
    """Write text via temp file + rename; returns the content's sha256."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return hashlib.sha256(text.encode()).hexdigest()


def _write_with_manifest(path: Path, text: str, command: str, inputs: dict, config: dict,
                         seed: int | None = None) -> None:
    digest = _atomic_write(path, text)
    manifest = {
        "command": command,
        "version": __version__,
        "inputs": inputs,
        "config": config,
        "seed": seed,
        "outputs": {path.name: f"sha256:{digest}"},
    }
    _atomic_write(path.with_name(path.name + ".manifest.json"), _dump_json(manifest))


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _load_json(path: str, decode=json.loads):
    try:
        return decode(_read(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None


def _parse_assignments(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in text.split(","):
        key, sep, val = item.partition("=")
        if not sep or not key.strip() or not val.strip():
            raise UsageError(f"bad assignment {item!r}; expected NAME=STATE[,NAME=STATE...]")
        out[key.strip()] = val.strip()
    return out


def cmd_sample(args) -> int:
    if bool(args.fixture) == bool(args.net):
        raise UsageError("give exactly one of --fixture or --net")
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    clamp_labels = _parse_assignments(args.clamp) if args.clamp else {}

    if args.fixture:
        fixture = get_fixture(args.fixture)
        net, specs = fixture.net, fixture.specs
    else:
        net = net_from_json(_load_json(args.net))
        specs = None

    clamp = {}
    for name, label in clamp_labels.items():
        states = net.states(name)
        if label not in states:
            raise UsageError(f"{name} has no state {label!r}; choices: {', '.join(states)}")
        clamp[name] = states.index(label)

    ds = sample_with_clamp(net, args.n, args.seed, clamp=clamp, specs=specs) if clamp \
        else forward_sample(net, args.n, args.seed, specs=specs)
    csv_text = write_historian_csv(ds)
    config = {
        "fixture": args.fixture,
        "n": args.n,
        "clamp": clamp_labels,
    }
    inputs = {"net": Path(args.net).name} if args.net else {}
    _write_with_manifest(Path(args.out), csv_text, "sample", inputs, config, seed=args.seed)
    if args.spec_out:
        _write_with_manifest(Path(args.spec_out), format_spec_file(ds.specs),
                             "sample", inputs, config, seed=args.seed)
    print(f"wrote {args.n} records to {args.out}")
    return EXIT_OK


def cmd_discretize(args) -> int:
    log = parse_log(_read(args.input))
    specs = parse_spec_file(_read(args.spec))
    ds = discretize(log, specs)
    _write_with_manifest(
        Path(args.out), _dump_json(dataset_to_json(ds)), "discretize",
        {"input": Path(args.input).name, "spec": Path(args.spec).name}, {})
    print(f"discretized {ds.n_records} records x {len(ds.specs)} variables to {args.out}")
    return EXIT_OK


def cmd_learn(args) -> int:
    ds = _load_json(args.dataset, dataset_from_text)
    score = args.score
    if args.algo == "pc":
        if score not in (None, "chi2"):
            raise UsageError("pc uses the chi2 independence test; --score must be chi2")
        cfg = PcConfig(alpha=args.alpha, max_cond_size=args.max_cond_size)
        graph = learn_pc(ds, cfg).graph
    elif args.algo == "hc":
        if score is None:
            score = "bic"
        if score == "chi2":
            raise UsageError("hc needs a decomposable score: bic, k2, or bdeu")
        cfg = HcConfig(score_method=score, plateau_k=args.plateau_k, max_iter=args.max_iter,
                       max_parents=args.max_parents, ess=args.ess)
        graph = learn_hc(ds, cfg).graph
    else:
        if score is not None:
            raise UsageError("cl is scored by mutual information; drop --score")
        if not args.root:
            raise UsageError("cl needs --root")
        graph = learn_cl(ds, ClConfig(root=args.root))
    config = {
        "algo": args.algo, "score": score, "alpha": args.alpha, "root": args.root,
        "ess": args.ess, "max_cond_size": args.max_cond_size, "max_iter": args.max_iter,
        "plateau_k": args.plateau_k, "max_parents": args.max_parents,
    }
    _write_with_manifest(Path(args.out), _dump_json(graph_to_json(graph)), "learn",
                         {"dataset": Path(args.dataset).name}, config)
    n_und = sum(1 for e in graph.edges if not e.directed)
    print(f"learnt {len(graph.edges)} edges ({n_und} undirected) to {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    ds = _load_json(args.dataset, dataset_from_text)
    graph = graph_from_json(_load_json(args.graph))
    if not graph.fully_directed:
        graph = extend_to_dag(graph)
    if args.estimator == "mle":
        net = fit_mle(ds, graph)
    else:
        net = fit_bayes(ds, graph, ess=args.ess)
    _write_with_manifest(
        Path(args.out), _dump_json(net_to_json(net)), "fit",
        {"dataset": Path(args.dataset).name, "graph": Path(args.graph).name},
        {"estimator": args.estimator, "ess": args.ess if args.estimator == "bayes" else None})
    print(f"fitted {len(net.graph.nodes)} CPTs to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    left = graph_from_json(_load_json(args.left))
    right = graph_from_json(_load_json(args.right))
    diff = compare(left, right)
    obj = {
        "common": [list(e) for e in diff.common],
        "reversed": [list(e) for e in diff.reversed],
        "only_left": [list(e) for e in diff.only_left],
        "only_right": [list(e) for e in diff.only_right],
    }
    print(_dump_json(obj), end="")
    for label, edges in obj.items():
        print(f"{label:>10}: {len(edges):3d}  " + "  ".join(f"{s}->{d}" for s, d in edges))
    if args.out:
        _write_with_manifest(Path(args.out), _dump_json(obj), "compare",
                             {"left": Path(args.left).name, "right": Path(args.right).name}, {})
    return EXIT_OK


def cmd_infer(args) -> int:
    net = net_from_json(_load_json(args.net))
    evidence = {}
    for name, label in (_parse_assignments(args.evidence) if args.evidence else {}).items():
        if name not in net.graph.node_set:
            raise UsageError(f"no node named {name!r}")
        states = net.states(name)
        if label not in states:
            raise UsageError(f"{name} has no state {label!r}; choices: {', '.join(states)}")
        evidence[name] = states.index(label)
    dist = posterior(net, Query(target=args.target, evidence=evidence))
    print(_dump_json({
        "target": args.target,
        "evidence": _parse_assignments(args.evidence) if args.evidence else {},
        "distribution": {s: float(p) for s, p in zip(net.states(args.target), dist)},
    }), end="")
    return EXIT_OK


def cmd_impact(args) -> int:
    net = net_from_json(_load_json(args.net))
    attacks = load_attacks(_read(args.attacks))
    cfg = ImpactConfig(theta=args.theta, candidate_rule=args.candidate_rule,
                       condition_preconditions=args.condition_preconditions)
    stage_of = _load_json(args.stages) if args.stages else None
    if stage_of is not None and not (isinstance(stage_of, dict)
                                     and all(isinstance(v, (str, int)) for v in stage_of.values())):
        raise ParseError(f"{args.stages} must be a JSON object mapping DP names to stage ids")
    reports = [discover_impact(net, a, cfg, stage_of=stage_of) for a in attacks]

    for rep in reports:
        print(f"attack {rep.attack_id}  theta={rep.theta}  category={rep.category or '-'}")
        if not rep.findings:
            print("  (no candidates)")
        for f in rep.findings:
            mark = "IMPACTED" if f.included else "excluded"
            print(f"  {f.candidate:<10} {mark:<9} "
                  f"P({f.target}={f.target_state} | {f.candidate}={f.candidate_state}) = {f.probability:.4f}")
    obj = [report_to_json(r) for r in reports]
    if args.out:
        _write_with_manifest(
            Path(args.out), _dump_json(obj), "impact",
            {"net": Path(args.net).name, "attacks": Path(args.attacks).name},
            {"theta": args.theta, "candidate_rule": args.candidate_rule,
             "condition_preconditions": args.condition_preconditions})
    return EXIT_OK


def cmd_export(args) -> int:
    graph = graph_from_json(_load_json(args.graph))
    if args.format == "dot":
        text = graph_to_dot(graph)
    else:
        text = _dump_json(graph_to_json(graph))
    if args.out:
        _write_with_manifest(Path(args.out), text, "export",
                             {"graph": Path(args.graph).name}, {"format": args.format})
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpscausal",
        description="Causal graphs of CPS design parameters: learn, fit, infer, assess attack impact.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="forward-sample a fixture or net into a historian CSV")
    p.add_argument("--fixture", choices=FIXTURE_NAMES)
    p.add_argument("--net", help="net JSON to sample instead of a fixture")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clamp", help="NAME=STATE[,NAME=STATE...] forced during sampling")
    p.add_argument("--out", required=True)
    p.add_argument("--spec-out", help="also write the variable-spec file for --out")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("discretize", help="historian CSV + variable specs -> dataset JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_discretize)

    p = sub.add_parser("learn", help="learn a causal graph from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--algo", choices=("pc", "hc", "cl"), default="hc")
    p.add_argument("--score", choices=("chi2", "bic", "k2", "bdeu"))
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--root", help="root node (cl only)")
    p.add_argument("--ess", type=float, default=1.0)
    p.add_argument("--max-cond-size", type=int)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--plateau-k", type=int, default=1)
    p.add_argument("--max-parents", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_learn)

    p = sub.add_parser("fit", help="estimate CPTs for a graph from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--estimator", choices=("mle", "bayes"), default="mle")
    p.add_argument("--ess", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("compare", help="edge-level diff of two graphs")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("infer", help="posterior of one variable given evidence")
    p.add_argument("--net", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--evidence", help="NAME=STATE[,NAME=STATE...]")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("impact", help="discover DPs impacted by each attack in a file")
    p.add_argument("--net", required=True)
    p.add_argument("--attacks", required=True)
    p.add_argument("--theta", type=float, default=0.9)
    p.add_argument("--candidate-rule", choices=("children", "undirected_neighbors"),
                   default="children")
    p.add_argument("--condition-preconditions", action="store_true")
    p.add_argument("--stages", help="JSON file mapping DP name -> stage id")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_impact)

    p = sub.add_parser("export", help="emit a graph as DOT or JSON")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error [usage]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CpsCausalError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
