"""Command-line pipeline: sample -> discretize -> learn -> fit -> infer/impact.

Every command validates its inputs, writes artifacts atomically (temp file
plus rename), and drops a ``<artifact>.manifest.json`` next to each output
recording the command, inputs, configuration, seed, tool version, and
output digests. Exit codes: 0 success, 2 usage error, 3 data error,
4 model error.

JSON artifacts are laid out by :func:`jsontext.json_text`, where the
dataset reader also finds the layout it reads fast; ``_dump_json`` adds the
final newline. Every artifact is written in pieces through one hashing
``_atomic_write``. ``discretize`` reads the historian log a block at a time,
once to check it and once to map it to states, one ``bytes`` per DP, and
writes the dataset a block of records at a time; ``learn`` and ``fit`` read
a dataset file that is exactly the writer's, of DPs of at most 10 states, a
block of records at a time, ``learn`` into an array and ``fit`` into one
``bytes`` per DP, and any other once, whole, through ``json``. No command
holds the text of a log as a whole, except to name a fault in it.

This module imports only the standard library and the package's errors;
each command imports the modules it runs, so ``--version``, ``--help``,
``discretize``, ``compare``, ``export``, ``infer`` and ``impact`` start
without numpy, and so does ``fit`` on a dataset file in the writer's
layout. The library names the commands use still resolve as attributes of
this module, on first access.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path

from . import __version__
from .errors import CpsCausalError, DataError, ParseError, UsageError
from .jsontext import json_text


def _sha256_type():
    """CPython's builtin SHA-256 (``_sha2`` from Python 3.12, ``_sha256``
    before); hashlib's on a CPython built without one, and on any other
    interpreter, whose ``_sha256`` may be pure Python."""
    if sys.implementation.name == "cpython":
        for name in ("_sha2", "_sha256"):
            try:
                return importlib.import_module(name).sha256
            except ImportError:
                pass
    from hashlib import sha256
    return sha256


# hashlib's SHA-256 comes from OpenSSL's libcrypto, 3.7 MB resident in every command
_new_sha256 = _sha256_type()

# a str artifact is encoded and written this many characters at a time
_BLOCK_CHARS = 1 << 16

# the fixtures.FIXTURE_NAMES that ``sample --fixture`` offers, kept here so
# that building the parser imports no fixture
FIXTURE_NAMES = ("chain3", "collider3", "fork3", "stage1", "stage1_learnt", "stage6", "twostage")

# the library names the commands run, by module; in-process callers, such as
# the benchmark's traced pass, read and wrap them as attributes of this module
_HOMES = {
    "datafile": ("column_blocks", "dataset_chunks", "read_columns"),
    "fixtures": ("get_fixture",),
    "graph": ("compare", "extend_to_dag", "graph_from_json", "graph_to_dot", "graph_to_json"),
    "impact": ("ImpactConfig", "discover_impact", "load_attacks", "report_to_json"),
    "inference": ("Query", "fit_bayes", "fit_mle", "net_from_json", "net_to_json", "posterior"),
    "ingest": ("dataset_from_json", "dataset_to_json", "discretize", "parse_log", "read_dataset_file"),
    "learning": ("ClConfig", "HcConfig", "PcConfig", "learn_cl", "learn_hc", "learn_pc"),
    "logfile": ("LogText", "discretize_log", "format_spec_file", "parse_spec_file"),
    "simgen": ("sample_with_clamp", "write_historian_csv"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{home}"), name)


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_MODEL = 4


def _dump_json(obj) -> str:
    """Artifact text: ``json.dumps(obj, indent=2)``, except that a 2-D
    integer array, such as a dataset's records, gets one row per line."""
    return json_text(obj, "\n") + "\n"


def _atomic_write(path: Path, chunks: str | Iterable[bytes]) -> str:
    """Write a text as UTF-8, ``_BLOCK_CHARS`` characters at a time, or the
    bytes ``chunks`` one after the other, via temp file + rename; returns
    the sha256 of the bytes written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(chunks, str):
        text = chunks
        chunks = (text[at:at + _BLOCK_CHARS].encode() for at in range(0, len(text), _BLOCK_CHARS))
    digest = _new_sha256()
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


def _write_with_manifest(path: Path, chunks: str | Iterable[bytes], command: str, inputs: dict, config: dict,
                         seed: int | None = None) -> None:
    digest = _atomic_write(path, chunks)
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
    """The UTF-8 text of a file, without a leading byte-order mark, with its
    line ends as they are in the file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _log_text(path: str):
    """The historian log file at ``path`` as the ``LogText`` that its block
    reader reads; a file that ``_read`` refuses raises ``_read``'s error."""
    from .logfile import LogText

    try:
        return LogText.of_file(path)
    except (OSError, UnicodeDecodeError):
        return LogText.of_str(_read(path))


def _load_json(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer of more digits than Python converts
        raise ParseError(f"{path} holds a number that cannot be read: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path} nests its arrays or objects too deeply to read") from None


def _load_dataset(path: str):
    """The dataset file at ``path``, read a block of records at a time when
    it is exactly what ``discretize`` writes for DPs of at most 10 states,
    else whole by ``json``; ``dataset_from_json`` then names any fault."""
    from .ingest import read_dataset_file

    ds = read_dataset_file(path)
    return ds if ds is not None else _dataset_from_json_file(path)


def _load_columns(path: str):
    """The dataset file at ``path`` as ``fit`` counts it: its columns, read
    without numpy when the file is exactly what ``discretize`` writes for
    DPs of at most 10 states, else the dataset that ``json`` reads."""
    from .datafile import read_columns

    ds = read_columns(path)
    return ds if ds is not None else _dataset_from_json_file(path)


def _dataset_from_json_file(path: str):
    from .ingest import dataset_from_json

    return dataset_from_json(_load_json(path))


def _parse_assignments(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in text.split(","):
        key, sep, val = item.partition("=")
        if not sep or not key.strip() or not val.strip():
            raise UsageError(f"bad assignment {item!r}; expected NAME=STATE[,NAME=STATE...]")
        if key.strip() in out:
            raise UsageError(f"{key.strip()} is assigned more than once")
        out[key.strip()] = val.strip()
    return out


def _require_node(names, name: str) -> None:
    """An unknown DP is a usage error."""
    if name not in names:
        raise UsageError(f"no node named {name!r}")


def _require_ess(ess: float) -> None:
    """Refuse an ``--ess`` that is not a finite number above 0 as a usage
    error, as ``--alpha`` and ``--theta`` are; the library raises
    ``NonPositiveEss`` for it."""
    if not 0 < ess < float("inf"):
        raise UsageError(f"ess must be a finite number > 0, got {ess}")


def _state_indices(net, labels: dict[str, str]) -> dict[str, int]:
    """The state index of each ``NAME=STATE`` label in the net; an unknown
    DP or state is a usage error."""
    out = {}
    for name, label in labels.items():
        _require_node(net.graph.node_set, name)
        states = net.states(name)
        if label not in states:
            raise UsageError(f"{name} has no state {label!r}; choices: {', '.join(states)}")
        out[name] = states.index(label)
    return out


def cmd_sample(args) -> int:
    from .inference import net_from_json
    from .logfile import format_spec_file
    from .simgen import sample_with_clamp, write_historian_csv

    if bool(args.fixture) == bool(args.net):
        raise UsageError("give exactly one of --fixture or --net")
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    clamp_labels = _parse_assignments(args.clamp) if args.clamp else {}

    if args.fixture:
        from .fixtures import get_fixture

        fixture = get_fixture(args.fixture)
        net, specs = fixture.net, fixture.specs
    else:
        net = net_from_json(_load_json(args.net))
        specs = None

    ds = sample_with_clamp(net, args.n, args.seed, clamp=_state_indices(net, clamp_labels), specs=specs)
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
    from .datafile import column_blocks, dataset_chunks
    from .logfile import discretize_log, parse_spec_file

    log = _log_text(args.input)
    try:
        specs = parse_spec_file(_read(args.spec))
    except CpsCausalError:
        discretize_log(log, ())  # a fault in the log is named before one in the spec file
        raise
    n, columns = discretize_log(log, specs)
    _write_with_manifest(
        Path(args.out), dataset_chunks(specs, column_blocks(columns, n)), "discretize",
        {"input": Path(args.input).name, "spec": Path(args.spec).name}, {})
    print(f"discretized {n} records x {len(specs)} variables to {args.out}")
    return EXIT_OK


def cmd_learn(args) -> int:
    from .graph import graph_to_json
    from .learning import ClConfig, HcConfig, PcConfig, learn_cl, learn_hc, learn_pc

    ds = _load_dataset(args.dataset)
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
        if score == "bdeu":
            _require_ess(args.ess)
        cfg = HcConfig(score_method=score, plateau_k=args.plateau_k, max_iter=args.max_iter,
                       max_parents=args.max_parents, ess=args.ess)
        graph = learn_hc(ds, cfg).graph
    else:
        if score is not None:
            raise UsageError("cl is scored by mutual information; drop --score")
        if not args.root:
            raise UsageError("cl needs --root")
        _require_node(ds.names, args.root)
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
    from .graph import extend_to_dag, graph_from_json
    from .inference import fit_bayes, fit_mle, net_to_json

    if args.estimator == "bayes":
        _require_ess(args.ess)
    ds = _load_columns(args.dataset)
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
    from dataclasses import fields

    from .graph import EdgeDiff, compare, graph_from_json

    left = graph_from_json(_load_json(args.left))
    right = graph_from_json(_load_json(args.right))
    diff = compare(left, right)
    obj = {f.name: [list(e) for e in getattr(diff, f.name)] for f in fields(EdgeDiff)}
    print(_dump_json(obj), end="")
    for label, edges in obj.items():
        print(f"{label:>10}: {len(edges):3d}  " + "  ".join(f"{s}->{d}" for s, d in edges))
    if args.out:
        _write_with_manifest(Path(args.out), _dump_json(obj), "compare",
                             {"left": Path(args.left).name, "right": Path(args.right).name}, {})
    return EXIT_OK


def cmd_infer(args) -> int:
    from .inference import Query, net_from_json, posterior

    net = net_from_json(_load_json(args.net))
    labels = _parse_assignments(args.evidence) if args.evidence else {}
    if args.target in labels:
        raise UsageError(f"{args.target} is both the target and in --evidence")
    evidence = _state_indices(net, labels)
    _require_node(net.graph.node_set, args.target)
    dist = posterior(net, Query(target=args.target, evidence=evidence))
    print(_dump_json({
        "target": args.target,
        "evidence": labels,
        "distribution": {s: float(p) for s, p in zip(net.states(args.target), dist)},
    }), end="")
    return EXIT_OK


def cmd_impact(args) -> int:
    from .impact import ImpactConfig, discover_impact, load_attacks, report_to_json
    from .inference import net_from_json

    net = net_from_json(_load_json(args.net))
    attacks = load_attacks(_read(args.attacks))
    cfg = ImpactConfig(theta=args.theta, candidate_rule=args.candidate_rule,
                       condition_preconditions=args.condition_preconditions)
    stage_of = _load_json(args.stages) if args.stages else None
    if stage_of is not None:
        # an integer stage id is its decimal text, as an attack id is, so 1 and "1" are one stage
        if not (isinstance(stage_of, dict) and all(isinstance(v, (str, int)) and not isinstance(v, bool)
                                                   for v in stage_of.values())):
            raise ParseError(f"{args.stages} must be a JSON object mapping DP names to stage ids")
        stage_of = {dp: str(stage) for dp, stage in stage_of.items()}
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
    from .graph import graph_from_json, graph_to_dot, graph_to_json

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
