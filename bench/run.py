#!/usr/bin/env python3
"""End-to-end benchmark of the cpscausal CLI pipeline.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; ``src`` need not be installed. Each workload
builds its inputs from the seed, then runs ``discretize -> learn -> fit ->
impact -> compare`` as separate ``python -m cpscausal.cli`` processes, one
at a time, in whole rounds for about ``--seconds`` (at least two rounds),
and checks every artifact (see checks.py). With ``--trace 1`` it instead
makes one CLI round for per-process memory and import times, then runs the
same pipeline in process three times, untraced, traced and untraced again,
for per-layer numbers and the tracing overhead (see tracing.py). The last
line of output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from pipeline import COMMANDS, HERE, WORKLOADS, Launcher, command_args, files

SRC = HERE.parent / "src"
SETUP_REPEATS = 3
MIN_ROUNDS = 2
IMPORT_FAMILIES = ("scipy", "numpy", "cpscausal")
TIMED_SPANS = (
    "ingest.parse_log", "ingest.discretize", "ingest.dataset_write", "ingest.dataset_read",
    "estimation.family_score", "estimation.chi_square_ci", "estimation.mutual_information",
    "estimation.counts", "estimation.fit_mle", "estimation.net_write", "estimation.net_read",
    "learning.learn_hc", "learning.learn_pc", "learning.learn_cl", "learning.extend_to_dag",
    "graph.topological_order", "graph.graph_read", "graph.compare", "graph.load_domain_graph",
    "inference.posterior", "impact.discover_impact", "simgen.forward_sample",
    "simgen.write_historian_csv",
)
SELF_TIMED = ("learning.learn_hc", "learning.learn_pc", "impact.discover_impact")
COUNTED = ("estimation.family_score", "estimation.mutual_information", "estimation.counts",
           "graph.topological_order", "inference.posterior", "ingest.index")


class Ops:
    """Operations attempted and failed (CLI processes and in-process
    passes), and the artifact checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok

    def check(self, fn, *args) -> None:
        import checks

        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.problems.append(f"{fn.__name__}: {exc}")


def cli_round(launcher: Launcher, argv: dict[str, list[str]], logdir: Path, ops: Ops):
    """``--version`` then the five commands. Returns {step: Run}, or None when
    a step failed; the steps after a failure count as attempted and failed."""
    runs = {}
    steps = [("startup", ["--version"])] + [(c, argv[c]) for c in COMMANDS]
    for k, (step, args) in enumerate(steps):
        run = launcher.cli(args, logdir / step)
        if not ops.record(run.returncode == 0):
            sys.stderr.write(f"{step} exited {run.returncode}: {run.stderr.read_text()[-2000:]}\n")
            for _ in steps[k + 1:]:
                ops.record(False)
            return None
        runs[step] = run
    return runs


def digest(f) -> tuple[str, ...]:
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (f.dataset, f.graph, f.net, f.impact, f.compare))


def same_artifacts(a, b) -> None:
    import checks

    checks.require(digest(a) == digest(b), "artifacts differ between passes over the same inputs")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative ``-X importtime`` seconds per package family, each module
    counted once, at its outermost import within the family."""
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))

    def family(name: str, fam: str) -> bool:
        return name == fam or name.startswith(fam + ".")

    out = dict.fromkeys(IMPORT_FAMILIES, 0.0)
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative_us in reversed(entries):  # a parent is printed after its children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for fam in IMPORT_FAMILIES:
            if family(name, fam) and not any(family(a, fam) for _, a in ancestors):
                out[fam] += cumulative_us / 1e6
        ancestors.append((depth, name))
    return out


def measure(launcher: Launcher, w, seconds: float, work: Path, f, specs, ops: Ops) -> dict:
    """CLI rounds, at least MIN_ROUNDS and more while the next would end
    within ``seconds``; each metric is its median over the rounds."""
    import checks

    done = []
    rounds = 0
    start = time.perf_counter()
    while True:
        out = files(f.csv.parent, work / "out" / f"r{rounds}")
        runs = cli_round(launcher, command_args(w, out), work / "log" / f"r{rounds}", ops)
        if runs is not None:
            done.append((runs, out))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
    if not done:
        raise SystemExit(f"{w.name}: no pipeline round completed")
    first = done[0][1]
    ops.check(checks.check_all, w, first, specs)
    for _, out in done[1:]:
        ops.check(same_artifacts, first, out)

    def med(fn) -> float:
        return statistics.median(fn(runs) for runs, _ in done)

    metrics = {"startup_s": (med(lambda r: r["startup"].seconds), "s")}
    for c in ("discretize", "learn", "fit", "impact"):
        metrics[f"{c}_s"] = (med(lambda r: r[c].seconds), "s")
    metrics["pipeline_s"] = (med(lambda r: sum(r[c].seconds for c in COMMANDS)), "s")
    metrics["peak_rss_mb"] = (med(lambda r: max(r[c].peak_rss_mb for c in COMMANDS)), "MB")
    metrics["dataset_mb"] = (first.dataset.stat().st_size / 1e6, "MB")
    return metrics


def traced(launcher: Launcher, w, seed: int, work: Path, f, specs, ops: Ops) -> dict:
    """One CLI round, then the in-process pipeline untraced, traced and
    untraced again, so that warm-up does not show as tracing overhead."""
    import checks
    import tracing

    metrics = {}
    imp = launcher.cli(["--version"], work / "log" / "importtime", pre=("-X", "importtime"))
    if ops.record(imp.returncode == 0):
        for fam, sec in import_times(imp.stderr.read_text()).items():
            metrics[f"cli.import.{fam}_s"] = (sec, "s")
    cli_out = files(f.csv.parent, work / "out" / "cli")
    runs = cli_round(launcher, command_args(w, cli_out), work / "log" / "cli", ops)
    if runs is None:
        raise SystemExit(f"{w.name}: the CLI round failed")
    for c in COMMANDS:
        metrics[f"cli.{c}.peak_rss_mb"] = (runs[c].peak_rss_mb, "MB")
    ops.check(checks.check_all, w, cli_out, specs)

    inproc = files(f.csv.parent, work / "out" / "inproc")
    tracer = tracing.Tracer()
    seconds = []
    for pass_ in ("untraced", "traced", "untraced"):
        start = time.perf_counter()
        if pass_ == "traced":
            tracer.install()
            try:
                counters = tracing.inproc_pass(w, seed, inproc, span=tracer.span)
            finally:
                tracer.remove()
        else:
            tracing.inproc_pass(w, seed, inproc)
        seconds.append(time.perf_counter() - start)
        ops.record(True)
    ops.check(same_artifacts, cli_out, inproc)

    total, own = tracer.totals()
    for name in TIMED_SPANS:
        metrics[f"{name}_s"] = (total.get(name, 0.0), "s")
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    for name in COUNTED:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
    for level in tracing.CHI2_LEVELS:
        name = f"estimation.chi_square_ci.calls.{level}"
        metrics[name] = (tracer.calls[name], "count")
    metrics["ingest.dataset_json_bytes"] = (counters["dataset_json_bytes"], "bytes")
    metrics["learning.hc.iterations"] = (counters["hc_iterations"], "count")
    metrics["impact.posterior_calls_per_attack"] = (
        tracer.calls["inference.posterior"] / counters["attacks"], "count")
    untraced_s = (seconds[0] + seconds[2]) / 2
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (seconds[1], "s")
    metrics["trace.overhead_pct"] = (100.0 * (seconds[1] - untraced_s) / untraced_s, "%")

    out = HERE / "trace" / f"{w.name}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": w.name, "seed": seed, "span_fields": ["name", "start", "end", "parent"],
                               "spans": tracer.spans, "calls": dict(tracer.calls)}) + "\n")
    return metrics


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool) -> dict:
    import inputs

    w = WORKLOADS[name]
    work = HERE / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    f = files(work / "in", work / "out")
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        specs = inputs.build(w.plant, seed, f)
        setup.append(time.perf_counter() - start)
    # write the package's bytecode now, so that no timed process compiles it
    compileall.compile_dir(SRC / "cpscausal", quiet=1)
    ops = Ops()
    if trace:
        metrics = traced(launcher, w, seed, work, f, specs, ops)
    else:
        metrics = measure(launcher, w, seconds, work, f, specs, ops)
        metrics["setup_s"] = (statistics.median(setup), "s")
    for problem in ops.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    return {"correct": not ops.problems, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cpscausal" / "cli.py").is_file():
        sys.stderr.write(f"error: no cpscausal sources under {SRC}; run from a repository checkout\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with Launcher(SRC) as launcher:  # started before this process imports numpy
        sys.path.insert(0, str(SRC))
        for name in names:
            result = run_workload(launcher, name, args.seed, args.seconds, bool(args.trace))
            print(f"# {name} seed={args.seed} attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
            for metric, m in result["metrics"].items():
                print(f"#   {metric:<42} {m['value']:>14.6g} {m['unit']}")
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
