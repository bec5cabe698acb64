"""The workloads and the CLI pipeline each one runs, one
``python -m cpscausal.cli`` process at a time.

Standard library only: ``run.py`` imports this module and starts the
launcher before anything that imports numpy.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMANDS = ("discretize", "learn", "fit", "impact", "compare")


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name: str
    plant: str  # swat51 | twostage
    learn_args: tuple[str, ...]


WORKLOADS = {
    w.name: w for w in (
        Workload("swat51-hc", "swat51", ("--algo", "hc")),
        Workload("swat51-pc", "swat51", ("--algo", "pc")),
        Workload("twostage100k-cl", "twostage", ("--algo", "cl", "--root", "LIT101")),
    )
}


@dataclass(frozen=True)
class Files:
    """Inputs and artifacts of one pipeline pass."""

    csv: Path
    spec: Path
    domain: Path
    attacks: Path
    stages: Path
    dataset: Path
    graph: Path
    net: Path
    impact: Path
    compare: Path


def files(inputs: Path, outputs: Path) -> Files:
    ins = (inputs / n for n in ("historian.csv", "plant.vspec", "domain.json", "attacks.json",
                                "stages.json"))
    outs = (outputs / f"{n}.json" for n in ("dataset", "graph", "net", "impact", "compare"))
    return Files(*ins, *outs)


def command_args(w: Workload, f: Files) -> dict[str, list[str]]:
    """CLI arguments of each pipeline command; everything else at its default."""
    return {
        "discretize": ["discretize", "--input", str(f.csv), "--spec", str(f.spec),
                       "--out", str(f.dataset)],
        "learn": ["learn", "--dataset", str(f.dataset), *w.learn_args, "--out", str(f.graph)],
        "fit": ["fit", "--dataset", str(f.dataset), "--graph", str(f.graph), "--out", str(f.net)],
        "impact": ["impact", "--net", str(f.net), "--attacks", str(f.attacks),
                   "--stages", str(f.stages), "--out", str(f.impact)],
        "compare": ["compare", "--left", str(f.domain), "--right", str(f.graph),
                    "--out", str(f.compare)],
    }


@dataclass(frozen=True)
class Run:
    seconds: float
    peak_rss_mb: float
    returncode: int
    stderr: Path


class Launcher:
    """Client of ``launcher.py``, which starts each CLI process for us."""

    def __init__(self, src: Path):
        self.env = {"PYTHONPATH": str(src)}
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def cli(self, args: list[str], logdir: Path, pre: tuple[str, ...] = ()) -> Run:
        """Run ``python [pre] -m cpscausal.cli args`` to completion."""
        logdir.mkdir(parents=True, exist_ok=True)
        req = {"argv": [sys.executable, *pre, "-m", "cpscausal.cli", *args], "env": self.env,
               "stdout": str(logdir / "stdout.log"), "stderr": str(logdir / "stderr.log")}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        rep = json.loads(line)
        return Run(rep["seconds"], rep["peak_rss_mb"], rep["returncode"], logdir / "stderr.log")

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
