"""The artifact checks pass on a real pipeline run and fire on corrupted
artifacts.

    PYTHONPATH=src python -m pytest bench

Runs the twostage Chow-Liu pipeline in process on 3000 records.
"""

import pytest

import checks
import inputs
from cpscausal.cli import main
from pipeline import WORKLOADS, command_args, files

WORKLOAD = WORKLOADS["twostage100k-cl"]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    work = tmp_path_factory.mktemp("twostage")
    f = files(work / "in", work / "out")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inputs, "TWOSTAGE_RECORDS", 3000)
        specs = inputs.build(WORKLOAD.plant, 5, f)
    argv = command_args(WORKLOAD, f)
    for cmd in ("discretize", "learn", "fit", "impact", "compare"):
        assert main(argv[cmd]) == 0
    for cmd, algo in (("hc", ("--algo", "hc")), ("pc", ("--algo", "pc"))):
        graph, net = work / "out" / f"graph-{cmd}.json", work / "out" / f"net-{cmd}.json"
        assert main(["learn", "--dataset", str(f.dataset), *algo, "--out", str(graph)]) == 0
        assert main(["fit", "--dataset", str(f.dataset), "--graph", str(graph), "--out", str(net)]) == 0
    return f, specs


def test_clean_run_passes_every_check(run):
    f, specs = run
    checks.check_all(WORKLOAD, f, specs)


def test_hc_and_pc_checks_pass_on_learnt_graphs(run):
    f, _ = run
    data = checks.Data(checks.load(f.dataset))
    out = f.dataset.parent
    checks.check_hc(data, checks.load(out / "graph-hc.json"))
    checks.check_pc(data, checks.load(out / "graph-pc.json"), checks.load(out / "net-pc.json")["graph"])


def test_flipped_dataset_cell_fires(run):
    f, specs = run
    obj = checks.load(f.dataset)
    obj["data"][17][3] = 1 - obj["data"][17][3]  # column 3 is MV101, two states
    with pytest.raises(checks.CheckFailed, match="MV101"):
        checks.check_dataset(f.csv, specs, obj)


def test_perturbed_cpt_row_fires(run):
    f, _ = run
    net = checks.load(f.net)
    cpt = next(c for c in net["cpts"] if c["parents"])
    cpt["table"][0][0] += 1e-6
    cpt["table"][0][1] -= 1e-6
    with pytest.raises(checks.CheckFailed, match="count ratio"):
        checks.check_fit(checks.Data(checks.load(f.dataset)), net)


def test_nudged_finding_probability_fires(run):
    f, _ = run
    reports = checks.load(f.impact)
    finding = next(x for rep in reports for x in rep["findings"])
    finding["probability"] -= 1e-6
    with pytest.raises(checks.CheckFailed, match="exact maximum"):
        checks.check_impact(checks.load(f.net), checks.load(f.attacks), checks.load(f.stages), reports)


def test_dropped_cl_edge_fires(run):
    f, _ = run
    graph = checks.load(f.graph)
    graph["edges"].pop()
    with pytest.raises(checks.CheckFailed):
        checks.check_cl(checks.Data(checks.load(f.dataset)), graph, "LIT101")


def test_dropped_hc_edge_fires(run):
    f, _ = run
    graph = checks.load(f.dataset.parent / "graph-hc.json")
    graph["edges"].pop(0)
    with pytest.raises(checks.CheckFailed, match="BIC"):
        checks.check_hc(checks.Data(checks.load(f.dataset)), graph)
