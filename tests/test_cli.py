import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT202012

from cpscausal import cli, ingest
from cpscausal.cli import main
from cpscausal.ingest import ACTUATOR, DiscreteDataset, VariableSpec, dataset_from_text, dataset_to_json


def attacks_path(name: str) -> str:
    return str(resources.files("cpscausal").joinpath(f"data/attacks/{name}"))


@pytest.fixture(scope="module")
def validator_for(repo_root):
    schemas = {}
    for path in (repo_root / "schemas").glob("*.schema.json"):
        schemas[path.name] = json.loads(path.read_text())
    registry = Registry().with_resources(
        (name, Resource.from_contents(obj, default_specification=DRAFT202012))
        for name, obj in schemas.items())

    def make(name: str) -> Draft202012Validator:
        return Draft202012Validator(schemas[name], registry=registry)

    return make


@pytest.fixture()
def pipeline(tmp_path):
    """Run the full stage1 pipeline into a temp dir and return it."""
    d = tmp_path / "run"
    d.mkdir()
    steps = [
        ["sample", "--fixture", "stage1", "--n", "800", "--seed", "11",
         "--out", str(d / "sample.csv"), "--spec-out", str(d / "stage1.vspec")],
        ["discretize", "--input", str(d / "sample.csv"), "--spec", str(d / "stage1.vspec"),
         "--out", str(d / "dataset.json")],
        ["learn", "--dataset", str(d / "dataset.json"), "--algo", "pc", "--out", str(d / "graph.json")],
        ["fit", "--dataset", str(d / "dataset.json"), "--graph", str(d / "graph.json"),
         "--out", str(d / "net.json")],
        ["impact", "--net", str(d / "net.json"), "--attacks", attacks_path("stage1.json"),
         "--out", str(d / "impact.json")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return d


class TestPipeline:
    def test_artifacts_exist_with_manifests(self, pipeline):
        for name in ("sample.csv", "dataset.json", "graph.json", "net.json", "impact.json"):
            assert (pipeline / name).exists()
            assert (pipeline / f"{name}.manifest.json").exists()

    def test_outputs_validate_against_schemas(self, pipeline, validator_for):
        pairs = [
            ("dataset.json", "dataset.schema.json"),
            ("graph.json", "graph.schema.json"),
            ("net.json", "net.schema.json"),
            ("impact.json", "impact_report.schema.json"),
        ]
        for artifact, schema in pairs:
            obj = json.loads((pipeline / artifact).read_text())
            validator_for(schema).validate(obj)
        for manifest in pipeline.glob("*.manifest.json"):
            validator_for("manifest.schema.json").validate(json.loads(manifest.read_text()))

    def test_manifest_digest_matches_artifact(self, pipeline):
        import hashlib
        for manifest_path in pipeline.glob("*.manifest.json"):
            manifest = json.loads(manifest_path.read_text())
            for name, digest in manifest["outputs"].items():
                data = (pipeline / name).read_bytes()
                assert digest == "sha256:" + hashlib.sha256(data).hexdigest()


class TestCommands:
    def test_learn_hc_defaults_to_bic(self, pipeline, tmp_path):
        out = tmp_path / "hc.json"
        assert main(["learn", "--dataset", str(pipeline / "dataset.json"),
                     "--algo", "hc", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "hc.json.manifest.json").read_text())
        assert manifest["config"]["score"] == "bic"

    def test_learn_cl(self, pipeline, tmp_path):
        out = tmp_path / "cl.json"
        assert main(["learn", "--dataset", str(pipeline / "dataset.json"),
                     "--algo", "cl", "--root", "LIT101", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert len(obj["edges"]) == 4

    def test_compare(self, pipeline, tmp_path, capsys):
        out = tmp_path / "diff.json"
        assert main(["compare", "--left", str(pipeline / "graph.json"),
                     "--right", str(pipeline / "graph.json"), "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["only_left"] == obj["only_right"] == []
        assert "common" in capsys.readouterr().out

    def test_infer_prints_distribution(self, pipeline, capsys):
        assert main(["infer", "--net", str(pipeline / "net.json"),
                     "--target", "MV101", "--evidence", "LIT101=Low"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj["distribution"]) == {"Close", "Open"}
        assert sum(obj["distribution"].values()) == pytest.approx(1.0, abs=1e-9)

    def test_export_dot(self, pipeline, capsys):
        assert main(["export", "--graph", str(pipeline / "graph.json"), "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "color=gray40" in out

    def test_sample_from_net_file(self, pipeline, tmp_path):
        out = tmp_path / "resample.csv"
        assert main(["sample", "--net", str(pipeline / "net.json"), "--n", "20",
                     "--seed", "1", "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 21

    def test_sample_clamp(self, tmp_path):
        out = tmp_path / "clamped.csv"
        assert main(["sample", "--fixture", "stage1", "--n", "50", "--seed", "2",
                     "--clamp", "MV101=Open", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        mv_col = [r.split(",")[4] for r in rows]
        assert set(mv_col) == {"2"}  # Open's declared code


class TestErrors:
    def test_theta_above_one_is_usage_error(self, pipeline):
        code = main(["impact", "--net", str(pipeline / "net.json"),
                     "--attacks", attacks_path("stage1.json"), "--theta", "1.01"])
        assert code == 2

    def test_missing_input_is_data_error(self, tmp_path):
        code = main(["discretize", "--input", str(tmp_path / "nope.csv"),
                     "--spec", str(tmp_path / "nope.vspec"), "--out", str(tmp_path / "x.json")])
        assert code == 3

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B\n1\n")
        spec = tmp_path / "s.vspec"
        spec.write_text("A actuator Off,On\n")
        code = main(["discretize", "--input", str(bad), "--spec", str(spec),
                     "--out", str(tmp_path / "x.json")])
        assert code == 3

    def test_cyclic_graph_is_model_error(self, pipeline, tmp_path):
        cyclic = tmp_path / "cyclic.json"
        cyclic.write_text(json.dumps({
            "nodes": ["P101", "P102", "LIT101", "MV101", "FIT101"],
            "edges": [{"src": "P101", "dst": "P102", "kind": "learnt"},
                      {"src": "P102", "dst": "P101", "kind": "learnt"}]}))
        code = main(["fit", "--dataset", str(pipeline / "dataset.json"),
                     "--graph", str(cyclic), "--out", str(tmp_path / "x.json")])
        assert code == 4

    def test_unknown_evidence_state_is_usage_error(self, pipeline):
        code = main(["infer", "--net", str(pipeline / "net.json"),
                     "--target", "MV101", "--evidence", "LIT101=Bogus"])
        assert code == 2

    def test_pc_with_bic_rejected(self, pipeline, tmp_path):
        code = main(["learn", "--dataset", str(pipeline / "dataset.json"),
                     "--algo", "pc", "--score", "bic", "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_target_not_in_net_is_model_error(self, pipeline, tmp_path):
        attacks = tmp_path / "a.json"
        attacks.write_text(json.dumps([{"id": "x", "targeted": ["GHOST999"]}]))
        code = main(["impact", "--net", str(pipeline / "net.json"), "--attacks", str(attacks)])
        assert code == 4

    def test_one_unknown_target_aborts_the_attack_file(self, repo_root, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["impact", "--net", str(repo_root / "tests/golden/stage1/net.json"),
                     "--attacks", attacks_path("swat_attacks.json"), "--out", str(out)])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "TargetNotInNet" in captured.err and "attack-4" in captured.err and "MV201" in captured.err
        assert not out.exists()

    def test_unknown_precondition_label_is_model_error(self, repo_root, tmp_path, capsys):
        attacks = tmp_path / "a.json"
        attacks.write_text(json.dumps([
            {"id": "x", "targeted": ["MV101"], "preconditions": {"LIT101": "Hgh"}}]))
        code = main(["impact", "--net", str(repo_root / "tests/golden/stage1/net.json"),
                     "--attacks", str(attacks), "--condition-preconditions"])
        assert code == 4
        err = capsys.readouterr().err
        assert "UnknownState" in err and "LIT101" in err and "'Hgh'" in err
        assert "Low, Medium, High" in err

    @pytest.mark.parametrize("command", ["infer", "impact"])
    def test_parent_cards_mismatch_is_model_error(self, repo_root, tmp_path, capsys, command):
        obj = json.loads((repo_root / "tests/golden/stage1/net.json").read_text())
        p101 = next(c for c in obj["cpts"] if c["child"] == "P101")
        p101["parent_cards"] = [2]  # LIT101 has 3 states
        p101["table"] = p101["table"][:2]
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        argv = (["infer", "--net", str(net), "--target", "P101", "--evidence", "LIT101=High"]
                if command == "infer" else
                ["impact", "--net", str(net), "--attacks", attacks_path("stage1.json")])
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "InvalidCpt" in err and "P101" in err

    def test_cpt_contract_violation_is_model_error(self, repo_root, tmp_path, capsys):
        obj = json.loads((repo_root / "tests/golden/stage1/net.json").read_text())
        obj["cpts"][0]["table"][0] = [0.5, 0.6]
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        assert main(["infer", "--net", str(net), "--target", "P101"]) == 4
        assert "InvalidCpt" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--algo", "pc", "--max-cond-size", "-1"],
                                      ["--algo", "hc", "--max-parents", "-1"]])
    def test_negative_limit_is_usage_error(self, repo_root, tmp_path, capsys, argv):
        out = tmp_path / "x.json"
        code = main(["learn", "--dataset", str(repo_root / "tests/golden/stage1/dataset.json"),
                     *argv, "--out", str(out)])
        assert code == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(args):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "cmd_export", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["export", "--graph", "unused.json"])

    def test_nan_reading_is_data_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("LIT101,MV101\n500,1\nnan,2\n")
        spec = tmp_path / "s.vspec"
        spec.write_text("LIT101 sensor Low,Medium,High edges=210,750\nMV101 actuator Close,Open codes=1,2\n")
        code = main(["discretize", "--input", str(log), "--spec", str(spec),
                     "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "NonNumericCell" in capsys.readouterr().err

    def test_non_integer_actuator_reading_is_data_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("MV101\n1\n1.5\n")
        spec = tmp_path / "s.vspec"
        spec.write_text("MV101 actuator Close,Open codes=1,2\n")
        code = main(["discretize", "--input", str(log), "--spec", str(spec),
                     "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == \
            "error [UnmappedActuatorValue]: MV101: non-integer actuator value 1.5\n"

    def test_non_finite_bin_edge_is_data_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("LIT101\n100\n500\n900\n")
        spec = tmp_path / "s.vspec"
        spec.write_text("LIT101 sensor Low,Medium,High edges=nan,750\n")
        code = main(["discretize", "--input", str(log), "--spec", str(spec),
                     "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "ParseError" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_targeted_string_is_data_error(self, repo_root, tmp_path, capsys):
        attacks = tmp_path / "attacks.json"
        attacks.write_text(json.dumps([{"id": "x", "targeted": "MV101"}]))
        code = main(["impact", "--net", str(repo_root / "tests/golden/stage1/net.json"),
                     "--attacks", str(attacks)])
        assert code == 3
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("stages", ['"P1"', '[["LIT101"]]', '{"LIT101": [1]}'])
    def test_malformed_stage_file_is_data_error(self, repo_root, tmp_path, capsys, stages):
        path = tmp_path / "stages.json"
        path.write_text(stages)
        code = main(["impact", "--net", str(repo_root / "tests/golden/stage1/net.json"),
                     "--attacks", attacks_path("stage1.json"), "--stages", str(path)])
        assert code == 3
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, error", [
        ("1.5", "ParseError"), ("true", "ParseError"), ('"1"', "ParseError"), ("1e30", "ParseError"),
        (str(2**70), "ParseError"), ("-1", "UnmappedActuatorValue"),
    ])
    @pytest.mark.parametrize("command", ["learn", "fit"])
    def test_dataset_cell_that_is_not_an_integer_is_data_error(self, repo_root, tmp_path, capsys,
                                                               command, cell, error):
        golden = repo_root / "tests/golden/stage1"
        head, records, tail = (golden / "dataset.json").read_text().partition('"data": [\n    [')
        dataset = tmp_path / "dataset.json"
        dataset.write_text(head + records + cell + tail[1:])  # in place of the first cell, one digit
        out = tmp_path / "out.json"
        argv = (["learn", "--dataset", str(dataset), "--algo", "cl", "--root", "LIT101"] if command == "learn" else
                ["fit", "--dataset", str(dataset), "--graph", str(golden / "graph.json")])
        assert main([*argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error [{error}]: ")
        assert not out.exists()

    def test_truncated_dataset_is_invalid_json(self, repo_root, tmp_path, capsys):
        dataset = tmp_path / "dataset.json"
        dataset.write_text((repo_root / "tests/golden/stage1/dataset.json").read_text()[:-20])
        code = main(["learn", "--dataset", str(dataset), "--algo", "cl", "--root", "LIT101",
                     "--out", str(tmp_path / "graph.json")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error [DataError]: {dataset} is not valid JSON: ")

    def test_pc_isolates_constant_dp(self, tmp_path):
        rng = np.random.default_rng(26)
        a = rng.integers(0, 2, 2000)
        b = np.where(rng.random(2000) < 0.1, 1 - a, a)
        spec = {"kind": "actuator", "states": ["s0", "s1"], "bin_edges": None, "codes": None}
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps({
            "specs": [{"name": n, **spec} for n in ("A", "B", "C")],
            "data": np.column_stack([a, b, np.zeros(2000, dtype=int)]).tolist()}))
        out = tmp_path / "graph.json"
        assert main(["learn", "--dataset", str(dataset), "--algo", "pc", "--out", str(out)]) == 0
        edges = json.loads(out.read_text())["edges"]
        assert {frozenset((e["src"], e["dst"])) for e in edges} == {frozenset("AB")}


def test_cli_imports_numpy_as_its_only_dependency(repo_root):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(repo_root / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import sys; before = set(sys.modules); import cpscausal.cli; "
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))")
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert set(run.stdout.split()) - set(sys.stdlib_module_names) == {"cpscausal", "numpy"}


def test_dump_json_writes_one_record_per_line():
    dataset = {"specs": [{"name": "A", "codes": [1, 2]}], "data": np.array([[0, 1], [1, -2]])}
    assert cli._dump_json(dataset) == (
        '{\n  "specs": [\n    {\n      "name": "A",\n      "codes": [\n        1,\n        2\n'
        '      ]\n    }\n  ],\n  "data": [\n    [0,1],\n    [1,-2]\n  ]\n}\n')
    assert json.loads(cli._dump_json(dataset)) == {**dataset, "data": [[0, 1], [1, -2]]}


@pytest.mark.parametrize("cardinality, n_vars", [(12, 3), (150, 3), (3, 1)],
                         ids=["two-digit", "three-digit", "one-column"])
def test_dump_json_writes_datasets_that_load_back(cardinality, n_vars):
    rng = np.random.default_rng(cardinality)
    data = rng.integers(0, cardinality, size=(40, n_vars))
    data[:2] = [[0] * n_vars, [cardinality - 1] * n_vars]
    specs = tuple(VariableSpec(f"X{k}", ACTUATOR, tuple(f"s{j}" for j in range(cardinality)))
                  for k in range(n_vars))
    text = cli._dump_json(dataset_to_json(DiscreteDataset(specs=specs, data=data)))
    assert np.array_equal(json.loads(text)["data"], data)
    rows = ",\n    ".join(json.dumps(row, separators=(",", ":")) for row in data.tolist())
    assert text.endswith(f'"data": [\n    {rows}\n  ]\n}}\n')
    assert np.array_equal(dataset_from_text(text).data, data)
    assert isinstance(ingest._json_object(text)["data"], np.ndarray)  # read as one array


@pytest.mark.parametrize("obj", [
    {"edges": [["A", "B"]], "table": [[0.5, 0.5], [1.0, 0.0]], "rows": [1, 2], "flags": [[True]]},
    [], {}, [[]], [[0, 1], [2, 3]], [{"id": "x", "theta": None, "nested": [[1.5]]}], "text", 3,
])
def test_dump_json_is_indented_json_for_everything_else(obj):
    assert cli._dump_json(obj) == json.dumps(obj, indent=2) + "\n"
