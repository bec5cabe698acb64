import ast
import contextlib
import copy
import csv
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT202012

from cpscausal import cli
from cpscausal.cli import main
from cpscausal.errors import DataError
from cpscausal.ingest import (
    ACTUATOR,
    DiscreteDataset,
    VariableSpec,
    dataset_from_text,
    dataset_to_json,
    format_spec_file,
)
from cpscausal.fixtures import get_fixture
from cpscausal.graph import CausalGraph, Edge, graph_to_json
from cpscausal.simgen import forward_sample, write_historian_csv
from oracles import read_as_one_array, reference_parse_log


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

    def test_compare_writes_the_four_edge_lists_in_order(self, tmp_path, capsys):
        left, right = tmp_path / "left.json", tmp_path / "right.json"
        left.write_text(json.dumps(graph_to_json(CausalGraph(
            nodes=("A", "B", "C", "D"), edges=(Edge("A", "B"), Edge("B", "C"), Edge("C", "D"))))))
        right.write_text(json.dumps(graph_to_json(CausalGraph(
            nodes=("A", "B", "C", "D"), edges=(Edge("A", "B"), Edge("C", "B"), Edge("A", "D"))))))
        out = tmp_path / "diff.json"
        assert main(["compare", "--left", str(left), "--right", str(right), "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert list(obj) == ["common", "reversed", "only_left", "only_right"]
        assert obj == {"common": [["A", "B"]], "reversed": [["B", "C"]],
                       "only_left": [["C", "D"]], "only_right": [["A", "D"]]}
        assert capsys.readouterr().out.endswith("\n}\n    common:   1  A->B\n  reversed:   1  B->C\n"
                                                " only_left:   1  C->D\nonly_right:   1  A->D\n")

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


    def test_sample_without_clamp_is_forward_sample(self, tmp_path):
        out = tmp_path / "sample.csv"
        assert main(["sample", "--fixture", "stage1", "--n", "50", "--seed", "2", "--out", str(out)]) == 0
        fixture = get_fixture("stage1")
        want = write_historian_csv(forward_sample(fixture.net, 50, 2, specs=fixture.specs))
        assert out.read_text() == want


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

    @pytest.mark.parametrize("text", [
        "A,B\n1,2,3\n", "A,B\n1,2\n3\n", "A,B\n1,x\n", "A,B\n1,\n", "A,B\n1,nan\n", "A,B\n1,1e400\n",
        "A,B\n1_0,2\n", "A,B\n", "", "A,A\n1,2\n", "A,B\r\n\r\n1,x\r\n", 'Timestamp,A\n"t\n0",1\nt1,"x"\n',
        "A,B\n1,2\n3," + "4" * (csv.field_size_limit() + 1) + "\n", "A,B\n1,2\r3,4\n",
        'Timestamp,A\n"t\r\n0",1\nt1,x\n',
    ], ids=["long-row", "short-row", "word", "empty-cell", "nan", "overflow", "digit-group", "header-only",
            "no-text", "duplicate-columns", "crlf", "quoted", "field-above-csv-limit", "lone-carriage-return",
            "crlf-in-quoted-timestamp"])
    def test_malformed_log_is_data_error_named_as_parse_log_names_it(self, tmp_path, capsys, text):
        log = tmp_path / "log.csv"
        log.write_bytes(text.encode())
        spec = tmp_path / "s.vspec"
        spec.write_text("A actuator Off,On\n")
        code = main(["discretize", "--input", str(log), "--spec", str(spec), "--out", str(tmp_path / "x.json")])
        with pytest.raises(DataError) as raised:
            reference_parse_log(text)
        assert code == 3
        assert capsys.readouterr().err == f"error [{type(raised.value).__name__}]: {raised.value}\n"
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("spec_text, spec_error", [
        (None, "DataError"), ("A bogus Off,On\n", "ParseError"), ("# nothing\n", "EmptyInput"),
        ("C actuator Off,On\n", "MissingColumn"), ("A actuator Off,On\n", "UnmappedActuatorValue"),
    ], ids=["missing", "bad-kind", "no-variables", "missing-column", "unmapped-code"])
    def test_log_fault_is_named_before_any_spec_fault(self, tmp_path, capsys, spec_text, spec_error):
        spec = tmp_path / "s.vspec"
        if spec_text is not None:
            spec.write_text(spec_text)
        for text, error in [("A,B\n7,2\n3,x\n", "NonNumericCell"), ("A,B\n7,2\n3,4\n", spec_error)]:
            log = tmp_path / "log.csv"
            log.write_text(text)
            code = main(["discretize", "--input", str(log), "--spec", str(spec), "--out", str(tmp_path / "x.json")])
            assert code == 3
            assert capsys.readouterr().err.startswith(f"error [{error}]: ")
            assert not (tmp_path / "x.json").exists()

    def test_log_that_is_not_utf8_is_data_error_naming_the_file(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_bytes(b"A,B\n1,\xff2\n")
        spec = tmp_path / "s.vspec"
        spec.write_text("A actuator Off,On\n")
        code = main(["discretize", "--input", str(log), "--spec", str(spec), "--out", str(tmp_path / "x.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error [DataError]: cannot read {log}: ")
        assert "can't decode byte 0xff" in err

    @pytest.mark.parametrize("data", [b"A,B\n1,\xff2\n", b"\xef\xbb\n1\n", b"\xef\xbbA\n1\n",
                                      b"\xef\xbb\xbf\xef\xbb\xbfA\n1\n\xed\xa0\x80\n",
                                      b"A\n" + b"1\n" * 40_000 + b"\xc3\n"],
                             ids=["bad-byte", "cut-byte-order-mark", "bad-start", "surrogate-after-two-marks",
                                  "cut-sequence-in-a-later-block"])
    def test_log_that_is_not_utf8_is_named_as_read_names_it(self, tmp_path, capsys, data):
        log = tmp_path / "log.csv"
        log.write_bytes(data)
        spec = tmp_path / "s.vspec"
        spec.write_text("A actuator Off,On\n")
        with pytest.raises(DataError) as raised:
            cli._read(str(log))
        code = main(["discretize", "--input", str(log), "--spec", str(spec), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == f"error [DataError]: {raised.value}\n"

    @pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"])
    def test_log_of_a_cut_byte_order_mark_is_read_as_no_text(self, tmp_path, capsys, data):
        # Python's utf-8-sig decoder reads a file that holds no more than the
        # start of a byte-order mark as no text, not as an error
        log = tmp_path / "log.csv"
        log.write_bytes(data)
        spec = tmp_path / "s.vspec"
        spec.write_text("A actuator Off,On\n")
        assert cli._read(str(log)) == ""
        code = main(["discretize", "--input", str(log), "--spec", str(spec), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == "error [EmptyInput]: log has no header row\n"

    @pytest.mark.parametrize("form", [
        lambda text: text.replace("\n", "\n\n"),
        lambda text: "\n \n" + text + "\n\n",
        lambda text: re.sub(r"(?m)^([^,\n]+),", r'"\1",', text),
        lambda text: text.replace("\n", "\r\n"),
    ], ids=["blank-lines", "blank-lines-around", "quoted", "crlf"])
    def test_log_in_any_form_gives_the_plain_logs_dataset(self, repo_root, tmp_path, form):
        golden = repo_root / "tests/golden/stage1"
        log = tmp_path / "log.csv"
        log.write_bytes(form((golden / "sample.csv").read_text()).encode())
        out = tmp_path / "dataset.json"
        assert main(["discretize", "--input", str(log), "--spec", str(golden / "stage1.vspec"), "--out", str(out)]) == 0
        assert out.read_bytes() == (golden / "dataset.json").read_bytes()

    def test_byte_order_mark_before_the_header_is_dropped(self, tmp_path):
        text = "Timestamp,MV101\nt0,1\nt1,2\n"
        spec = tmp_path / "s.vspec"
        spec.write_text("MV101 actuator Close,Open codes=1,2\n")
        for name, data in [("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())]:
            (tmp_path / f"{name}.csv").write_bytes(data)
            assert main(["discretize", "--input", str(tmp_path / f"{name}.csv"), "--spec", str(spec),
                         "--out", str(tmp_path / f"{name}.json")]) == 0
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

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

    def test_unknown_evidence_dp_is_usage_error(self, pipeline, capsys):
        code = main(["infer", "--net", str(pipeline / "net.json"),
                     "--target", "MV101", "--evidence", "NOPE=Low"])
        assert code == 2
        assert capsys.readouterr().err == "error [usage]: no node named 'NOPE'\n"

    def test_unknown_clamp_dp_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "clamped.csv"
        code = main(["sample", "--fixture", "stage1", "--n", "5", "--clamp", "NOPE=Open", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error [usage]: no node named 'NOPE'\n"
        assert not out.exists()

    def test_unknown_clamp_state_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "clamped.csv"
        code = main(["sample", "--fixture", "stage1", "--n", "5", "--clamp", "MV101=Bogus", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error [usage]: MV101 has no state 'Bogus'; choices: Close, Open\n"
        assert not out.exists()

    def test_unknown_target_is_usage_error(self, pipeline, capsys):
        code = main(["infer", "--net", str(pipeline / "net.json"), "--target", "NOPE"])
        assert code == 2
        assert capsys.readouterr() == ("", "error [usage]: no node named 'NOPE'\n")

    def test_target_in_the_evidence_is_usage_error(self, repo_root, capsys):
        code = main(["infer", "--net", str(repo_root / "tests/golden/stage1/net.json"),
                     "--target", "MV101", "--evidence", "LIT101=Low,MV101=Open"])
        assert code == 2
        assert capsys.readouterr() == ("", "error [usage]: MV101 is both the target and in --evidence\n")

    def test_repeated_evidence_dp_is_usage_error(self, pipeline, capsys):
        code = main(["infer", "--net", str(pipeline / "net.json"),
                     "--target", "MV101", "--evidence", "LIT101=Low,LIT101=High"])
        assert code == 2
        assert capsys.readouterr() == ("", "error [usage]: LIT101 is assigned more than once\n")

    def test_repeated_clamp_dp_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "clamped.csv"
        code = main(["sample", "--fixture", "stage1", "--n", "5", "--clamp", "MV101=Open, MV101 =Open",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error [usage]: MV101 is assigned more than once\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("preconditions, shown", [
        ([["LIT101", "Low"]], '[["LIT101", "Low"]]'),  # once read as a list of pairs
        (5, "5"),
        (None, "null"),
        ({"LIT101": 5}, '{"LIT101": 5}'),  # once refused only under --condition-preconditions
    ], ids=["list_of_pairs", "number", "null", "label_number"])
    @pytest.mark.parametrize("condition", [False, True], ids=["plain", "conditioned"])
    def test_malformed_preconditions_are_data_error(self, repo_root, tmp_path, preconditions, shown, condition):
        attacks = tmp_path / "a.json"
        attacks.write_text(json.dumps([{"id": "x", "targeted": ["MV101"], "preconditions": preconditions}]))
        argv = ["impact", "--net", str(repo_root / "tests/golden/stage1/net.json"), "--attacks", str(attacks)]
        assert _exit_and_error(argv + ["--condition-preconditions"] * condition) == (
            3, f"error [ParseError]: attack 'x': preconditions must be an object of DP names to state labels, "
               f"got {shown}")

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

    @pytest.mark.parametrize("command", ["infer", "impact"])
    def test_cpt_for_a_node_not_in_the_graph_is_model_error(self, repo_root, tmp_path, capsys, command):
        obj = json.loads((repo_root / "tests/golden/stage1/net.json").read_text())
        fit101 = next(c for c in obj["cpts"] if c["child"] == "FIT101")
        obj["cpts"].append(dict(fit101, child="GHOST"))  # once loaded, and dropped on the next write
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        argv = (["infer", "--net", str(net), "--target", "FIT101"] if command == "infer" else
                ["impact", "--net", str(net), "--attacks", attacks_path("stage1.json")])
        assert main(argv) == 4
        assert capsys.readouterr().err.startswith("error [InvalidCpt]: ")

    def test_cpt_contract_violation_is_model_error(self, repo_root, tmp_path, capsys):
        obj = json.loads((repo_root / "tests/golden/stage1/net.json").read_text())
        obj["cpts"][0]["table"][0] = [0.5, 0.6]
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        assert main(["infer", "--net", str(net), "--target", "P101"]) == 4
        assert "InvalidCpt" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, code, error", [
        # a second record for FIT101, which would silently replace the first
        (lambda cpts: cpts.append(dict(cpts[0], table=[[0.5, 0.5]])), 3, "ParseError"),
        (lambda cpts: cpts[0].update(states=[1, 2]), 3, "ParseError"),
        (lambda cpts: cpts[0].update(states=["a", "a"]), 4, "InvalidCpt"),
        (lambda cpts: cpts[0].update(table=[[0.5, 0.5], [1.0]]), 3, "ParseError"),
    ], ids=["repeated_child", "label_not_text", "repeated_label", "ragged_table"])
    def test_malformed_cpt_record_is_rejected(self, repo_root, tmp_path, capsys, mutate, code, error):
        obj = json.loads((repo_root / "tests/golden/stage1/net.json").read_text())
        assert obj["cpts"][0]["child"] == "FIT101"
        mutate(obj["cpts"])
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        assert main(["infer", "--net", str(net), "--target", "FIT101"]) == code
        err = capsys.readouterr().err
        assert error in err and "FIT101" in err

    @pytest.mark.parametrize("graph", [
        {"nodes": "AB", "edges": []},  # once read as the nodes A and B
        {"nodes": [1, 2], "edges": []},
        {"nodes": ["A", "B"], "edges": [{"src": "A", "dst": "B", "directed": "no"}]},  # once directed
        {"nodes": [["A"], "B"], "edges": []},  # once a TypeError traceback
        {"nodes": ["A", "B"], "edges": [{"src": "A", "dst": 2}]},
        {"nodes": ["A", "B"], "edges": {"src": "A", "dst": "B"}},
    ], ids=["nodes_text", "node_number", "directed_text", "node_list", "dst_number", "edges_object"])
    @pytest.mark.parametrize("command", ["export", "compare", "fit"])
    def test_malformed_graph_file_is_data_error(self, repo_root, tmp_path, capsys, command, graph):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        golden = repo_root / "tests/golden/stage1"
        argv = {"export": ["export", "--graph", str(path)],
                "compare": ["compare", "--left", str(golden / "graph.json"), "--right", str(path)],
                "fit": ["fit", "--dataset", str(golden / "dataset.json"), "--graph", str(path),
                        "--out", str(tmp_path / "net.json")]}[command]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error [ParseError]: malformed graph JSON: ")
        assert not (tmp_path / "net.json").exists()

    @pytest.mark.parametrize("command", ["export", "export-out", "compare"])
    def test_graph_node_with_a_lone_surrogate_is_a_parse_error(self, tmp_path, command):
        path, out = tmp_path / "graph.json", tmp_path / "out.dot"
        path.write_text(json.dumps({"nodes": ["a\ud800", "b"], "edges": [{"src": "a\ud800", "dst": "b"}]}))
        argv = {"export": ["export", "--graph", str(path)],
                "export-out": ["export", "--graph", str(path), "--out", str(out)],
                "compare": ["compare", "--left", str(path), "--right", str(path)]}[command]
        assert _exit_and_error(argv) == (
            3, 'error [ParseError]: malformed graph JSON: node "a\\ud800" holds a lone surrogate')
        assert not out.exists()

    @pytest.mark.parametrize("names, error", [
        ({"FIT101": "FIT\\ud800"}, 'malformed graph JSON: node "FIT\\ud800" holds a lone surrogate'),
        ({'"Close"': '"Cl\\ud800"', '"Open"': '"Op\\ud800"'},
         'malformed net JSON: MV101: state "Cl\\ud800" holds a lone surrogate'),
    ], ids=["node", "state"])
    def test_net_name_with_a_lone_surrogate_is_a_parse_error(self, repo_root, tmp_path, names, error):
        text = (repo_root / "tests/golden/stage1/net.json").read_text()
        for old, new in names.items():
            text = text.replace(old, new)
        net, out = tmp_path / "net.json", tmp_path / "impact.json"
        net.write_text(text)
        # FIT101 is MV101's parent in this net, and a candidate of an attack on MV101 only by this rule
        argv = ["impact", "--net", str(net), "--attacks", attacks_path("stage1.json"),
                "--candidate-rule", "undirected_neighbors", "--out", str(out)]
        assert _exit_and_error(argv) == (3, f"error [ParseError]: {error}")
        assert not out.exists()

    def test_dataset_name_with_a_lone_surrogate_is_a_parse_error(self, repo_root, tmp_path):
        # JSON artifacts would escape it, but no DOT export or printed line could hold it
        dataset = tmp_path / "dataset.json"
        dataset.write_text((repo_root / "tests/golden/stage1/dataset.json").read_text().replace(
            '"name": "FIT101"', '"name": "FIT\\ud800"'))
        out = tmp_path / "graph.json"
        argv = ["learn", "--dataset", str(dataset), "--algo", "pc", "--out", str(out)]
        assert _exit_and_error(argv) == (
            3, 'error [ParseError]: variable name "FIT\\ud800" holds a lone surrogate')
        assert not out.exists()

    @pytest.mark.parametrize("mutate", [
        lambda obj: obj["graph"].update(nodes="FIT101"),  # once UnknownNode, exit 4
        lambda obj: obj["cpts"][0].update(states="LH"),  # once the states L and H
        lambda obj: obj["cpts"][1].update(parents="LIT101"),
        lambda obj: obj["cpts"][0]["table"][0].__setitem__(0, "0.3"),  # once read as 0.3
        lambda obj: obj["cpts"][0]["table"][0].__setitem__(1, True),
        lambda obj: obj["cpts"][0].update(uniform_rows="x"),  # once loaded and written back
        lambda obj: obj["cpts"][0].update(uniform_rows=[5]),
        lambda obj: obj["cpts"][0].update(uniform_rows=[False]),
        lambda obj: obj["cpts"][0]["table"][0].__setitem__(0, 10 ** 400),
        lambda obj: obj["cpts"][0].update(parent_cards=[2.0]),
        lambda obj: obj.update(cpts={}),
    ], ids=["graph_nodes_text", "states_text", "parents_text", "cell_text", "cell_bool",
            "uniform_rows_text", "uniform_row_out_of_range", "uniform_row_bool", "cell_too_large",
            "parent_card_float", "cpts_object"])
    def test_malformed_net_file_is_data_error(self, repo_root, tmp_path, capsys, mutate):
        obj = json.loads((repo_root / "tests/golden/stage1/net.json").read_text())
        assert [c["child"] for c in obj["cpts"][:2]] == ["FIT101", "LIT101"]
        mutate(obj)
        net = tmp_path / "net.json"
        net.write_text(json.dumps(obj))
        assert main(["infer", "--net", str(net), "--target", "FIT101"]) == 3
        assert capsys.readouterr().err.startswith("error [ParseError]: malformed ")

    @pytest.mark.parametrize("argv", [["--algo", "pc", "--max-cond-size", "-1"],
                                      ["--algo", "hc", "--max-parents", "-1"]])
    def test_negative_limit_is_usage_error(self, repo_root, tmp_path, capsys, argv):
        out = tmp_path / "x.json"
        code = main(["learn", "--dataset", str(repo_root / "tests/golden/stage1/dataset.json"),
                     *argv, "--out", str(out)])
        assert code == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["learn", "--algo", "pc", "--alpha", "nan"], "alpha must be in (0, 1), got nan"),
        (["learn", "--algo", "pc", "--alpha", "1"], "alpha must be in (0, 1), got 1.0"),
        (["learn", "--algo", "hc", "--max-iter", "0"], "need 1 <= plateau_k <= max_iter"),
        (["learn", "--algo", "hc", "--plateau-k", "0"], "need 1 <= plateau_k <= max_iter"),
        (["sample", "--fixture", "stage1", "--n", "0"], "--n must be >= 1"),
    ], ids=["alpha-nan", "alpha-one", "max-iter-zero", "plateau-k-zero", "n-zero"])
    def test_numeric_argument_out_of_range_is_usage_error(self, repo_root, tmp_path, capsys, argv, message):
        out = tmp_path / "x.json"
        dataset = [] if argv[0] == "sample" else ["--dataset", str(repo_root / "tests/golden/stage1/dataset.json")]
        assert main([*argv, *dataset, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error [usage]: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("ess", ["nan", "inf", "-inf", "0"])
    @pytest.mark.parametrize("command", ["learn", "fit"])
    def test_ess_that_is_not_a_finite_positive_number_is_refused(self, repo_root, tmp_path, capsys, command, ess):
        golden, out = repo_root / "tests/golden/stage1", tmp_path / "x.json"
        argv = (["learn", "--algo", "hc", "--score", "bdeu"] if command == "learn" else
                ["fit", "--estimator", "bayes", "--graph", str(golden / "graph.json")])
        code = main([*argv, "--dataset", str(golden / "dataset.json"), f"--ess={ess}", "--out", str(out)])
        assert code == 2  # a usage error, as a bad --alpha or --theta is
        assert capsys.readouterr() == ("", f"error [usage]: ess must be a finite number > 0, got {float(ess)}\n")
        assert not out.exists()

    def test_unknown_cl_root_is_usage_error(self, repo_root, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(["learn", "--dataset", str(repo_root / "tests/golden/stage1/dataset.json"),
                     "--algo", "cl", "--root", "NOPE", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", "error [usage]: no node named 'NOPE'\n")
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

    @pytest.mark.parametrize("stages", ['"P1"', '[["LIT101"]]', '{"LIT101": [1]}', '{"LIT101": true}'])
    def test_malformed_stage_file_is_data_error(self, repo_root, tmp_path, capsys, stages):
        path = tmp_path / "stages.json"
        path.write_text(stages)
        code = main(["impact", "--net", str(repo_root / "tests/golden/stage1/net.json"),
                     "--attacks", attacks_path("stage1.json"), "--stages", str(path)])
        assert code == 3
        assert "ParseError" in capsys.readouterr().err

    def test_an_integer_stage_id_is_its_decimal_text(self, repo_root, tmp_path, capsys):
        # P101, impacted by lit101-spoof, gives its stage as text and every other DP as a number
        path, out = tmp_path / "stages.json", tmp_path / "impact.json"
        path.write_text(json.dumps({"FIT101": 1, "LIT101": 1, "MV101": 1, "P101": "1", "P102": 1}))
        code = main(["impact", "--net", str(repo_root / "tests/golden/stage1/net.json"),
                     "--attacks", attacks_path("stage1.json"), "--stages", str(path), "--out", str(out)])
        assert code == 0
        report = {r["attack_id"]: r for r in json.loads(out.read_text())}
        assert report["lit101-spoof"]["impacted"] == ["P101", "P102"]
        assert report["lit101-spoof"]["category"] == "TSIS"
        assert "category=TSIS" in capsys.readouterr().out

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

    @pytest.mark.parametrize("command", ["learn", "fit"])
    @pytest.mark.parametrize("edit", [
        lambda data: data.replace(b"[0,", b"[\xff,", 1),
        lambda data: data.replace(b"LIT101", b"LIT\xc3", 1),
        lambda data: data[:-5] + b"\xe2\x82",
    ], ids=["in-records", "in-specs", "cut-at-the-end"])
    def test_dataset_that_is_not_utf8_is_named_as_read_names_it(self, repo_root, tmp_path, capsys, command, edit):
        golden = repo_root / "tests/golden/stage1"
        dataset = tmp_path / "dataset.json"
        dataset.write_bytes(edit((golden / "dataset.json").read_bytes()))
        with pytest.raises(DataError) as raised:
            cli._read(str(dataset))
        out = tmp_path / "out.json"
        argv = (["learn", "--dataset", str(dataset), "--algo", "cl", "--root", "LIT101"] if command == "learn" else
                ["fit", "--dataset", str(dataset), "--graph", str(golden / "graph.json")])
        assert main([*argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error [DataError]: {raised.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["learn", "fit"])
    def test_byte_order_mark_before_a_dataset_is_dropped(self, repo_root, tmp_path, command):
        golden = repo_root / "tests/golden/stage1"
        argv = (["learn", "--algo", "hc"] if command == "learn" else ["fit", "--graph", str(golden / "graph.json")])
        for name, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / f"{name}.json").write_bytes(mark + (golden / "dataset.json").read_bytes())
            assert main([*argv, "--dataset", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "bom").read_bytes() == (tmp_path / "plain").read_bytes()

    @pytest.mark.parametrize("tail", ["[x", "[0,1,2,3,4]]", "", "nope"], ids=["word", "extra-bracket", "no-records",
                                                                          "no-data-key"])
    def test_dataset_that_is_not_json_is_named_as_json_names_it(self, repo_root, tmp_path, capsys, tail):
        golden = repo_root / "tests/golden/stage1"
        text = (golden / "dataset.json").read_text()
        head = text[:text.index(',\n  "data": [')]
        dataset = tmp_path / "dataset.json"
        dataset.write_text(tail if tail == "nope" else head + ',\n  "data": [\n    ' + tail)
        with pytest.raises(json.JSONDecodeError) as raised:
            json.loads(dataset.read_text())
        code = main(["learn", "--dataset", str(dataset), "--algo", "cl", "--root", "LIT101",
                     "--out", str(tmp_path / "graph.json")])
        assert code == 3
        assert capsys.readouterr().err == f"error [DataError]: {dataset} is not valid JSON: {raised.value}\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on an integer's digits")
    @pytest.mark.parametrize("place", ["fit-dataset", "fit-graph", "infer-net", "impact-attacks", "impact-stages"])
    def test_json_integer_past_the_digit_limit_is_parse_error(self, repo_root, tmp_path, place):
        golden = repo_root / "tests/golden/stage1"
        bad = tmp_path / "bad.json"
        # json reads an integer through int(), which refuses more than 4,300 decimal digits
        bad.write_text(f"[{'1' * 5000}]")
        with pytest.raises(ValueError) as raised:
            json.loads(bad.read_text())
        net, out = str(golden / "net.json"), str(tmp_path / "out.json")
        argv = {
            "fit-dataset": ["fit", "--dataset", str(bad), "--graph", str(golden / "graph.json"), "--out", out],
            "fit-graph": ["fit", "--dataset", str(golden / "dataset.json"), "--graph", str(bad), "--out", out],
            "infer-net": ["infer", "--net", str(bad), "--target", "P101"],
            "impact-attacks": ["impact", "--net", net, "--attacks", str(bad)],
            "impact-stages": ["impact", "--net", net, "--attacks", attacks_path("stage1.json"), "--stages", str(bad)],
        }[place]
        file = "attack file" if place == "impact-attacks" else str(bad)
        assert _exit_and_error(argv) == (3, f"error [ParseError]: {file} holds a number that cannot be read: "
                                            f"{raised.value}")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("place", ["export-graph", "compare-right", "learn-dataset", "learn-dataset-specs",
                                       "fit-dataset-specs", "fit-graph", "infer-net", "impact-attacks",
                                       "impact-stages"])
    def test_json_nested_past_the_recursion_limit_is_parse_error(self, repo_root, tmp_path, place):
        golden = repo_root / "tests/golden/stage1"
        deep, deep_specs = tmp_path / "deep.json", tmp_path / "deep_specs.json"
        deep.write_text("[" * 100_000)
        # nested specs ahead of the writer's data key, which the one-digit reader parses first
        text = (golden / "dataset.json").read_text()
        deep_specs.write_text('{"specs": ' + "[" * 100_000 + text[text.index(',\n  "data": ['):])
        with pytest.raises(RecursionError):
            json.loads(deep.read_text())
        graph, net, out = str(golden / "graph.json"), str(golden / "net.json"), str(tmp_path / "out.json")
        argv, bad = {
            "export-graph": (["export", "--graph", str(deep)], deep),
            "compare-right": (["compare", "--left", graph, "--right", str(deep)], deep),
            "learn-dataset": (["learn", "--dataset", str(deep), "--out", out], deep),
            "learn-dataset-specs": (["learn", "--dataset", str(deep_specs), "--out", out], deep_specs),
            "fit-dataset-specs": (["fit", "--dataset", str(deep_specs), "--graph", graph, "--out", out], deep_specs),
            "fit-graph": (["fit", "--dataset", str(golden / "dataset.json"), "--graph", str(deep), "--out", out],
                          deep),
            "infer-net": (["infer", "--net", str(deep), "--target", "P101"], deep),
            "impact-attacks": (["impact", "--net", net, "--attacks", str(deep)], deep),
            "impact-stages": (["impact", "--net", net, "--attacks", attacks_path("stage1.json"), "--stages",
                               str(deep)], deep),
        }[place]
        file = "attack file" if place == "impact-attacks" else str(bad)
        assert _exit_and_error(argv) == (3, f"error [ParseError]: {file} nests its arrays or objects too deeply "
                                            f"to read")
        assert not (tmp_path / "out.json").exists()

    def test_truncated_dataset_is_invalid_json(self, repo_root, tmp_path, capsys):
        dataset = tmp_path / "dataset.json"
        dataset.write_text((repo_root / "tests/golden/stage1/dataset.json").read_text()[:-20])
        code = main(["learn", "--dataset", str(dataset), "--algo", "cl", "--root", "LIT101",
                     "--out", str(tmp_path / "graph.json")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error [DataError]: {dataset} is not valid JSON: ")

    @pytest.mark.parametrize("argv", [["learn", "--algo", "pc"], ["learn", "--algo", "hc"],
                                      ["learn", "--algo", "cl", "--root", "LIT101"], ["fit"]],
                             ids=["pc", "hc", "cl", "fit"])
    def test_dataset_that_repeats_a_name_is_data_error(self, repo_root, tmp_path, capsys, argv):
        golden = repo_root / "tests/golden/stage1"
        obj = json.loads((golden / "dataset.json").read_text())
        obj["specs"][1]["name"] = "LIT101"  # P102, next to LIT101
        obj["specs"][3]["name"] = "P101"  # MV101
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        if argv == ["fit"]:
            argv = ["fit", "--graph", str(golden / "graph.json")]
        assert main([*argv, "--dataset", str(dataset), "--out", str(out)]) == 3
        assert capsys.readouterr().err == \
            "error [ParseError]: variable names must be unique; repeated: 'LIT101', 'P101'\n"
        assert not out.exists()

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


def _src_env(repo_root) -> dict:
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(repo_root / "src"), os.environ.get("PYTHONPATH")]))}


def _new_modules(repo_root, code: str) -> set[str]:
    """The modules that running ``code`` in a fresh interpreter imports."""
    probe = f"import sys; before = set(sys.modules); {code}; print(*sorted(set(sys.modules) - before))"
    run = subprocess.run([sys.executable, "-c", probe], env=_src_env(repo_root), check=True,
                         capture_output=True, text=True)
    return set(run.stdout.split())


def test_package_imports_numpy_as_its_only_dependency(repo_root):
    code = ("import pkgutil, importlib, cpscausal; "
            "[importlib.import_module('cpscausal.' + m.name) for m in pkgutil.iter_modules(cpscausal.__path__)]")
    loaded = _new_modules(repo_root, code)
    assert {"cpscausal.cli", "cpscausal.fixtures", "cpscausal.learning"} <= loaded
    assert {m.partition(".")[0] for m in loaded} - set(sys.stdlib_module_names) == {"cpscausal", "numpy"}


def test_package_and_cli_import_no_numpy(repo_root):
    loaded = _new_modules(repo_root, "import cpscausal, cpscausal.cli")
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("cpscausal")} == \
        {"cpscausal", "cpscausal.cli", "cpscausal.errors", "cpscausal.jsontext"}


# runs main(argv) in a fresh interpreter, then writes the names in sys.modules to the file argv[1]
_COMMAND_PROBE = """
import sys
from cpscausal.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as fh:
    fh.write(" ".join(sys.modules))
sys.exit(code)
"""
_LEARNING_AND_AFTER = {"cpscausal.learning", "cpscausal.impact", "cpscausal.inference", "cpscausal.simgen",
                       "cpscausal.fixtures"}
# OpenSSL's hashlib backend, which the artifact digests load only where
# CPython's builtin SHA-256 is missing
_OPENSSL = {"_hashlib"}
_BUILTIN_SHA256 = sys.implementation.name == "cpython" and any(
    importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
_DISCRETIZE_SKIPS = _LEARNING_AND_AFTER | {"numpy", "cpscausal.ingest", *_OPENSSL}
_FIT_SKIPS = {"numpy", "cpscausal.ingest", "cpscausal.estimation", "cpscausal.learning", "cpscausal.impact",
              "cpscausal.simgen", "cpscausal.fixtures", *_OPENSSL}


@pytest.mark.parametrize("argv, code, absent", [
    (["--version"], 0, {"numpy", *_OPENSSL}),
    (["--help"], 0, {"numpy", *_OPENSSL}),
    (["learn"], 2, {"numpy", *_OPENSSL}),  # argparse: the required arguments are missing
    (["sample", "--fixture", "stage9", "--n", "1", "--out", "x.csv"], 2, {"numpy", "cpscausal.fixtures", *_OPENSSL}),
    (["compare", "--left", "{golden}/graph.json", "--right", "{golden}/graph.json"], 0, {"numpy", *_OPENSSL}),
    (["export", "--graph", "{golden}/graph.json"], 0, {"numpy", *_OPENSSL}),
    (["export", "--graph", "{golden}/graph.json", "--format", "json"], 0, {"numpy", *_OPENSSL}),
    # discretize reads a log, plain, through csv or with a fault, with neither numpy nor ingest
    (["discretize", "--input", "{golden}/sample.csv", "--spec", "{golden}/stage1.vspec", "--out", "{tmp}/d.json"],
     0, _DISCRETIZE_SKIPS),
    (["discretize", "--input", "{tmp}/quoted.csv", "--spec", "{golden}/stage1.vspec", "--out", "{tmp}/d.json"],
     0, _DISCRETIZE_SKIPS),
    (["discretize", "--input", "{tmp}/faulty.csv", "--spec", "{golden}/stage1.vspec", "--out", "{tmp}/d.json"],
     3, _DISCRETIZE_SKIPS),
    # fit counts a dataset file in the writer's layout, and extends a graph
    # with undirected edges, with neither numpy nor ingest, estimation or learning
    (["fit", "--dataset", "{golden}/dataset.json", "--graph", "{tmp}/dag.json", "--out", "{tmp}/net.json"],
     0, _FIT_SKIPS),
    (["fit", "--dataset", "{golden}/dataset.json", "--graph", "{golden}/graph.json", "--out", "{tmp}/net.json"],
     0, _FIT_SKIPS),
    (["fit", "--dataset", "{golden}/dataset.json", "--graph", "{tmp}/dag.json", "--estimator", "bayes", "--ess", "0.37",
      "--out", "{tmp}/net.json"], 0, _FIT_SKIPS),
    (["learn", "--dataset", "{golden}/dataset.json", "--algo", "hc", "--out", "{tmp}/graph.json"],
     0, _LEARNING_AND_AFTER - {"cpscausal.learning", "cpscausal.inference"} | _OPENSSL),
    (["impact", "--net", "{golden}/net.json", "--attacks", attacks_path("stage1.json"), "--out", "{tmp}/impact.json"],
     0, {"numpy", "cpscausal.learning", "cpscausal.simgen", "cpscausal.fixtures", *_OPENSSL}),
    (["impact", "--net", "{golden}/net.json", "--attacks", attacks_path("stage1.json"), "--condition-preconditions",
      "--stages", "{tmp}/stages.json"],
     0, {"numpy", "cpscausal.learning", "cpscausal.simgen", "cpscausal.fixtures", *_OPENSSL}),
    (["infer", "--net", "{golden}/net.json", "--target", "P101", "--evidence", "LIT101=Low,FIT101=High"],
     0, {"numpy", "cpscausal.learning", "cpscausal.simgen", "cpscausal.fixtures", *_OPENSSL}),
], ids=["version", "help", "usage_error", "unknown_fixture", "compare", "export_dot", "export_json",
        "discretize", "discretize_csv_rows", "discretize_fault", "fit_dag", "fit_pdag", "fit_bayes", "learn",
        "impact", "impact_conditioned_staged",
        "infer_evidence"])
def test_each_command_loads_only_the_modules_it_runs(repo_root, tmp_path, argv, code, absent):
    if not _BUILTIN_SHA256:
        absent = absent - _OPENSSL
    golden = repo_root / "tests/golden/stage1"
    # a DAG, which fit needs no learning module to extend
    (tmp_path / "dag.json").write_text(json.dumps(json.loads((golden / "net.json").read_text())["graph"]))
    (tmp_path / "stages.json").write_text(json.dumps({"FIT101": 1, "LIT101": "1", "MV101": 1, "P101": 1, "P102": 1}))
    # the sample log with its timestamps quoted and a blank line, which csv reads, and with a cell that is no number
    header, _, records = (golden / "sample.csv").read_text().partition("\n")
    (tmp_path / "quoted.csv").write_text(header + "\n\n" + re.sub(r"(?m)^(\d+),", r'"\1",', records))
    (tmp_path / "faulty.csv").write_text(header + "\n" + records.replace("480.0", "x", 1))
    argv = [a.format(golden=golden, tmp=tmp_path) for a in argv]
    modules = tmp_path / "modules.txt"
    run = subprocess.run([sys.executable, "-c", _COMMAND_PROBE, str(modules), *argv], env=_src_env(repo_root),
                         capture_output=True, text=True)
    assert run.returncode == code, run.stderr
    loaded = set(modules.read_text().split())
    assert "cpscausal.cli" in loaded
    assert not absent & loaded


# artifacts as _atomic_write takes them, a text or UTF-8 byte chunks (given
# here as their str): empty, ASCII, and characters of two to four UTF-8
# bytes, over more than one _BLOCK_CHARS block
_DIGEST_CASES = {
    "empty-text": "",
    "ascii-text": '{"a": 1}\n',
    "non-ascii-text": "na\u00efve \u2192 \U0001f600\n" * 6000,
    "no-chunks": [],
    "chunks": ["", "ab", "\u00e9\u2192", "\U0001f600" * 70000],
}


def _digest_case_bytes(case) -> bytes:
    return case.encode() if isinstance(case, str) else b"".join(c.encode() for c in case)


@pytest.mark.parametrize("chars", [1, 7, cli._BLOCK_CHARS])
def test_atomic_write_digest_is_the_sha256_of_the_bytes_written(tmp_path, monkeypatch, chars):
    monkeypatch.setattr(cli, "_BLOCK_CHARS", chars)
    for name, case in _DIGEST_CASES.items():
        digest = cli._atomic_write(tmp_path / name, case if isinstance(case, str) else [c.encode() for c in case])
        data = _digest_case_bytes(case)
        assert (tmp_path / name).read_bytes() == data, name
        assert digest == hashlib.sha256(data).hexdigest(), name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_DIGEST_CASES)  # no temp file is left


# writes the cases in the JSON file argv[1] to the directory argv[2] with
# hashlib's SHA-256, once the line ``{hide}`` has hidden the builtin one or
# CPython, and prints their digests
_HASHLIB_FALLBACK_PROBE = """
import json, sys, types
from pathlib import Path
{hide}
import hashlib
from cpscausal import cli
assert cli._new_sha256 is hashlib.sha256, cli._new_sha256
cases, out = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")), Path(sys.argv[2])
print(json.dumps({name: cli._atomic_write(out / name, case if isinstance(case, str) else [c.encode() for c in case])
                  for name, case in cases.items()}))
"""


@pytest.mark.parametrize("hide", [
    'sys.modules["_sha2"] = sys.modules["_sha256"] = None',
    'sys.implementation = types.SimpleNamespace(**{**vars(sys.implementation), "name": "pypy"})',
], ids=["no_builtin", "not_cpython"])
def test_atomic_write_falls_back_to_hashlib_without_a_builtin_sha256(repo_root, tmp_path, hide):
    cases = tmp_path / "cases.json"
    cases.write_text(json.dumps(_DIGEST_CASES), encoding="utf-8")
    out = tmp_path / "out"
    probe = _HASHLIB_FALLBACK_PROBE.replace("{hide}", hide)
    run = subprocess.run([sys.executable, "-c", probe, str(cases), str(out)],
                         env=_src_env(repo_root), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    digests = json.loads(run.stdout)
    for name, case in _DIGEST_CASES.items():
        data = _digest_case_bytes(case)
        assert (out / name).read_bytes() == data, name
        assert digests[name] == hashlib.sha256(data).hexdigest(), name


def test_every_public_name_is_its_modules_own():
    import cpscausal

    namespace = {}
    exec("from cpscausal import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cpscausal.__all__)
    for name in cpscausal.__all__:
        value = getattr(cpscausal, name)
        assert value is namespace[name]
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert set(cpscausal.__all__) <= set(dir(cpscausal))
    with pytest.raises(AttributeError, match="no_such_name"):
        cpscausal.no_such_name


def test_cli_names_resolve_to_the_library_objects():
    import cpscausal.ingest as ingest

    assert cli.parse_log is ingest.parse_log
    for home, names in cli._HOMES.items():
        module = importlib.import_module(f"cpscausal.{home}")
        for name in names:
            assert getattr(cli, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


def test_the_benchmark_tracer_finds_every_name_it_wraps(repo_root, monkeypatch):
    # the traced benchmark pass wraps library names under the module its
    # callers look them up in, so a name that moves out of one fails here
    import cpscausal.impact as impact
    from cpscausal.inference import posterior

    monkeypatch.syspath_prepend(str(repo_root / "bench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert impact.posterior is not posterior
    finally:
        tracer.remove()
    assert impact.posterior is posterior
    assert cli.discover_impact is impact.discover_impact


def test_sample_offers_every_fixture(capsys):
    from cpscausal.fixtures import FIXTURE_NAMES

    sample = cli.build_parser()._subparsers._group_actions[0].choices["sample"]
    fixture = next(a for a in sample._actions if a.dest == "fixture")
    assert tuple(fixture.choices) == cli.FIXTURE_NAMES == FIXTURE_NAMES
    assert "{" + ",".join(FIXTURE_NAMES) + "}" in sample.format_help()
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--fixture", "stage9", "--n", "1", "--out", "x.csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'stage9'" in capsys.readouterr().err


def test_artifacts_are_utf8_whatever_the_locale(repo_root, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"nodes": ["Füll", "LIT101"],
                                 "edges": [{"src": "Füll", "dst": "LIT101", "kind": "learnt"}]}))
    out = tmp_path / "graph.dot"
    # an ASCII locale, with neither UTF-8 mode nor locale coercion to turn it into UTF-8
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(repo_root / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "cpscausal.cli", "export", "--graph", str(graph), "--out", str(out)],
                   env=env, check=True, capture_output=True)
    data = out.read_bytes()
    assert '"Füll" -> "LIT101"'.encode() in data
    manifest = json.loads((tmp_path / "graph.dot.manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"] == {"graph.dot": "sha256:" + hashlib.sha256(data).hexdigest()}


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
    assert read_as_one_array(text) == (cardinality <= 10)


def _names_tracing_reads_off_cli(repo_root) -> set[str]:
    """Every ``cli.<name>`` in bench/tracing.py, and every name its
    ``for attr, name in ((...), ...)`` loops hand to ``self._wrap(cli, attr, ...)``."""
    tree = ast.parse((repo_root / "bench" / "tracing.py").read_text())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cli"}
    for loop in ast.walk(tree):
        if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Tuple) and any(
                isinstance(call, ast.Call) and call.args and isinstance(call.args[0], ast.Name)
                and call.args[0].id == "cli" for call in ast.walk(loop)):
            names |= {pair.elts[0].value for pair in loop.iter.elts}
    return names


def test_bench_hooks_write_and_read_what_discretize_does(repo_root, tmp_path, stage1):
    # bench/tracing.py reads these names off cli, and wraps some of them by setattr
    names = _names_tracing_reads_off_cli(repo_root)
    assert {"parse_log", "learn_pc", "fit_mle", "compare", "discover_impact", "_dump_json"} <= names
    for name in names:
        assert callable(getattr(cli, name)), name
    # it times the dataset write and read through these names of cli
    ds = stage1.sample(300, seed=2)
    log_path, spec_path, out = tmp_path / "log.csv", tmp_path / "stage1.vspec", tmp_path / "dataset.json"
    log_path.write_text(write_historian_csv(ds))
    spec_path.write_text(format_spec_file(ds.specs))
    assert main(["discretize", "--input", str(log_path), "--spec", str(spec_path), "--out", str(out)]) == 0
    again = cli.discretize(cli.parse_log(cli._read(str(log_path))), cli.parse_spec_file(cli._read(str(spec_path))))
    assert cli._dump_json(cli.dataset_to_json(again)).encode() == out.read_bytes()
    back = cli.dataset_from_json(cli._load_json(str(out)))
    assert back.specs == ds.specs
    assert np.array_equal(back.data, ds.data)
    assert read_as_one_array(out.read_text())


@pytest.mark.parametrize("obj", [
    {"edges": [["A", "B"]], "table": [[0.5, 0.5], [1.0, 0.0]], "rows": [1, 2], "flags": [[True]]},
    [], {}, [[]], [[0, 1], [2, 3]], [{"id": "x", "theta": None, "nested": [[1.5]]}], "text", 3,
])
def test_dump_json_is_indented_json_for_everything_else(obj):
    assert cli._dump_json(obj) == json.dumps(obj, indent=2) + "\n"


# --- any JSON value as a graph or net file ---------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["FIT101", "LIT101", "MV101", "P101", "P102", "learnt", "control", "High", "Open", 0.5, 1,
                       10 ** 400]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["nodes", "edges", "src", "dst", "kind", "directed", "graph", "cpts", "child", "parents",
                         "parent_cards", "states", "table", "uniform_rows", "id", "targeted", "preconditions",
                         "description", "theta"]) | st.text(max_size=3),
        inner, max_size=4),
    max_leaves=12)


def _paths(obj, path=()):
    """The path of every value inside ``obj``, ``obj`` itself first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


@st.composite
def _json_files(draw, golden: dict):
    """Any JSON value, or ``golden`` with up to three of its values replaced
    by any JSON value or dropped from their object."""
    if draw(st.booleans()):
        return draw(_JSON_VALUES)
    doc = copy.deepcopy(golden)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return draw(_JSON_VALUES)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON_VALUES)
    return doc


def _exit_and_error(argv: list[str]) -> tuple[int, str]:
    """main's exit code, and the first line it wrote to stderr. stdout is a
    UTF-8 byte stream, as a file or a pipe is, so that text UTF-8 cannot
    write ends in the error it ends in there."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO(), "utf-8")), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().partition("\n")[0]


def _assert_read_or_refused(argv: list[str]) -> tuple[int, str]:
    code, error = _exit_and_error(argv)
    assert code in (0, 3, 4), (argv, code, error)
    assert (code == 0) == (error == ""), (argv, code, error)
    if code:
        assert re.match(r"error \[[A-Za-z]+\]: ", error), error
    return code, error


_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "stage1")
with open(os.path.join(_GOLDEN, "graph.json")) as _fh:
    _GOLDEN_GRAPH = json.load(_fh)
with open(os.path.join(_GOLDEN, "net.json")) as _fh:
    _GOLDEN_NET = json.load(_fh)
with open(attacks_path("stage1.json")) as _fh:
    _STAGE1_ATTACKS = json.load(_fh)


@given(doc=_json_files(_GOLDEN_GRAPH))
@settings(deadline=None)
def test_any_graph_file_is_read_or_refused_with_its_error_class(tmp_path_factory, doc):
    d = tmp_path_factory.mktemp("graph")
    path = d / "graph.json"
    path.write_text(json.dumps(doc))
    golden = os.path.join(_GOLDEN, "graph.json")
    for argv in (["export", "--graph", str(path)],
                 ["export", "--graph", str(path), "--format", "json"],
                 ["compare", "--left", golden, "--right", str(path)],
                 ["fit", "--dataset", os.path.join(_GOLDEN, "dataset.json"), "--graph", str(path),
                  "--out", str(d / "net.json")]):
        _assert_read_or_refused(argv)


@given(doc=_json_files(_GOLDEN_NET))
@settings(deadline=None)
def test_any_net_file_is_read_or_refused_with_its_error_class(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("net") / "net.json"
    path.write_text(json.dumps(doc))
    for target in ("FIT101", "P101"):
        _assert_read_or_refused(["infer", "--net", str(path), "--target", target])


def _well_formed_preconditions(doc) -> bool:
    """Whether every attack record that gives preconditions gives an object of state labels."""
    records = [rec for rec in doc if isinstance(rec, dict) and "preconditions" in rec] if isinstance(doc, list) else []
    return all(isinstance(rec["preconditions"], dict) and all(isinstance(label, str)
                                                              for label in rec["preconditions"].values())
               for rec in records)


@given(doc=_json_files(_STAGE1_ATTACKS))
@settings(deadline=None)
def test_any_attack_file_is_read_or_refused_with_its_error_class(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("attacks") / "attacks.json"
    path.write_text(json.dumps(doc))
    argv = ["impact", "--net", os.path.join(_GOLDEN, "net.json"), "--attacks", str(path)]
    plain = _assert_read_or_refused(argv)
    conditioned = _assert_read_or_refused(argv + ["--condition-preconditions"])
    # the file is checked when it loads, so a parse error does not depend on the flag
    assert (plain[0] == 3) == (conditioned[0] == 3)
    if plain[0] == 3:
        assert plain == conditioned
    if plain[0] == 0:
        assert _well_formed_preconditions(doc)


# --- any variable-spec file -------------------------------------------------------

_SPEC_NUMBERS = (st.sampled_from(["1_0", "\u0661", "\uff11", "1e400", "nan", "-inf", "0x10", "1.5", "2", "-1", "", "+3",
                                  "210.0", "750.0", str(2**64), "9" * 5000])
                 | st.integers(-3, 3).map(str) | st.floats().map(repr) | st.text(max_size=3))


@st.composite
def _spec_files(draw):
    """Text that is, or is close to, a variable-spec file for the stage1 log."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)):
            name = draw(st.sampled_from(["P101", "P102", "LIT101", "MV101", "FIT101", "NOPE"]) | st.text(max_size=3))
            kind = draw(st.sampled_from(["sensor", "actuator"]) | st.text(max_size=3))
            states = ",".join(draw(st.lists(st.sampled_from(["Low", "Medium", "High", "Off", "On", "Close", "Open"])
                                            | st.text(max_size=2), max_size=4)))
            attribute = draw(st.sampled_from(["", "edges=", "codes=", "steps="]))
            if attribute:
                attribute += ",".join(draw(st.lists(_SPEC_NUMBERS, min_size=1, max_size=3)))
            line = " ".join([name, kind, states, attribute])
        else:
            line = draw(st.text(max_size=20))
        lines.append(line + draw(st.sampled_from(["", " # note"])))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


with open(os.path.join(_GOLDEN, "sample.csv"), newline="") as _fh:
    _GOLDEN_LOG_HEAD = "".join(_fh.readlines()[:41])  # the header and 40 records


@given(text=_spec_files())
@settings(deadline=None)
def test_any_spec_file_is_read_or_refused_with_its_error_class(tmp_path_factory, text):
    d = tmp_path_factory.mktemp("spec")
    (d / "log.csv").write_text(_GOLDEN_LOG_HEAD)
    (d / "log.vspec").write_bytes(text.encode())
    _assert_read_or_refused(["discretize", "--input", str(d / "log.csv"), "--spec", str(d / "log.vspec"),
                             "--out", str(d / "dataset.json")])
