import gc
import json
import random
import re
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpscausal import ingest
from cpscausal.errors import (
    CpsCausalError,
    DegenerateColumn,
    EmptyInput,
    MissingColumn,
    NonNumericCell,
    ParseError,
    RaggedRow,
    UnknownColumn,
    UnmappedActuatorValue,
)
from cpscausal.ingest import (
    ACTUATOR,
    SENSOR,
    RawLog,
    VariableSpec,
    dataset_from_json,
    dataset_from_text,
    dataset_to_json,
    discretize,
    format_spec_file,
    parse_log,
    parse_spec_file,
    project,
    records_json,
    suggest_bins,
)
from oracles import reference_dataset_from_text, reference_discretize, reference_parse_log, reference_state_of

LIT101 = VariableSpec("LIT101", SENSOR, ("Low", "Medium", "High"), bin_edges=(210.0, 750.0))
MV101 = VariableSpec("MV101", ACTUATOR, ("Close", "Open"), codes=(1, 2))


class TestParseLog:
    def test_minimal_well_formed(self):
        log = parse_log("LIT101,MV101\n100.5,1\n800.25,2\n")
        assert log.columns == ("LIT101", "MV101")
        assert log.n_records == 2
        assert log.values[1, 0] == 800.25

    def test_header_only_is_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_log("LIT101,MV101\n")

    def test_blank_text_is_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_log("")

    def test_ragged_row(self):
        with pytest.raises(RaggedRow):
            parse_log("A,B\n1,2,3\n")

    def test_non_numeric_cell(self):
        with pytest.raises(NonNumericCell):
            parse_log("A,B\n1,x\n")

    def test_missing_value_rejected(self):
        with pytest.raises(NonNumericCell):
            parse_log("A,B\n1,\n")

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1_0"])
    def test_non_finite_or_underscored_cell_rejected(self, cell):
        # Python's float() reads all three
        with pytest.raises(NonNumericCell, match=re.escape(f"line 3, column 'B': {cell!r}")):
            parse_log(f"A,B\n1,2\n1,{cell}\n")

    @pytest.mark.parametrize("text, message", [
        ("A,B\n\n\n1,x\n", "line 4, column 'B': 'x'"),
        ('Timestamp,A\n"28/12/2015\n10:00",1\nt1,x\n', "line 4, column 'A': 'x'"),
        ('Timestamp,A\n"a\nb\nc",1\n\nt1,2,3\n', "line 6: expected 2 cells, got 3"),
    ])
    def test_error_names_the_line_the_record_starts_on(self, text, message):
        # blank lines and quoted cells that span lines count as lines of the text
        with pytest.raises((NonNumericCell, RaggedRow), match=re.escape(message)):
            parse_log(text)

    def test_timestamp_column_set_aside(self):
        log = parse_log("Timestamp,A\n 2015-12-28 10:00:00,1\nlater,2\n")
        assert log.columns == ("A",)
        assert log.timestamps == ("2015-12-28 10:00:00", "later")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ParseError):
            parse_log("A,A\n1,2\n")

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("text, error", [("A,B\n1,2\n", None), ("A,B\n1,2,3\n", RaggedRow)],
                             ids=["parsed", "ragged"])
    def test_garbage_collector_left_as_the_caller_had_it(self, collecting, text, error):
        was_collecting = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            with pytest.raises(error) if error else nullcontext():
                parse_log(text)
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was_collecting else gc.disable)()


class TestSuggestBins:
    def test_equal_width_midpoint(self):
        log = parse_log("X\n" + "\n".join(str(v) for v in range(10)))
        assert suggest_bins(log, "X", 2, "equal_width") == (4.5,)

    def test_quantile_median(self):
        # oracle: the empirical median of 0..9 by sorting
        values = list(range(10))
        median = float(np.quantile(values, 0.5))
        log = parse_log("X\n" + "\n".join(str(v) for v in values))
        assert suggest_bins(log, "X", 2, "quantile") == (median,)

    def test_constant_column_degenerate(self):
        log = parse_log("X\n3\n3\n3\n")
        with pytest.raises(DegenerateColumn):
            suggest_bins(log, "X", 2, "equal_width")

    def test_collapsed_quantile_edges_degenerate(self):
        log = parse_log("X\n1\n1\n1\n1\n9\n")
        with pytest.raises(DegenerateColumn):
            suggest_bins(log, "X", 4, "quantile")

    def test_unknown_column(self):
        log = parse_log("X\n1\n2\n")
        with pytest.raises(UnknownColumn):
            suggest_bins(log, "Y", 2)

    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60),
           n_bins=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_equal_width_partitions_evenly(self, values, n_bins):
        log = parse_log("X\n" + "\n".join(repr(v) for v in values))
        lo, hi = min(values), max(values)
        if lo == hi:
            return
        edges = suggest_bins(log, "X", n_bins, "equal_width")
        assert len(edges) == n_bins - 1
        widths = np.diff([lo, *edges, hi])
        assert np.all(np.abs(widths - (hi - lo) / n_bins) <= 1e-12 * max(1.0, abs(hi), abs(lo)))


class TestDiscretize:
    def test_sensor_intervals(self):
        log = parse_log("LIT101\n100\n500\n900\n")
        ds = discretize(log, [LIT101])
        assert ds.data[:, 0].tolist() == [0, 1, 2]  # Low, Medium, High

    def test_edge_value_goes_to_upper_interval(self):
        log = parse_log("LIT101\n210\n750\n")
        ds = discretize(log, [LIT101])
        assert ds.data[:, 0].tolist() == [1, 2]

    def test_actuator_codes(self):
        log = parse_log("MV101\n1\n2\n1\n")
        ds = discretize(log, [MV101])
        assert ds.data[:, 0].tolist() == [0, 1, 0]

    def test_unmapped_actuator_value(self):
        log = parse_log("MV101\n3\n")
        message = "MV101: code 3 not in declared codes (1, 2)"
        with pytest.raises(UnmappedActuatorValue, match=f"^{re.escape(message)}$"):
            discretize(log, [MV101])

    def test_missing_column(self):
        log = parse_log("A\n1\n")
        with pytest.raises(MissingColumn):
            discretize(log, [MV101])

    @pytest.mark.parametrize("reading, shown", [(1.5, "1.5"), (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
    def test_non_integer_actuator_reading_shows_the_plain_value(self, reading, shown):
        # a RawLog built through the API can hold NaN or inf, which parse_log rejects
        log = RawLog(columns=("MV101",), values=np.array([[1.0], [reading]]))
        message = f"MV101: non-integer actuator value {shown}"
        with pytest.raises(UnmappedActuatorValue, match=f"^{re.escape(message)}$"):
            discretize(log, [MV101])

    def test_rebinning_is_identity(self):
        # pushing the labelled output back through the same mapping changes nothing
        rng = np.random.default_rng(5)
        raw = rng.uniform(50, 1000, size=200)
        log = parse_log("LIT101\n" + "\n".join(repr(float(v)) for v in raw))
        ds = discretize(log, [LIT101])
        again = np.array([reference_state_of(LIT101, [100.0, 500.0, 900.0][s]) for s in ds.data[:, 0]])
        assert np.array_equal(again, ds.data[:, 0])

    def test_histogram_conserves_records(self):
        rng = np.random.default_rng(6)
        raw = rng.uniform(0, 1200, size=500)
        log = parse_log("LIT101\n" + "\n".join(repr(float(v)) for v in raw))
        ds = discretize(log, [LIT101])
        assert np.bincount(ds.data[:, 0], minlength=3).sum() == 500


class TestProject:
    def _ds(self):
        log = parse_log("LIT101,MV101\n100,1\n500,2\n")
        return discretize(log, [LIT101, MV101])

    def test_identity(self):
        ds = self._ds()
        out = project(ds, ["LIT101", "MV101"])
        assert out.names == ds.names
        assert np.array_equal(out.data, ds.data)

    def test_subset_preserves_records(self):
        out = project(self._ds(), ["MV101"])
        assert out.names == ("MV101",)
        assert out.n_records == 2

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            project(self._ds(), ["FIT999"])

    def test_slice_stage_from_wide_dataset(self):
        # carve the stage-1 feature vector out of a wider plant dataset
        from cpscausal.fixtures import get_fixture
        wide = get_fixture("twostage").sample(100, seed=1)
        names = ["P101", "P102", "LIT101", "MV101", "FIT101"]
        out = project(wide, names)
        assert out.names == tuple(names)
        assert out.n_records == 100
        for n in names:
            assert np.array_equal(out.column(n), wide.column(n))


class TestSpecFile:
    TEXT = """\
# stage-1 variables
LIT101 sensor Low,Medium,High edges=210.0,750.0
MV101 actuator Close,Open codes=1,2
P101 actuator Off,On
"""

    def test_round_trip(self):
        specs = parse_spec_file(self.TEXT)
        assert specs[0] == LIT101
        assert specs[1] == MV101
        assert specs[2].codes is None
        assert parse_spec_file(format_spec_file(specs)) == specs

    def test_bad_line(self):
        with pytest.raises(ParseError):
            parse_spec_file("LIT101 sensor\n")

    def test_sensor_edge_count_enforced(self):
        with pytest.raises(ParseError):
            parse_spec_file("LIT101 sensor Low,High edges=1,2\n")

    @pytest.mark.parametrize("edges", ["nan,750", "210,inf", "-inf,750"])
    def test_non_finite_edge_rejected(self, edges):
        # NaN compares False both ways, so the increasing check alone lets it through
        with pytest.raises(ParseError, match="line 1: LIT101: bin edges must be finite"):
            parse_spec_file(f"LIT101 sensor Low,Medium,High edges={edges}\n")


def test_dataset_json_round_trip():
    log = parse_log("LIT101,MV101\n100,1\n500,2\n900,1\n")
    ds = discretize(log, [LIT101, MV101])
    back = dataset_from_json(dataset_to_json(ds))
    assert back.specs == ds.specs
    assert np.array_equal(back.data, ds.data)


def test_dataset_json_rejects_non_finite_edge():
    obj = dataset_to_json(discretize(parse_log("LIT101\n100\n"), [LIT101]))
    obj["specs"][0]["bin_edges"] = [float("nan"), 750.0]
    with pytest.raises(ParseError, match="LIT101: bin edges must be finite"):
        dataset_from_json(json.loads(json.dumps({**obj, "data": obj["data"].tolist()})))


def test_dataset_json_in_the_indented_layout_still_loads():
    ds = discretize(parse_log("LIT101,MV101\n100,1\n500,2\n900,1\n"), [LIT101, MV101])
    old_layout = json.dumps({**dataset_to_json(ds), "data": ds.data.tolist()}, indent=2)  # one cell per line
    assert "[\n      0,\n      0\n    ]" in old_layout
    for back in dataset_from_json(json.loads(old_layout)), dataset_from_text(old_layout):
        assert back.specs == ds.specs
        assert np.array_equal(back.data, ds.data)


class _Raw(str):
    """JSON text pasted into a generated document as it is."""


class _Pairs(list):
    """A JSON object as (key, value) pairs, so that a key can repeat."""


# cells that are not JSON integers, are not JSON, or are integers that no
# list of ints in int64 holds; "-0" and int64's extremes are valid
_ODD_CELLS = ["1.5", "1.0", "1E2", "1e30", "-0", "01", "+1", "1 2", "- 1", "true", "false", "null",
              '"1"', "[1]", "{}", "NaN", "Infinity", "-Infinity", "\u0661", "0x1",
              str(2**63 - 1), str(-2**63), str(2**63), str(2**70)]
_WHITESPACE = ["", "", "", " ", "\n", "\n    ", "\t", "\r\n  "]


def _emit(value, rnd: random.Random) -> str:
    """``value`` as JSON text with random JSON whitespace between tokens."""
    def ws():
        return rnd.choice(_WHITESPACE)

    if isinstance(value, _Raw):
        return value
    if isinstance(value, dict):
        value = _Pairs(value.items())
    if isinstance(value, _Pairs):
        return "{" + ws() + ",".join(
            f"{ws()}{json.dumps(key, ensure_ascii=rnd.random() < 0.5)}{ws()}:{ws()}{_emit(item, rnd)}{ws()}"
            for key, item in value) + ws() + "}"
    if isinstance(value, list):
        return "[" + ws() + ",".join(ws() + _emit(item, rnd) + ws() for item in value) + ws() + "]"
    return json.dumps(value)


@st.composite
def _dataset_documents(draw):
    """Dataset JSON text, and whether it is a well-formed dataset whose
    records are in the CLI's one-record-per-line layout."""
    cards = draw(st.lists(st.sampled_from([2, 3, 12, 150]), min_size=1, max_size=3))
    names = draw(st.lists(st.sampled_from(["P101", "LIT101", 'A"B', "back\\slash", "tab\tname", "Füll", "\u2603"]),
                          min_size=len(cards), max_size=len(cards), unique=True))
    specs = [{"name": name, "kind": "actuator", "states": [f"s{k}" for k in range(card)],
              "bin_edges": None, "codes": None} for name, card in zip(names, cards)]
    rows = draw(st.lists(st.tuples(*(st.integers(0, card - 1) for card in cards)).map(list),
                         min_size=1, max_size=4))
    rnd = draw(st.randoms(use_true_random=False))
    fault = draw(st.sampled_from([None, None, None, "cell", "ragged", "records", "specs", "duplicate", "truncate"]))
    data = rows
    if fault == "cell":
        rows[rnd.randrange(len(rows))][rnd.randrange(len(cards))] = _Raw(draw(st.sampled_from(_ODD_CELLS)))
    elif fault == "ragged":
        row = rows[rnd.randrange(len(rows))]
        row.append(0) if rnd.random() < 0.5 else row.pop()
    elif fault == "records":
        data = _Raw(rnd.choice(["[]", "[[]]", "[[],[]]", "5", '"x"', "null", "{}", "[[[0]]]", "[0,1]", "[[0]"]))
    one_record_per_line = fault != "records" and rnd.random() < 0.5
    if one_record_per_line:
        data = _Raw(_records_layout(rows))
    pairs = _Pairs([("specs", specs), ("data", data)])
    if fault == "specs":
        pairs.pop(0)
    if rnd.random() < 0.3:
        pairs.append(("note", {"data": [[1.5]], "text": "]]"}))
    if fault == "duplicate":  # the last "data" wins
        pairs.insert(rnd.randrange(len(pairs) + 1), ("data", rnd.choice([[[1.5]], [[0, 1], [0]], "x", [[0] * len(cards)]])))
    rnd.shuffle(pairs)
    layout = rnd.choice(["random", "compact", "indent"])
    if layout == "random" or one_record_per_line or fault in ("cell", "records", "duplicate"):
        text = _emit(pairs, rnd)
    else:
        text = json.dumps(dict(pairs), indent=2 if layout == "indent" else None)
    if fault == "truncate":
        text = text[:rnd.randrange(len(text))]
    return text, fault is None and one_record_per_line


def _records_layout(rows) -> str:
    """``rows`` in the layout the CLI writes dataset records in."""
    return "[\n    " + ",\n    ".join("[" + ",".join(map(str, row)) + "]" for row in rows) + "\n  ]"


def _read_outcome(read, text):
    """The dataset ``read(text)`` gives, or the class and message of its error."""
    try:
        ds = read(text)
    except (CpsCausalError, json.JSONDecodeError) as exc:
        return type(exc), str(exc)
    return ds.specs, ds.data.dtype, ds.data.tolist()


@given(document=_dataset_documents())
@settings(max_examples=200, deadline=None)
def test_dataset_from_text_matches_reference(document):
    text, well_formed = document
    assert _read_outcome(dataset_from_text, text) == _read_outcome(reference_dataset_from_text, text)
    if well_formed:
        assert _read_as_one_array(text)


def _read_as_one_array(text) -> bool:
    """Whether the reader takes the records of ``text`` as one array, with no
    list per record."""
    try:
        return isinstance(ingest._json_object(text)["data"], np.ndarray)
    except ValueError:  # not one JSON object
        return False


_TWO_SPECS = json.dumps([{"name": name, "kind": "actuator", "states": ["s0", "s1", "s2"]} for name in "AB"])
DATASET_TEXT_CORPUS = {
    # in the CLI's layout, read as one array
    "one-record-per-line": ("[\n    [0,1],\n    [2,0]\n  ]", True),
    "one-record": ("[\n    [0,1]\n  ]", True),
    "int64-extremes": ("[\n    [9223372036854775807,-9223372036854775808]\n  ]", True),
    "negative": ("[\n    [-1,0]\n  ]", True),
    "no-columns": ("[\n    []\n  ]", True),
    # in the CLI's layout but for one fault, left to json
    "layout-beyond-int64": ("[\n    [9223372036854775808,0]\n  ]", False),
    "layout-below-int64": ("[\n    [-9223372036854775809,0]\n  ]", False),
    "layout-minus-zero": ("[\n    [-0,1]\n  ]", False),
    "layout-leading-zero": ("[\n    [01,1]\n  ]", False),
    "layout-float": ("[\n    [1.0,0]\n  ]", False),
    "layout-ragged": ("[\n    [0,1],\n    [0]\n  ]", False),
    "layout-ragged-same-cell-count": ("[\n    [0,1,2],\n    [0,1,2,0],\n    [1,2]\n  ]", False),
    "layout-space-in-row": ("[\n    [0, 1]\n  ]", False),
    "layout-space-splits-number": ("[\n    [1 2,0]\n  ]", False),
    "layout-empty-cell": ("[\n    [0,,1]\n  ]", False),
    "layout-two-rows-a-line": ("[\n    [0,1],[2,0]\n  ]", False),
    "layout-crlf": ("[\r\n    [0,1]\r\n  ]", False),
    "layout-string": ('[\n    ["1",0]\n  ]', False),
    # well-formed, in other layouts, left to json
    "compact": ("[[0,1],[2,0]]", False),
    "one-cell-per-line": ("[\n  [\n    0,\n    1\n  ],\n  [\n    2,\n    0\n  ]\n]", False),
    "spaces-everywhere": (" [ [ 0 , 1 ] ,\t[ 2 ,\r\n0 ] ] ", False),
    "compact-no-columns": ("[[],[]]", False),
    "minus-zero": ("[[-0,1]]", False),
    "empty": ("[]", False),
    # not JSON
    "space-splits-number": ("[[1 2,0]]", False),
    "space-after-minus": ("[[- 1,0]]", False),
    "leading-zero": ("[[01,1]]", False),
    "plus-sign": ("[[+1,1]]", False),
    "hex": ("[[0x1,1]]", False),
    "empty-cell": ("[[0,,1]]", False),
    "trailing-comma": ("[[0,1],]", False),
    "extra-bracket": ("[[0,1]]]", False),
    "unclosed": ("[[0,1],[2,0]", False),
    "unclosed-layout": ("[\n    [0,1],\n    [2,0]", False),
    "non-ascii-digit": ("[[\u0661,0]]", False),
    # JSON, but not a dataset
    "rows-of-unequal-width": ("[[0,1],[0],[0,1,0]]", False),
    "nested-list": ("[[0,[1]]]", False),
    "flat-list": ("[0,1]", False),
    "beyond-int64": ("[[9223372036854775808,0]]", False),
    "float": ("[[1.0,0]]", False),
    "exponent": ("[[1e0,0]]", False),
    "bool": ("[[true,0]]", False),
    "string": ('[["1",0]]', False),
    "null": ("[[null,0]]", False),
    "nan": ("[[NaN,0]]", False),
}
DATASET_DOCUMENT_CORPUS = {
    "data-first": f'{{"data": [[0,1]], "specs": {_TWO_SPECS}, "note": "]]"}}',
    "last-data-wins": f'{{"data": [[1.5,0]], "specs": {_TWO_SPECS}, "data": [[0,1]]}}',
    "last-data-is-bad": f'{{"data": [[0,1]], "specs": {_TWO_SPECS}, "data": [[1.5,0]]}}',
    "escaped-keys": f'{{"sp\\u0065cs": {_TWO_SPECS}, "d\\u0061ta": [[0,1]]}}',
    "no-data": f'{{"specs": {_TWO_SPECS}}}',
    "byte-order-mark": f'\ufeff{{"specs": {_TWO_SPECS}, "data": [[0,1]]}}',
    "text-after-object": f'{{"specs": {_TWO_SPECS}, "data": [[0,1]]}} x',
    "trailing-comma-in-object": f'{{"specs": {_TWO_SPECS}, "data": [[0,1]],}}',
    "top-level-array": "[[0,1]]",
    "empty-object": "{}",
    "no-text": "",
}


@pytest.mark.parametrize("records, one_array", DATASET_TEXT_CORPUS.values(), ids=DATASET_TEXT_CORPUS.keys())
def test_dataset_records_read_as_the_reference_reads_them(records, one_array):
    text = f'{{"specs": {_TWO_SPECS}, "data": {records}}}'
    assert _read_outcome(dataset_from_text, text) == _read_outcome(reference_dataset_from_text, text)
    assert _read_as_one_array(text) == one_array


@pytest.mark.parametrize("text", DATASET_DOCUMENT_CORPUS.values(), ids=DATASET_DOCUMENT_CORPUS.keys())
def test_dataset_document_read_as_the_reference_reads_it(text):
    assert _read_outcome(dataset_from_text, text) == _read_outcome(reference_dataset_from_text, text)


@pytest.mark.parametrize("cell", ["1.5", "true", '"1"', "1e30", str(2**70)])
def test_dataset_cell_that_is_not_an_integer_is_a_parse_error(cell):
    text = json.dumps({"specs": [{"name": "A", "kind": "actuator", "states": ["s0", "s1"]}], "data": [[0], [1]]})
    text = text.replace("[1]", f"[{cell}]")
    for read in dataset_from_text, reference_dataset_from_text:
        with pytest.raises(ParseError, match="malformed dataset JSON"):
            read(text)


def test_dataset_from_json_reads_an_integer_array_and_rejects_others():
    specs = ({"name": "A", "kind": "actuator", "states": ["s0", "s1"]},)
    assert dataset_from_json({"specs": specs, "data": np.array([[0], [1]], dtype=np.uint8)}).data.tolist() == [[0], [1]]
    for data in np.array([[0.0], [1.0]]), np.array([[False], [True]]):
        with pytest.raises(ParseError):
            dataset_from_json({"specs": specs, "data": data})


@pytest.mark.parametrize("data", [
    [[-9223372036854775808, 9223372036854775807, 0], [-5, 10, -10]],
    [[0, 1], [1, 0]],
    [[], []],
], ids=["int64-extremes", "one-digit", "no-columns"])
def test_records_json_writes_each_row_as_compact_json(data):
    text = records_json(np.array(data, dtype=np.int64), b",\n    ")
    assert text == ",\n    ".join(json.dumps(row, separators=(",", ":")) for row in data).encode()
    assert json.loads(b"[" + text + b"]") == data


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the class and message of its library error."""
    try:
        return fn(*args)
    except CpsCausalError as exc:
        return type(exc), str(exc)


PARSE_CORPUS = {
    "timestamp-first": "Timestamp,A,B\nt0,1,2\nt1,3,4\n",
    "timestamp-middle": "A,timestamp,B\n1,t0,2\n3,t1,4\n",
    "timestamp-only": "Timestamp\nt0\nt1\n",
    "two-timestamp-columns": "Timestamp,A,TIMESTAMP\nt0,1,u0\n",
    "underscore-in-timestamp": "Timestamp,A\n2015_12_28,1\n",
    "single-value-column": "A\n1\n2\n3\n",
    "quoted-cells": '"Timestamp","A","B"\n"28/12/2015, 10:00","1","2"\n',
    "padded-cells": " A , B \n 1 ,\t2\t\n  3,4  \n",
    "separator-padding": "A\n\x1c1\x1f\n",
    "blank-rows": "A,B\n\n1,2\n   \n , \n3,4\n\n",
    "numeric-forms": "A,B,C,D\n1e3,+2,-0.0,.5\n-1E-3,0,1.,7\n",
    "semicolons-are-one-cell": "A\n1;2\n",
    "nan": "A,B\n1,2\n1,nan\n",
    "minus-inf": "A,B\n1,-inf\n",
    "infinity": "A\nInfinity\n",
    "digit-group": "A,B\n1_0,2\n",
    "empty-cell": "A,B\n1,\n",
    "word": "A,B\n1,x\n",
    "ragged-long": "A,B\n1,2,3\n",
    "ragged-short": "A,B\n1,2\n3\n",
    "non-numeric-then-ragged": "A,B\n1,x\n1,2,3\n",
    "ragged-then-non-numeric": "A,B\n1,2,3\n1,x\n",
    "blank-lines-before-bad-cell": "A,B\n\n\n1,x\n",
    "blank-lines-before-header": "\n \nA,B\n1,2\n1,nan\n",
    "whitespace-lines-before-ragged-row": "A,B\n  \n\t\n1,2,3\n",
    "crlf-blank-line-before-bad-cell": "A,B\r\n\r\n1,x\r\n",
    "multi-line-quote-before-bad-cell": 'Timestamp,A\n"28/12/2015\n10:00",1\nt1,x\n',
    "multi-line-quote-before-ragged-row": 'Timestamp,A\n"a\nb\nc",1\n\nt1,2,3\n',
    "multi-line-quote-in-bad-record": 'Timestamp,A\nt0,1\n"a\nb",x\n',
    "bad-value-column-only": "Timestamp,A\nnot-a-time,oops\n",
    "no-text": "",
    "header-only": "A,B\n",
    "duplicate-columns": "A,A\n1,2\n",
    "empty-column-name": "A,\n1,2\n",
}


@pytest.mark.parametrize("text", PARSE_CORPUS.values(), ids=PARSE_CORPUS.keys())
def test_parse_log_matches_reference(text):
    got, want = _outcome(parse_log, text), _outcome(reference_parse_log, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert (got.columns, got.timestamps) == (want.columns, want.timestamps)
        assert got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()  # -0.0 keeps its sign


def _actuator(codes, n_states=2):
    return VariableSpec("MV101", ACTUATOR, tuple(f"s{k}" for k in range(n_states)), codes=codes)


DISCRETIZE_CORPUS = {
    "sensor-on-edges": ("LIT101\n210\n750\n209.999\n-0.0\n1e9\n", [LIT101]),
    "codes-sorted": ("MV101\n1\n2\n2\n", [_actuator((1, 2))]),
    "codes-unsorted": ("MV101\n1\n2\n2\n", [_actuator((2, 1))]),
    "codes-negative": ("MV101\n-1\n3\n-7\n", [_actuator((3, -1, -7), 3)]),
    "codes-omitted": ("MV101\n0\n2\n1\n", [_actuator(None, 3)]),
    "near-integer": ("MV101\n1.0000000001\n1.9999999999\n", [_actuator((1, 2))]),
    "code-float64-cannot-hold": ("MV101\n9007199254740992\n", [_actuator((1, 2**53 + 1))]),
    "huge-code": ("MV101\n1\n", [_actuator((1, 10**400))]),
    "numpy-codes": ("MV101\n2\n1\n", [_actuator((np.int64(1), np.float64(2.0)))]),
    "text-codes": ("MV101\n1\n", [_actuator(("1", "2"))]),  # from a hand-edited dataset JSON
    "non-integer": ("MV101\n1\n1.5\n", [_actuator((1, 2))]),
    "slightly-off-integer": ("MV101\n1.000001\n", [_actuator((1, 2))]),
    "undeclared": ("MV101\n1\n3\n", [_actuator((1, 2))]),
    "undeclared-negative": ("MV101\n-2\n", [_actuator(None)]),
    "undeclared-before-non-integer": ("MV101\n5\n1.5\n", [_actuator((1, 2))]),
    "non-integer-before-undeclared": ("MV101\n1.5\n5\n", [_actuator((1, 2))]),
    "mixed": ("LIT101,MV101\n100,2\n800,1\n", [_actuator((2, 1)), LIT101]),
    "missing-column": ("A\n1\n", [_actuator((1, 2))]),
}


@pytest.mark.parametrize("text, specs", DISCRETIZE_CORPUS.values(), ids=DISCRETIZE_CORPUS.keys())
def test_discretize_matches_reference(text, specs):
    log = parse_log(text)
    got, want = _outcome(discretize, log, specs), _outcome(reference_discretize, log, specs)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.specs == want.specs
        assert got.data.dtype == want.data.dtype
        assert np.array_equal(got.data, want.data)
