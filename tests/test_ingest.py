import codecs
import csv
import gc
import io
import json
import random
import re
import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpscausal import cli, datafile, ingest, logfile
from cpscausal.errors import (
    CpsCausalError,
    DataError,
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
    DiscreteDataset,
    LogText,
    RawLog,
    VariableSpec,
    dataset_from_json,
    dataset_from_text,
    dataset_json_chunks,
    dataset_to_json,
    discretize,
    discretize_text,
    format_spec_file,
    parse_log,
    parse_spec_file,
    project,
    read_dataset_file,
    records_json,
)
from cpscausal.fixtures import FIXTURE_NAMES, get_fixture
from cpscausal.jsontext import json_text
from cpscausal.simgen import sample_with_clamp, write_historian_csv
from oracles import (
    read_as_one_array,
    reference_dataset_from_text,
    reference_discretize,
    reference_parse_log,
    reference_state_of,
)

LIT101 = VariableSpec("LIT101", SENSOR, ("Low", "Medium", "High"), bin_edges=(210.0, 750.0))
MV101 = VariableSpec("MV101", ACTUATOR, ("Close", "Open"), codes=(1, 2))


class TestParseLog:
    def test_minimal_well_formed(self):
        log = parse_log("LIT101,MV101\n100.5,1\n800.25,2\n")
        assert log.columns == ("LIT101", "MV101")
        assert log.n_records == 2
        assert log.values[1, 0] == 800.25
        assert log.column("MV101").tolist() == [1.0, 2.0]
        with pytest.raises(UnknownColumn, match="no column named 'LIT102'"):
            log.column("LIT102")

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

    def test_digit_outside_ascii_rejected(self):
        # float() reads U+0661, ARABIC-INDIC DIGIT ONE, as 1.0
        with pytest.raises(NonNumericCell, match=re.escape("line 2, column 'A': '\u0661'")):
            parse_log("A\n\u0661\n")

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

    def test_repeated_name_is_parse_error(self):
        with pytest.raises(ParseError, match="repeated: 'MV101'"):
            project(self._ds(), ["MV101", "LIT101", "MV101"])

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


class TestVariableSpec:
    def test_name_that_is_not_text_is_parse_error(self):
        # a dataset JSON may hold any JSON value where a name belongs
        with pytest.raises(ParseError, match="variable name must be text"):
            VariableSpec(["MV101"], ACTUATOR, ("Close", "Open"))


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

    @pytest.mark.parametrize("attribute", ["edges=1_0", "edges=\u0661", "edges=2,1_000", "codes=1_0,2",
                                           "codes=\u0661,2", "edges=\uff11"])
    def test_number_the_log_reader_refuses_is_refused(self, attribute):
        # float() and int() read each of these; a log cell holding one is refused too
        kind = "sensor" if attribute.startswith("edges") else "actuator"
        with pytest.raises(ParseError, match=f"^line 2: bad {attribute[:5]} list "):
            parse_spec_file(f"# note\nLIT101 {kind} Low,High {attribute}\n")

    def test_attribute_is_named_before_its_numbers(self):
        with pytest.raises(ParseError, match="^line 1: unknown attribute 'steps'$"):
            parse_spec_file("LIT101 sensor Low,High steps=1_0\n")

    # str.splitlines breaks at each of these too; only \r\n, \r and \n end a line
    @pytest.mark.parametrize("mark", ["\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_comment_may_hold_characters_that_are_not_line_ends(self, mark):
        text = f"MV101 actuator Close,Open codes=1,2 # note{mark}more words\nP101 bogus\n"
        with pytest.raises(ParseError, match="^line 2: expected"):
            parse_spec_file(text)
        assert parse_spec_file(text.replace("P101 bogus", "P101 actuator Off,On"))[0] == MV101

    @pytest.mark.parametrize("line_end", ["\r", "\r\n"])
    def test_cr_and_crlf_line_ends(self, line_end):
        assert parse_spec_file(self.TEXT.replace("\n", line_end)) == parse_spec_file(self.TEXT)
        with pytest.raises(ParseError, match="^line 3: "):
            parse_spec_file(line_end.join(["# note", "P101 actuator Off,On", "MV101 bogus", ""]))


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


_NAMES = ["P101", "LIT101", 'A"B', "back\\slash", "tab\tname", "Füll", "\u2603"]
# bytes that, put into the writer's text, keep it JSON or make a near miss of it
_EDIT_BYTES = ["0", "1", "9", "-", "[", "]", ",", " ", "\n", "\r", '"', "{", "}", "x", "\u0661"]


@st.composite
def _written_specs(draw):
    """One VariableSpec of each form the writer meets: a sensor with bin
    edges, an actuator with codes and an actuator without."""
    kind = draw(st.sampled_from(["edges", "codes", "no-codes"]))
    card = draw(st.sampled_from([2, 3, 12, 150] if kind == "no-codes" else [2, 3, 12]))
    states = tuple(f"s{k}" for k in range(card))
    if kind == "edges":
        edges = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=card - 1,
                              max_size=card - 1, unique=True))
        return lambda name: VariableSpec(name, SENSOR, states, bin_edges=tuple(sorted(edges)))
    if kind == "codes":
        codes = draw(st.lists(st.integers(-2**70, 2**70), min_size=card, max_size=card, unique=True))
        return lambda name: VariableSpec(name, ACTUATOR, states, codes=tuple(codes))
    return lambda name: VariableSpec(name, ACTUATOR, states)


@st.composite
def _dataset_documents(draw):
    """Dataset JSON text, and whether it is the text the writer gives for
    the dataset it holds: the writer's text as it is, a one-byte edit of
    it, or any other JSON layout of a dataset, well-formed or not."""
    form = draw(st.sampled_from(["written", "edited", "other", "other"]))
    if form != "other":
        makers = draw(st.lists(_written_specs(), min_size=1, max_size=3))
        names = draw(st.lists(st.sampled_from(_NAMES), min_size=len(makers), max_size=len(makers), unique=True))
        specs = tuple(make(name) for make, name in zip(makers, names))
        rows = draw(st.lists(st.tuples(*(st.integers(0, s.cardinality - 1) for s in specs)),
                             min_size=1, max_size=5))
        text = cli._dump_json(dataset_to_json(DiscreteDataset(specs=specs, data=np.array(rows, dtype=np.int64))))
        if form == "edited":
            # the ends of the text as often as anywhere inside it
            i = draw(st.one_of(st.integers(0, len(text)), st.sampled_from([0, len(text) - 1, len(text)])))
            cut = draw(st.sampled_from([0, 1])) if i < len(text) else 0
            text = text[:i] + draw(st.sampled_from(["", *_EDIT_BYTES])) + text[i + cut:]
        return text, form == "written"
    cards = draw(st.lists(st.sampled_from([2, 3, 12, 150]), min_size=1, max_size=3))
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=len(cards), max_size=len(cards), unique=True))
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
    return text, False


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


def _written_text(text):
    """The writer's text of the dataset ``text`` holds; None when it holds none."""
    try:
        return cli._dump_json(dataset_to_json(reference_dataset_from_text(text)))
    except (CpsCausalError, json.JSONDecodeError):
        return None


# the ci profile's example count, and never fewer than 200
@given(document=_dataset_documents())
@settings(max_examples=max(200, settings().max_examples), deadline=None)
def test_dataset_from_text_matches_reference(document):
    text, canonical = document
    assert _read_outcome(dataset_from_text, text) == _read_outcome(reference_dataset_from_text, text)
    written = text == _written_text(text)
    assert written or not canonical
    # the writer writes every cell as one digit when every DP has at most 10 states
    assert read_as_one_array(text) == (written and max(reference_dataset_from_text(text).cards) <= 10)
    # fit's reader reads the same texts, from the same blocks
    assert _columns_outcome(lambda: datafile._columns_as_written(io.BytesIO(text.encode()))) == \
        (_columns_outcome(lambda: reference_dataset_from_text(text)) if read_as_one_array(text) else None)


def _columns_outcome(read):
    """The specs and columns of the dataset ``read()`` gives; None when it gives none."""
    ds = read()
    return None if ds is None else (ds.specs, ds.columns)


_SPECS = [{"name": name, "kind": "actuator", "states": ["s0", "s1", "s2"], "bin_edges": None, "codes": None}
          for name in "AB"]
_TWO_SPECS = json.dumps(_SPECS)
# the writer's text of a dataset of these specs, up to its records
_WRITTEN_SPECS = json_text({"specs": _SPECS}, "\n").removesuffix("\n}")
DATASET_TEXT_CORPUS = {
    # the whole text as the writer writes it, read as one array
    "one-record-per-line": ("[\n    [0,1],\n    [2,0]\n  ]", True),
    "one-record": ("[\n    [0,1]\n  ]", True),
    # in the writer's layout, but for a dataset that fails a check, left to json
    "int64-extremes": ("[\n    [9223372036854775807,-9223372036854775808]\n  ]", False),
    "negative": ("[\n    [-1,0]\n  ]", False),
    "no-columns": ("[\n    []\n  ]", False),
    "state-out-of-range": ("[\n    [0,3],\n    [2,0]\n  ]", False),
    "state-out-of-range-in-last-record": ("[\n    [0,1],\n    [2,9]\n  ]", False),
    # in the writer's layout but for one fault, left to json
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
    # every cell of these specs is written as one digit: edits that keep the
    # writer's row width, or break it only by a cell too wide for the specs
    "layout-digit-and-comma-swapped": ("[\n    [01,]\n  ]", False),
    "layout-digit-and-comma-swapped-in-last-row": ("[\n    [0,1],\n    [2,0],\n    [1,,]\n  ]", False),
    "layout-comma-moved-across-row-break": ("[\n    [0,1]\n    ,[2,0]\n  ]", False),
    "layout-comma-moved-into-row": ("[\n    [0,1,\n    ][2,0]\n  ]", False),
    "layout-two-digit-cell": ("[\n    [10,1]\n  ]", False),
    "layout-three-digit-cell-in-a-row-as-wide": ("[\n    [0,1],\n    [101],\n    [2,0]\n  ]", False),
    "layout-two-digit-cells-in-rows-as-wide": ("[\n    [0,1],\n    [12],\n    [20]\n  ]", False),
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
    "ends-after-the-data-key": f"{_WRITTEN_SPECS}{datafile._DATA_KEY}",
    "ends-after-the-first-bracket": f"{_WRITTEN_SPECS}{datafile._DATA_KEY}[",
}


@pytest.mark.parametrize("records, one_array", DATASET_TEXT_CORPUS.values(), ids=DATASET_TEXT_CORPUS.keys())
def test_dataset_records_read_as_the_reference_reads_them(records, one_array):
    text = f'{_WRITTEN_SPECS},\n  "data": {records}\n}}\n'
    assert _read_outcome(dataset_from_text, text) == _read_outcome(reference_dataset_from_text, text)
    assert read_as_one_array(text) == one_array


def _written_dataset(cards, n_records, seed=0):
    """The writer's text of a dataset of actuators with ``cards`` states, and the dataset."""
    rng = np.random.default_rng(seed)
    specs = tuple(VariableSpec(f"D{k}", ACTUATOR, tuple(f"s{i}" for i in range(card))) for k, card in enumerate(cards))
    data = np.stack([rng.integers(0, card, n_records) for card in cards], axis=1)
    data[0] = np.array(cards) - 1  # every column's widest cell at least once
    ds = DiscreteDataset(specs=specs, data=data)
    return cli._dump_json(dataset_to_json(ds)), ds


# the cardinalities of datasets with a DP of more than 10 states, and the dtype of their records
_WIDE_DATASETS = {"12-states": ((12, 3, 2), np.uint8), "150-states": ((150, 12, 10, 2), np.uint8),
                  "300-states": ((300, 12, 2), np.uint16)}


@pytest.mark.parametrize("cards, dtype", _WIDE_DATASETS.values(), ids=_WIDE_DATASETS.keys())
def test_written_dataset_with_more_than_ten_states_is_read_through_json(cards, dtype):
    text, ds = _written_dataset(cards, 50)
    assert f"[{cards[0] - 1}," in text  # cells of more than one digit
    assert not read_as_one_array(text)
    back = dataset_from_text(text)
    # the narrowest dtype that holds the largest state index
    assert back.specs == ds.specs and back.data.dtype == ds.data.dtype == dtype
    assert np.array_equal(back.data, ds.data)


def test_every_constructor_gives_the_same_uint8_dataset():
    fixture = get_fixture("twostage")
    ds = sample_with_clamp(fixture.net, 300, 7, specs=fixture.specs)
    log, text = write_historian_csv(ds), cli._dump_json(dataset_to_json(ds))
    assert read_as_one_array(text) and not read_as_one_array(text[:-1])  # no final newline: json reads it
    built = {
        "discretize_text": discretize_text(log, fixture.specs),
        "discretize": discretize(parse_log(log), fixture.specs),
        "dataset_from_text": dataset_from_text(text),
        "dataset_from_text-json": dataset_from_text(text[:-1]),
        "dataset_from_json": dataset_from_json(json.loads(text)),
        "project": project(ds, ds.names),
    }
    assert ds.data.dtype == np.uint8
    assert sample_with_clamp(fixture.net, 50, 1, clamp={"MV101": 1}, specs=fixture.specs).data.dtype == np.uint8
    for path, other in built.items():
        assert other.specs == ds.specs, path
        assert other.data.dtype == np.uint8 and np.array_equal(other.data, ds.data), path


def test_dataset_holds_the_narrowest_dtype_of_its_own_columns():
    _, ds = _written_dataset((300, 12, 2), 40)
    assert ds.data.dtype == np.uint16
    assert project(ds, ["D2", "D0"]).data.dtype == np.uint16
    narrow = project(ds, ["D2", "D1"])
    assert narrow.data.dtype == np.uint8 and narrow.data.flags.c_contiguous
    assert np.array_equal(narrow.data, ds.data[:, [2, 1]])
    # data of the dtype already is kept as given; any other integer array is copied
    assert DiscreteDataset(specs=narrow.specs, data=narrow.data).data is narrow.data
    assert DiscreteDataset(specs=ds.specs, data=ds.data.astype(np.int32)).data.dtype == np.uint16
    assert ingest.state_dtype([2, 256]) == np.uint8
    assert ingest.state_dtype([257]) == ingest.state_dtype([65_536]) == np.uint16
    assert ingest.state_dtype([65_537]) == np.int64
    with pytest.raises(TypeError, match="integers"):
        DiscreteDataset(specs=ds.specs, data=ds.data.astype(np.float64))


@pytest.mark.parametrize("card, dtype", [(256, np.uint8), (1000, np.uint16)])
def test_multi_digit_cells_are_read_without_wraparound(card, dtype):
    specs = (VariableSpec("WIDE", ACTUATOR, tuple(f"s{i}" for i in range(card))),
             VariableSpec("D", ACTUATOR, ("a", "b")))
    cells = [c for c in (0, 9, 10, 99, 100, 199, 200, 201, 254, 255, 256, 257, 300, 511, 512, 999) if c < card]
    data = np.array([[c, c % 2] for c in cells])
    text = cli._dump_json(dataset_to_json(DiscreteDataset(specs=specs, data=data)))
    assert not read_as_one_array(text)
    back = dataset_from_text(text)
    assert back.data.dtype == dtype and back.data.tolist() == data.tolist()


@pytest.mark.parametrize("cell", [256, 300, 511])
def test_cell_past_a_uint8_dataset_is_refused_not_wrapped(cell):
    # each of these cells, cut to 8 bits, is a state of a 256-state DP
    specs = (VariableSpec("WIDE", ACTUATOR, tuple(f"s{i}" for i in range(256))),)
    text = cli._dump_json(dataset_to_json(DiscreteDataset(specs=specs, data=np.array([[0], [255]]))))
    text = text.replace("[255]", f"[{cell}]")
    for read in dataset_from_text, reference_dataset_from_text:
        with pytest.raises(UnmappedActuatorValue, match="state index out of range"):
            read(text)


def _in_record(k, pattern, repl):
    """An edit that substitutes ``repl`` for the first match of the regular
    expression ``pattern`` from the ``[`` of record ``k`` (a list index) on."""
    def edit(t):
        i = [m.end() - 1 for m in re.finditer(r"\n    \[", t)][k]
        return t[:i] + re.sub(pattern, repl, t[i:], count=1)
    return edit


# length-preserving edits of a written dataset of 320 records, at its start,
# in its middle and at its end
_LONG_DATASET_EDITS = {
    "first-record-space-for-comma": _in_record(0, ",", " "),
    "middle-record-comma-and-digit-swapped": _in_record(160, r",(\d)", r"\1,"),
    "last-record-comma-and-digit-swapped": _in_record(-1, r",(\d)", r"\1,"),
    "last-record-space-for-comma": _in_record(-1, ",", " "),
    "last-separator-tab": _in_record(-2, "\n    ", "\n   \t"),
    "last-separator-comma-moved": _in_record(-2, r"\],\n    ", "]\n    ,"),
    "last-separator-cr": _in_record(-2, ",\n", ",\r"),
}


@pytest.mark.parametrize("edit", _LONG_DATASET_EDITS.values(), ids=_LONG_DATASET_EDITS.keys())
@pytest.mark.parametrize("cards", [(3, 2, 10), (12, 3, 2)], ids=["one-digit", "12-states"])
def test_edit_anywhere_in_a_long_dataset_is_not_read_as_one_array(cards, edit):
    written, _ = _written_dataset(cards, 320)
    text = edit(written)
    assert len(text) == len(written) and text != written
    assert _read_outcome(dataset_from_text, text) == _read_outcome(reference_dataset_from_text, text)
    assert not read_as_one_array(text)
    assert _written_text(text) != text


@pytest.mark.parametrize("text", DATASET_DOCUMENT_CORPUS.values(), ids=DATASET_DOCUMENT_CORPUS.keys())
def test_dataset_document_read_as_the_reference_reads_it(text):
    assert _read_outcome(dataset_from_text, text) == _read_outcome(reference_dataset_from_text, text)


# edits of the writer's text of a small dataset, and whether the text is
# still the writer's text of the dataset it holds
_NEAR_MISSES = {
    "as-written": (lambda t: t, True),
    "edges-as-integers": (lambda t: t.replace("210.0", "210"), True),  # the dataset keeps integer edges
    "no-final-newline": (lambda t: t[:-1], False),
    "extra-final-newline": (lambda t: t + "\n", False),
    "trailing-space": (lambda t: t + " ", False),
    "leading-space": (lambda t: " " + t, False),
    "crlf": (lambda t: t.replace("\n", "\r\n"), False),
    "space-in-record": (lambda t: t.replace("[1,1]", "[1, 1]"), False),
    "record-indented-more": (lambda t: t.replace("\n    [1,1]", "\n     [1,1]"), False),
    "leading-zero-cell": (lambda t: t.replace("[1,1]", "[01,1]"), False),
    "minus-zero-cell": (lambda t: t.replace("[0,0]", "[-0,0]"), False),
    "spec-keys-reordered": (lambda t: t.replace('"name": "MV101",\n      "kind": "actuator"',
                                                '"kind": "actuator",\n      "name": "MV101"'), False),
    "escaped-data-key": (lambda t: t.replace('"data"', '"d\\u0061ta"'), False),
    "specs-compact": (lambda t: '{"specs": ' + json.dumps(json.loads(t)["specs"]) + t[t.index(',\n  "data"'):], False),
}
_SMALL = discretize(parse_log("LIT101,MV101\n100,1\n500,2\n900,1\n"), [LIT101, MV101])


@pytest.mark.parametrize("edit, one_array", _NEAR_MISSES.values(), ids=_NEAR_MISSES.keys())
def test_only_the_writers_exact_text_is_read_as_one_array(edit, one_array):
    written = cli._dump_json(dataset_to_json(_SMALL))
    text = edit(written)
    assert text != written or edit is _NEAR_MISSES["as-written"][0]  # every other edit applies
    assert _read_outcome(dataset_from_text, text) == _read_outcome(reference_dataset_from_text, text)
    assert read_as_one_array(text) == one_array == (text == _written_text(text))


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


@pytest.mark.parametrize("chars", [1, 40, datafile._BLOCK_CHARS])
@pytest.mark.parametrize("dtype, high", [(np.uint8, 9), (np.uint8, 255), (np.uint16, 300), (np.int64, 9)],
                         ids=["uint8-one-digit", "uint8", "uint16", "int64-one-digit"])
def test_records_json_writes_each_block_as_json_writes_it(chars, dtype, high):
    # a block of uint8 cells of 0 to 9 fills the writer's template row; any other block goes a row at a time
    data = (np.arange(90).reshape(30, 3) * 7 % (high + 1)).astype(dtype)
    with mock.patch.object(datafile, "_BLOCK_CHARS", chars):
        text = records_json(data, b",\n    ")
    assert text == ",\n    ".join(json.dumps(row, separators=(",", ":")) for row in data.tolist()).encode()


def test_records_json_writes_the_same_bytes_for_every_integer_dtype():
    data = np.array([[0, 255, 9], [10, 99, 100], [200, 1, 0], [255, 254, 7]])
    written = {dtype: records_json(data.astype(dtype), b",\n    ") for dtype in (np.int64, np.uint8, np.uint16)}
    rows = [json.dumps(row, separators=(",", ":")) for row in data.tolist()]
    assert set(written.values()) == {",\n    ".join(rows).encode()}


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
    "blank-lines-after-header": "A\n\n\n",
    "quoted-timestamp": 'Timestamp,A\n"t0",1\n',
    "carriage-return-in-timestamp": "A,Timestamp\n1,t\r0\n",
    "quoted-comma-in-only-record": 'A,B\n"1,2",3\n',
    "quoted-line-end-in-cell": 'A\n"1\n2"\n',
    "empty-and-blank-cells-under-timestamps": "Timestamp,A\nt0,\nt1, \n",
    "digit-outside-ascii": "A\n\u0661\n",
    "crlf-plain": "Timestamp,A,B\r\nt0,1,2\r\nt1,3,4\r\n",
    "lone-carriage-return": "A,B\n1,2\r3,4\n",
}


def _assert_parses_as_reference(text) -> RawLog | None:
    """Check that ``parse_log`` gives the reference's log or error for
    ``text``; return the log, or None on an error."""
    got, want = _outcome(parse_log, text), _outcome(reference_parse_log, text)
    if isinstance(want, tuple):
        assert got == want
        return None
    assert (got.columns, got.timestamps) == (want.columns, want.timestamps)
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()  # -0.0 keeps its sign
    return got


@pytest.mark.parametrize("text", PARSE_CORPUS.values(), ids=PARSE_CORPUS.keys())
def test_parse_log_matches_reference(text):
    _assert_parses_as_reference(text)


# readings float() reads, subnormals, -0.0, long mantissas and exponents at
# the edges of float64 included; from_regex also overflows to inf now and then
_READINGS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"[-+]?[0-9]{0,25}\.?[0-9]{1,45}([eE][-+]?[0-9]{1,3})?", fullmatch=True),
)
# value cells that are not readings, and readings in odd forms: padded,
# quoted, in non-ASCII digits, at float64's edges
_ODD_CELLS = ["nan", "-nan", "inf", "-Infinity", "1e400", "-1e309", "1e-400", "1_0", "", " ", " 1 ", "\t2.5\t",
              "\x1c1", "1\x1f", "\x0b3", "\xa04", "\u20005", "6\u3000", "\u0661", "0x10", "1 2", "1e", "+.5", "1.",
              ".", "x", "4.9e-324", "2.2250738585072014e-308", "-0.0", "0." + "9" * 400, '"1"', '" 2 "', '""',
              '"1,2"', '"1\n2"', '"1\r2"']
# timestamps free of what csv.reader treats specially, and odd ones: quoted,
# empty, or holding a carriage return or another line-like character
_TIMESTAMPS = st.text(st.characters(exclude_characters=',"\r\n\0'), max_size=6)
_ODD_TIMESTAMPS = ['"28/12/2015, 10:00"', '"a\nb"', '"say ""hi"""', '"t0"', '""', " ", "a\rb", "a\x85b", "a\u2028b"]
_ODD_LINES = ["", " ", "\t", " , ", ",", "\x0c"]


@st.composite
def _historian_logs(draw):
    """Historian log text, and whether it is plain: rows of readings under
    unique names, with an optional timestamp column in any position, and
    LF or CRLF line ends. A log that is not plain also has, at random, odd
    cells or odd text: quotes, blank lines, cells too many or too few and
    bad names."""
    rnd = draw(st.randoms(use_true_random=False))
    odd_cells, odd = draw(st.sampled_from([0.0, 0.05, 0.2])), draw(st.sampled_from([0.0, 0.0, 0.05, 0.2]))
    names = draw(st.lists(st.sampled_from(["P101", "LIT101", " FIT101 ", "MV101", "AIT201"]),
                          min_size=1, max_size=4, unique=True))
    if rnd.random() < odd:
        names[rnd.randrange(len(names))] = rnd.choice(["", " ", "P101", "lit101"])
    ts_name = draw(st.sampled_from([None, "Timestamp", " timestamp ", "TIMESTAMP"]))
    ts_at = draw(st.integers(0, len(names)))  # first, middle or last
    header = names[:]
    if ts_name:
        header.insert(ts_at, ts_name)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        cells = [rnd.choice(_ODD_CELLS) if rnd.random() < odd_cells else draw(_READINGS) for _ in names]
        if ts_name:
            cells.insert(ts_at, rnd.choice(_ODD_TIMESTAMPS) if rnd.random() < odd else draw(_TIMESTAMPS))
        if rnd.random() < odd:
            cells.append(draw(_READINGS))
        if rnd.random() < odd:
            cells.pop()
        lines.append(",".join(cells))
    for _ in range(len(lines)):
        if rnd.random() < odd:
            lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(_ODD_LINES))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + rnd.choice([newline, newline, ""]), odd_cells == odd == 0


@given(log=_historian_logs())
@settings(deadline=None)
def test_parse_log_matches_reference_on_generated_logs(log):
    text, plain = log
    parsed = _assert_parses_as_reference(text)
    if plain and parsed is not None:
        assert len(_lines_read_by_csv(parse_log, text)) == 1


def _lines_read_by_csv(read, *args) -> list[str]:
    """The lines that every ``csv.reader`` takes in while ``read(*args)``
    runs, whatever it returns or raises."""
    seen, reader = [], csv.reader

    def spy(lines, *rest, **kwargs):
        return reader((seen.append(line) or line for line in lines), *rest, **kwargs)

    with mock.patch.object(csv, "reader", spy):
        try:
            read(*args)
        except CpsCausalError:
            pass
    return seen


def test_no_record_of_a_plain_numeric_log_reaches_csv_reader():
    text = "LIT101,Timestamp,MV101\n100.5, 2015-12-28 10:00:00 ,1\n800.25,t1,2\n"
    log = parse_log(text)
    assert log.columns == ("LIT101", "MV101")
    assert log.values.tolist() == [[100.5, 1.0], [800.25, 2.0]]
    assert log.timestamps == ("2015-12-28 10:00:00", "t1")
    # csv reads the header, and no line after it
    header = ["LIT101,Timestamp,MV101\n"]
    assert _lines_read_by_csv(parse_log, text) == header
    assert _lines_read_by_csv(discretize_text, text, [_sensor("LIT101")]) == header
    with mock.patch.object(logfile, "_BLOCK_CHARS", 1):
        assert _lines_read_by_csv(parse_log, text) == header
    # a block the C reader refuses goes to csv, and a fault is named from all of the text
    assert "1,x\n" in _lines_read_by_csv(parse_log, "A,B\n1,x\n")


def test_field_longer_than_csv_allows_is_a_parse_error():
    text = "Timestamp,A\nt0,1\n" + "t" * (csv.field_size_limit() + 1) + ",1\n"
    _assert_parses_as_reference(text)
    with pytest.raises(ParseError, match=re.escape(f"line 3: field larger than field limit ({csv.field_size_limit()})")):
        parse_log(text)


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


# --- block by block -------------------------------------------------------------
#
# The log reader reads plain text in blocks of at least logfile._BLOCK_CHARS
# characters, and csv rows in batches sized from it; blocks of a character
# or a few put a block or batch boundary after every line, or after every
# few lines.

def _assert_discretizes_as_reference(text, specs) -> None:
    """Check that ``discretize_text`` gives the dataset or the error that the
    reference parse and discretize give for ``text``."""
    got = _outcome(discretize_text, text, specs)
    want = _outcome(lambda: reference_discretize(reference_parse_log(text), specs))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.specs == want.specs
        assert got.data.dtype == want.data.dtype
        assert np.array_equal(got.data, want.data)


def _sensors(text) -> list[VariableSpec]:
    """A sensor for each value column of the log ``text`` as the reference
    reads it, or for a column ``A`` when it refuses the log."""
    try:
        columns = reference_parse_log(text).columns
    except CpsCausalError:
        columns = ("A",)
    return [VariableSpec(name, SENSOR, ("Low", "Mid", "High"), bin_edges=(1.0, 2.5)) for name in columns]


@pytest.mark.parametrize("chars", [1, 2, 7])
@pytest.mark.parametrize("text", PARSE_CORPUS.values(), ids=PARSE_CORPUS.keys())
def test_small_blocks_parse_and_discretize_as_the_reference(text, chars):
    with mock.patch.object(logfile, "_BLOCK_CHARS", chars):
        _assert_parses_as_reference(text)
        _assert_discretizes_as_reference(text, _sensors(text))


@pytest.mark.parametrize("chars", [1, 2, 7])
@pytest.mark.parametrize("text, specs", DISCRETIZE_CORPUS.values(), ids=DISCRETIZE_CORPUS.keys())
def test_small_blocks_discretize_the_corpus_as_the_reference(text, specs, chars):
    with mock.patch.object(logfile, "_BLOCK_CHARS", chars):
        _assert_discretizes_as_reference(text, specs)


def _codes(name):
    return VariableSpec(name, ACTUATOR, ("Off", "On"), codes=(0, 1))


def _sensor(name):
    return VariableSpec(name, SENSOR, ("Low", "High"), bin_edges=(2.0,))


# faults and odd lines past the first record, so that a block boundary
# falls before them; "earlier" and "later" speak of spec columns and records
STRADDLE_CORPUS = {
    "bad-cell": ("A,B\n1,2\n3,4\n5,x\n", [_sensor("A"), _sensor("B")]),
    "ragged-row": ("A,B\n1,2\n3,4\n5,6,7\n", [_sensor("A"), _sensor("B")]),
    "field-above-csv-limit": ("Timestamp,A\nt0,1\n" + "t" * (csv.field_size_limit() + 1) + ",1\n", [_sensor("A")]),
    "crlf-bad-cell": ("A,B\r\n1,2\r\n3,x\r\n", [_sensor("A"), _sensor("B")]),
    "blank-line": ("A,B\n1,2\n\n3,4\n", [_sensor("A"), _sensor("B")]),
    "blank-line-in-one-column": ("A\n1\n2\n\n3\n", [_sensor("A")]),
    "trailing-blank-lines": ("A,B\n1,2\n3,4\n\n\n", [_sensor("B")]),
    "quoted-cell": ('A,B\n1,2\n"3",4\n', [_sensor("A"), _sensor("B")]),
    "line-longer-than-a-block": ("Timestamp,A\nt0,1\n" + "t" * 40 + ",2\nt2,3\n", [_sensor("A")]),
    "no-line-end-after-the-last-record": ("A,B\n1,2\n3,4", [_sensor("B"), _sensor("A")]),
    "unmapped-code-in-an-earlier-column-and-a-later-record":
        ("A,B\n0,0\n0,7\n9,0\n", [_codes("A"), _codes("B")]),
    "non-integer-in-an-earlier-column-and-a-later-record":
        ("A,B\n0,0\n0,1.5\n0.5,0\n", [_codes("A"), _codes("B")]),
    "unmapped-code-before-a-bad-cell": ("A,B\n7,0\n0,0\n0,x\n", [_codes("A"), _codes("B")]),
    "unmapped-code-before-a-ragged-row": ("A,B\n7,0\n0,0\n0,0,0\n", [_codes("A")]),
    "unmapped-code-before-a-missing-column": ("A\n0\n7\n", [_codes("A"), _sensor("B")]),
    "repeated-spec-after-an-unmapped-code": ("A\n0\n1\n7\n", [_sensor("A"), _sensor("A")]),
}


@pytest.mark.parametrize("text, specs", STRADDLE_CORPUS.values(), ids=STRADDLE_CORPUS.keys())
def test_block_boundary_anywhere_before_a_fault(text, specs):
    for chars in [*range(1, min(len(text), 40) + 1), len(text)]:
        with mock.patch.object(logfile, "_BLOCK_CHARS", chars):
            _assert_parses_as_reference(text)
            _assert_discretizes_as_reference(text, specs)


@given(log=_historian_logs(), chars=st.integers(1, 64),
       specs=st.lists(st.tuples(st.sampled_from(["P101", "LIT101", "FIT101", "MV101", "AIT201"]),
                                st.sampled_from([_sensor, _codes])),
                      min_size=1, max_size=3, unique_by=lambda spec: spec[0]))
@settings(deadline=None)
def test_small_blocks_match_the_reference_on_generated_logs(log, chars, specs):
    text, _ = log
    with mock.patch.object(logfile, "_BLOCK_CHARS", chars):
        _assert_parses_as_reference(text)
        _assert_discretizes_as_reference(text, [make(name) for name, make in specs])


@st.composite
def _binned_logs(draw):
    """A historian log whose sensor readings are each drawn uniformly inside
    a bin and written with ``repr``, so that nearly every cell is a distinct
    string, and whose actuator cells are codes; with its specs and the state
    of every cell."""
    rnd = draw(st.randoms(use_true_random=False))
    specs = []
    for k in range(draw(st.integers(1, 6))):
        states = tuple(f"s{s}" for s in range(draw(st.integers(2, 5))))
        if draw(st.booleans()):
            edges = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=len(states) - 1, max_size=len(states) - 1,
                                         unique=True)))
            specs.append(VariableSpec(f"S{k}", SENSOR, states, bin_edges=tuple(edges)))
        else:
            specs.append(VariableSpec(f"A{k}", ACTUATOR, states, codes=tuple(rnd.sample(range(-3, 20), len(states)))))
    records = [[rnd.randrange(spec.cardinality) for spec in specs] for _ in range(draw(st.integers(1, 60)))]

    def cell(spec, state):
        if spec.kind == ACTUATOR:
            return str(spec.codes[state])
        edges = spec.bin_edges
        span = edges[-1] - edges[0] + 1.0
        low = edges[state - 1] if state else edges[0] - span
        high = edges[state] if state < len(edges) else edges[-1] + span
        reading = rnd.uniform(low, high)
        return repr(reading if low <= reading < high else low)

    lines = [",".join(["Timestamp", *(spec.name for spec in specs)])]
    lines += [",".join([str(t), *map(cell, specs, record)]) for t, record in enumerate(records)]
    return "\n".join(lines) + "\n", specs, records


@given(log=_binned_logs(), chars=st.sampled_from([1, 40, logfile._BLOCK_CHARS]))
@settings(deadline=None)
def test_readings_drawn_inside_their_bins_discretize_to_those_bins(log, chars):
    text, specs, records = log
    with mock.patch.object(logfile, "_BLOCK_CHARS", chars):
        ds = discretize_text(text, specs)
        n, columns = logfile.discretize_log(LogText.of_str(text), specs)
    assert ds.data.tolist() == records
    want = reference_discretize(reference_parse_log(text), specs)
    assert ds.specs == want.specs and ds.data.dtype == want.data.dtype and np.array_equal(ds.data, want.data)
    # the command's own path, which holds no array, writes the same file
    written = b"".join(datafile.dataset_chunks(specs, datafile.column_blocks(columns, n)))
    assert written == cli._dump_json(dataset_to_json(want)).encode()


def _traced_peak_beyond_dataset(read, text, specs) -> int:
    """The peak of the memory that ``read(text, specs)`` allocates, less its
    dataset's records."""
    tracemalloc.start()
    try:
        ds = read(text, specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - ds.data.nbytes


def _quote_timestamps(text: str) -> str:
    """``text`` with the first cell of each record quoted, as csv reads it."""
    header, _, body = text.partition("\n")
    return header + "\n" + re.sub(r"(?m)^([^,\n]+),", r'"\1",', body)


@pytest.mark.parametrize("form", [
    lambda text: text,
    _quote_timestamps,
    lambda text: text + "\n",  # a blank line at the end
], ids=["plain", "quoted-timestamps", "trailing-blank-line"])
def test_memory_beyond_the_dataset_does_not_grow_with_the_log(twostage, form):
    ds = twostage.sample(10_000, seed=5)
    small = write_historian_csv(ds)
    large = small + small.partition("\n")[2] * 3  # 40k records
    small, large = form(small), form(large)

    def grows(read) -> bool:
        extra = [_traced_peak_beyond_dataset(read, text, ds.specs) for text in (small, large)]
        return extra[1] > 1.25 * extra[0]

    assert not grows(discretize_text)
    assert grows(lambda text, specs: discretize(parse_log(text), specs))


@pytest.mark.parametrize("reader", ["discretize_text", "dataset_from_text"])
def test_readers_hold_no_wider_copy_of_the_records(twostage, reader):
    ds = twostage.sample(40_000, seed=5)
    if reader == "discretize_text":
        extra = _traced_peak_beyond_dataset(discretize_text, write_historian_csv(ds), ds.specs)
    else:
        text = cli._dump_json(dataset_to_json(ds))
        extra = _traced_peak_beyond_dataset(lambda text, specs: dataset_from_text(text), text, ds.specs)
    # the states are written straight into the uint8 records: an int64 copy
    # of them would take 8 bytes a cell on top
    assert ds.data.dtype == np.uint8 and extra < 8 * ds.data.size


def test_dataset_reader_holds_one_copy_of_the_text(twostage):
    ds = twostage.sample(40_000, seed=5)
    text = cli._dump_json(dataset_to_json(ds))
    extra = _traced_peak_beyond_dataset(lambda text, specs: dataset_from_text(text), text, ds.specs)
    # the text's UTF-8 bytes, viewed in place: no str slice of the records besides
    assert text.isascii() and extra < 1.5 * len(text)


# --- log and dataset files, a block at a time --------------------------------------
#
# The CLI reads a historian log file through LogText.of_file and a dataset
# file through read_dataset_file, a block of bytes at a time; each must give
# what the text of the file gives.

_LOG_FILE_CORPUS = {**{name: (text, None) for name, text in PARSE_CORPUS.items()}, **STRADDLE_CORPUS,
                    "non-ascii-names": ("Zeit,F\u00fcll\u00b0,\u0394p\n1,2\n3,4\n", None),
                    "byte-order-mark-inside": ("A,B\n1,\ufeff2\n", None)}


@pytest.mark.parametrize("chars", [1, 7, logfile._BLOCK_CHARS])
@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["no-bom", "bom"])
@pytest.mark.parametrize("text, specs", _LOG_FILE_CORPUS.values(), ids=_LOG_FILE_CORPUS.keys())
def test_log_file_discretizes_as_its_text(tmp_path, text, specs, bom, chars):
    path = tmp_path / "log.csv"
    path.write_bytes(bom + text.encode())
    specs = specs or _sensors(text)
    with mock.patch.object(logfile, "_BLOCK_CHARS", chars):
        log = LogText.of_file(str(path))
        got = _outcome(discretize_text, log, specs)
        want = _outcome(discretize_text, text, specs)
        assert "".join(log.blocks()) == log.text() == text
    assert (log.n_lines, log.plain) == (LogText.of_str(text).n_lines, LogText.of_str(text).plain)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.specs == want.specs and np.array_equal(got.data, want.data)


@pytest.mark.parametrize("data", [b"A,B\n1,\xff2\n", b"\xef\xbb", b"\xef\xbbA\n1\n", b"A\n1\n\xed\xa0\x80\n",
                                  b"A\n" + b"1\n" * 40 + b"\xc3\n", codecs.BOM_UTF8 + b"A\n\x80\n"],
                         ids=["bad-byte", "cut-byte-order-mark", "bad-start", "surrogate", "cut-sequence-late",
                              "after-byte-order-mark"])
def test_log_file_that_is_not_utf8_is_refused(tmp_path, data):
    path = tmp_path / "log.csv"
    path.write_bytes(data)
    with mock.patch.object(logfile, "_BLOCK_CHARS", 8), pytest.raises(UnicodeDecodeError):
        LogText.of_file(str(path))


def _datasets_at_block_boundaries():
    """Datasets of every fixture, and of DPs of 12 and 300 states, with a
    record count for every place a block of records can end."""
    for name in FIXTURE_NAMES:
        ds = get_fixture(name).sample(300, seed=3)
        for n in (1, 2, 3, 5, 8, 300):
            yield name, DiscreteDataset(specs=ds.specs, data=ds.data[:n])
    for cards in ((12, 3), (300, 2, 12)):
        _, ds = _written_dataset(cards, 300)
        for n in (1, 2, 3, 5, 300):
            yield f"{cards[0]}-states", DiscreteDataset(specs=ds.specs, data=ds.data[:n])


@pytest.mark.parametrize("chars", [1, 17, 40, datafile._BLOCK_CHARS])
def test_streamed_dataset_is_the_dumped_text(chars):
    with mock.patch.object(datafile, "_BLOCK_CHARS", chars):
        for name, ds in _datasets_at_block_boundaries():
            assert b"".join(dataset_json_chunks(ds)) == cli._dump_json(dataset_to_json(ds)).encode(), \
                (name, ds.n_records)


def test_streamed_dataset_is_the_dumped_text_across_full_size_blocks(twostage):
    ds = twostage.sample(5_000, seed=4)
    step = datafile._BLOCK_CHARS // len(b"0," * len(ds.specs) + b"],\n    [")
    for n in (step - 1, step, step + 1, 2 * step):
        part = DiscreteDataset(specs=ds.specs, data=ds.data[:n])
        chunks = list(dataset_json_chunks(part))
        assert len(chunks) == 2 + -(-n // step)
        assert b"".join(chunks) == cli._dump_json(dataset_to_json(part)).encode()


def _dataset_file_texts():
    """Dataset texts in and out of the writer's layout."""
    for records, _ in DATASET_TEXT_CORPUS.values():
        yield f'{_WRITTEN_SPECS},\n  "data": {records}\n}}\n'
    yield from DATASET_DOCUMENT_CORPUS.values()
    written = cli._dump_json(dataset_to_json(_SMALL))
    for edit, _ in _NEAR_MISSES.values():
        yield edit(written)
    for cards in ((3, 2, 10), (12, 3, 2)):
        long, _ = _written_dataset(cards, 320)
        yield long
        for edit in _LONG_DATASET_EDITS.values():
            yield edit(long)
    for cards, _ in _WIDE_DATASETS.values():
        yield _written_dataset(cards, 50)[0]


@pytest.mark.parametrize("chars", [1, 7, 64, datafile._BLOCK_CHARS])
def test_dataset_file_reads_as_its_text(tmp_path, chars):
    path = tmp_path / "dataset.json"
    with mock.patch.object(datafile, "_BLOCK_CHARS", chars):
        for text in _dataset_file_texts():
            path.write_bytes(text.encode())
            ds = read_dataset_file(str(path))
            assert (ds is not None) == (read_as_one_array(text) and not text.startswith("\ufeff")), text
            if ds is not None:
                assert _read_outcome(lambda _: ds, None) == _read_outcome(dataset_from_text, text)
            # fit's columns come from the same blocks, and from no other text
            assert _columns_outcome(lambda: datafile.read_columns(str(path))) == _columns_outcome(lambda: ds), text


def test_cli_reads_each_dataset_file_as_the_reference_reads_its_text(tmp_path):
    path = tmp_path / "dataset.json"
    for text in _dataset_file_texts():
        path.write_bytes(text.encode())
        # the CLI drops a leading byte-order mark, and names a text that is not JSON as a data error
        want = _read_outcome(reference_dataset_from_text, text.removeprefix("\ufeff"))
        if want[0] is json.JSONDecodeError:
            want = DataError, f"{path} is not valid JSON: {want[1]}"
        assert _read_outcome(cli._load_dataset, str(path)) == want, text


_ONE_DIGIT_TEXT = _written_dataset((3, 2), 20)[0]
# the writer's texts of wide datasets, and a one-digit dataset in other layouts
_JSON_DATASET_FILES = {
    **{name: _written_dataset(cards, 50)[0] for name, (cards, _) in _WIDE_DATASETS.items()},
    "compact": json.dumps(json.loads(_ONE_DIGIT_TEXT), separators=(",", ":")),
    "one-cell-per-line": json.dumps(json.loads(_ONE_DIGIT_TEXT), indent=2),
}


@pytest.mark.parametrize("text", _JSON_DATASET_FILES.values(), ids=_JSON_DATASET_FILES.keys())
def test_cli_reads_a_dataset_file_that_json_reads_in_one_attempt(tmp_path, text):
    path = tmp_path / "dataset.json"
    path.write_bytes(text.encode())
    as_written, loads = mock.Mock(wraps=ingest._dataset_as_written), mock.Mock(wraps=json.loads)
    with mock.patch.object(ingest, "_dataset_as_written", as_written), mock.patch("json.loads", loads):
        ds = cli._load_dataset(str(path))
    # one look for the writer's layout, then json parses the whole text once
    assert as_written.call_count == 1
    assert [call.args[0] for call in loads.call_args_list].count(text) == 1
    want = reference_dataset_from_text(text)
    assert ds.specs == want.specs and ds.data.dtype == want.data.dtype and np.array_equal(ds.data, want.data)


def _traced_peak(read):
    """The peak of the memory that ``read()`` allocates, and its result."""
    tracemalloc.start()
    try:
        result = read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.mark.parametrize("form", [
    lambda text: text,
    _quote_timestamps,
    lambda text: text + "\n",  # a blank line at the end
], ids=["plain", "quoted-timestamps", "trailing-blank-line"])
def test_cli_file_readers_hold_no_more_as_the_file_grows(tmp_path, twostage, form):
    ds = twostage.sample(10_000, seed=5)
    small = write_historian_csv(ds)
    large = small + small.partition("\n")[2] * 3  # 40k records
    extra = {}
    for name, text in (("10k", form(small)), ("40k", form(large))):
        log = tmp_path / f"{name}.csv"
        log.write_bytes(text.encode())
        peak, read = _traced_peak(lambda: discretize_text(cli._log_text(str(log)), ds.specs))
        extra["log", name] = peak - read.data.nbytes
        dataset = tmp_path / f"{name}.json"
        extra["write", name], _ = _traced_peak(lambda: cli._atomic_write(dataset, dataset_json_chunks(read)))
        assert dataset.read_bytes() == cli._dump_json(dataset_to_json(read)).encode()
        peak, back = _traced_peak(lambda: cli._load_dataset(str(dataset)))
        extra["dataset", name] = peak - back.data.nbytes
        assert np.array_equal(back.data, read.data)
    for reader in ("log", "write", "dataset"):
        # a block at a time: four times the file, and the same memory beyond the dataset
        assert extra[reader, "40k"] <= 1.25 * extra[reader, "10k"], (reader, extra)
        assert extra[reader, "40k"] < len(large) / 2, (reader, extra)
