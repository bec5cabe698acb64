import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    dataset_to_json,
    discretize,
    format_spec_file,
    parse_log,
    parse_spec_file,
    project,
    suggest_bins,
)
from oracles import reference_discretize, reference_parse_log, reference_state_of

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
        dataset_from_json(json.loads(json.dumps(obj)))


def test_dataset_json_in_the_indented_layout_still_loads():
    ds = discretize(parse_log("LIT101,MV101\n100,1\n500,2\n900,1\n"), [LIT101, MV101])
    old_layout = json.dumps(dataset_to_json(ds), indent=2)  # one cell per line
    assert "[\n      0,\n      0\n    ]" in old_layout
    back = dataset_from_json(json.loads(old_layout))
    assert back.specs == ds.specs
    assert np.array_equal(back.data, ds.data)


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
