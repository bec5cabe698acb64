import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpscausal.errors import (
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
        with pytest.raises(UnmappedActuatorValue):
            discretize(log, [MV101])

    def test_missing_column(self):
        log = parse_log("A\n1\n")
        with pytest.raises(MissingColumn):
            discretize(log, [MV101])

    def test_rebinning_is_identity(self):
        # pushing the labelled output back through the same mapping changes nothing
        rng = np.random.default_rng(5)
        raw = rng.uniform(50, 1000, size=200)
        log = parse_log("LIT101\n" + "\n".join(repr(float(v)) for v in raw))
        ds = discretize(log, [LIT101])
        again = np.array([LIT101.state_of([100.0, 500.0, 900.0][s]) for s in ds.data[:, 0]])
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


def test_dataset_json_round_trip():
    log = parse_log("LIT101,MV101\n100,1\n500,2\n900,1\n")
    ds = discretize(log, [LIT101, MV101])
    back = dataset_from_json(dataset_to_json(ds))
    assert back.specs == ds.specs
    assert np.array_equal(back.data, ds.data)
