import json
import math

import numpy as np
import pytest

from wrlab.core import (Arm, Direction, Hierarchy, OutcomeKind, OutcomeSpec,
                        PatientRecord, split_dataset)
from wrlab.errors import DatasetFormatError
from wrlab.io import (hierarchy_from_dict, hierarchy_to_dict, read_dataset,
                      read_hierarchy, write_dataset)

from random_datasets import random_dataset

H = Hierarchy((OutcomeSpec("death", OutcomeKind.TIME_TO_EVENT, Direction.HIGHER),
               OutcomeSpec("dose", OutcomeKind.CONTINUOUS, Direction.LOWER, margin=0.5)))


def sample_records():
    return [
        PatientRecord("p1", Arm.TREATMENT, ((730.0, False), 1.25)),
        PatientRecord("p2", Arm.TREATMENT, ((120.0, True), -0.5)),
        PatientRecord("p3", Arm.CONTROL, ((200.0, True), 0.0)),
        PatientRecord("p4", Arm.CONTROL, ((730.0, False), 2.0)),
    ]


def assert_same_columns(got, want):
    """Equal per-level columns: float64 values and times, bool events."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = (g, w) if isinstance(w, tuple) else ((g,), (w,))
        assert isinstance(g, tuple) and len(g) == len(w)
        for g_part, w_part in zip(g, w):
            assert g_part.dtype == w_part.dtype and np.array_equal(g_part, w_part)


class TestDatasetRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "ds.csv"
        write_dataset(sample_records(), H, path)
        t_cols, c_cols = read_dataset(path, H)
        assert_same_columns(t_cols, [(np.array([730.0, 120.0]), np.array([False, True])),
                                     np.array([1.25, -0.5])])
        assert_same_columns(c_cols, [(np.array([200.0, 730.0]), np.array([True, False])),
                                     np.array([0.0, 2.0])])

    def test_round_trip_equals_record_columns(self, tmp_path):
        # Random hierarchies of every kind, both directions and margins: the CSV
        # read gives the columns the record API builds from the same patients.
        rng = np.random.default_rng(1111)
        path = tmp_path / "ds.csv"
        for _ in range(200):
            records, h = random_dataset(rng)
            write_dataset(records, h, path)
            for got, want in zip(read_dataset(path, h), split_dataset(records, h)):
                assert_same_columns(got, want)

    def test_header_written(self, tmp_path):
        path = tmp_path / "ds.csv"
        write_dataset(sample_records(), H, path)
        header = path.read_text().splitlines()[0]
        assert header == "id,arm,time_death,event_death,dose"


H4 = Hierarchy(H.levels + (OutcomeSpec("visits", OutcomeKind.COUNT, Direction.LOWER),
                           OutcomeSpec("flag", OutcomeKind.BINARY, Direction.LOWER)))
H4_HEADER = "id,arm,time_death,event_death,dose,visits,flag"
H4_ROWS = "p1,T,10,1,0.5,0,1\np2,C,20,0,1.5,2,0\np3,T,30,1,2.0,1,1"


class TestDatasetErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return path

    def test_missing_column(self, tmp_path):
        path = self.write(tmp_path, "id,arm,time_death,event_death\n")
        with pytest.raises(DatasetFormatError, match="missing required column 'dose'"):
            read_dataset(path, H)

    def test_bad_arm_value(self, tmp_path):
        path = self.write(tmp_path, "id,arm,time_death,event_death,dose\n"
                                    "p1,X,10,1,0.5\n")
        with pytest.raises(DatasetFormatError, match=r":2: column 'arm'"):
            read_dataset(path, H)

    def test_unparsable_number_reports_position(self, tmp_path):
        path = self.write(tmp_path, "id,arm,time_death,event_death,dose\n"
                                    "p1,T,10,1,0.5\n"
                                    "p2,C,oops,0,1.0\n")
        with pytest.raises(DatasetFormatError, match=r":3: column 'time_death'"):
            read_dataset(path, H)

    def test_event_indicator_must_be_binary(self, tmp_path):
        path = self.write(tmp_path, "id,arm,time_death,event_death,dose\n"
                                    "p1,T,10,2,0.5\n")
        with pytest.raises(DatasetFormatError, match="event indicator must be 0 or 1"):
            read_dataset(path, H)

    @pytest.mark.parametrize("row, column", [
        ("p1,T,10,1,nan,0", "dose"),
        ("p1,T,inf,1,0.5,0", "time_death"),
        ("p1,T,10,1,0.5,2.5", "visits"),
        ("p1,T,-1,0,0.5,1", "time_death"),
    ])
    def test_invalid_values_report_position(self, tmp_path, row, column):
        h = Hierarchy(H.levels + (OutcomeSpec("visits", OutcomeKind.COUNT, Direction.LOWER),))
        path = self.write(tmp_path, f"id,arm,time_death,event_death,dose,visits\n{row}\n")
        with pytest.raises(DatasetFormatError, match=f":2: column '{column}'"):
            read_dataset(path, h)

    @pytest.mark.parametrize("row, where", [
        ("p4,C,oops,1,0.5,0,1", "column 'time_death': cannot parse 'oops'"),
        ("p4,C,10,1,nan,0,1", "column 'dose': value must be finite"),
        ("p4,C,10,1,0.5,0,2", "column 'flag': binary value must be 0 or 1"),
        ("p4,C,10,1,0.5,2.5,1", "column 'visits': count must be a nonnegative integer"),
        ("p4,C,-1,1,0.5,0,1", "column 'time_death': time must be finite and >= 0"),
        ("p4,C,10,2,0.5,0,1", "column 'event_death': event indicator must be 0 or 1"),
        ("p4,X,10,1,0.5,0,1", "column 'arm': expected 'T' or 'C'"),
        ("p4,C,10,1", "expected 7 cells, got 4"),
    ])
    def test_each_rejection_reports_line_and_column(self, tmp_path, row, where):
        path = self.write(tmp_path, f"{H4_HEADER}\n{H4_ROWS}\n{row}\np5,C,5,0,0.0,1,0\n")
        with pytest.raises(DatasetFormatError, match=f"bad.csv:5: {where}"):
            read_dataset(path, H4)

    def test_short_only_row_reported(self, tmp_path):
        path = self.write(tmp_path, "id,arm,time_death,event_death,dose\np1,T,10\n")
        with pytest.raises(DatasetFormatError, match="bad.csv:2: expected 5 cells, got 3"):
            read_dataset(path, H)

    def test_first_faulty_line_is_reported(self, tmp_path):
        # A fault in a later column on an earlier line is the one reported.
        rows = H4_ROWS.replace("p2,C,20,0,1.5,2,0", "p2,C,20,0,1.5,2,5")
        path = self.write(tmp_path, f"{H4_HEADER}\n{rows}\np4,C,oops,1,0.5,0,1\n")
        with pytest.raises(DatasetFormatError, match="bad.csv:3: column 'flag'"):
            read_dataset(path, H4)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(DatasetFormatError):
            read_dataset(path, H)

    def test_no_rows(self, tmp_path):
        path = self.write(tmp_path, "id,arm,time_death,event_death,dose\n")
        with pytest.raises(DatasetFormatError, match="no patient rows"):
            read_dataset(path, H)


class TestHierarchyConfig:
    def test_round_trip(self):
        payload = hierarchy_to_dict(H)
        assert payload["schema"] == "wrlab/hierarchy-v1"
        back = hierarchy_from_dict(payload)
        assert back == H

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(hierarchy_to_dict(H)))
        assert read_hierarchy(path) == H

    def test_wrong_schema_rejected(self):
        with pytest.raises(DatasetFormatError, match="schema"):
            hierarchy_from_dict({"schema": "nope", "levels": []})

    def test_bad_level_rejected(self):
        with pytest.raises(DatasetFormatError, match="level 0"):
            hierarchy_from_dict({"schema": "wrlab/hierarchy-v1",
                                 "levels": [{"name": "x", "kind": "mystery",
                                             "direction": "higher-favorable"}]})

    @pytest.mark.parametrize("name", [5, "", None])
    def test_level_name_must_be_non_empty_string(self, name):
        # Checked by OutcomeSpec itself, so library hierarchies follow the same rule.
        with pytest.raises(DatasetFormatError, match="level 0: .*name must be a non-empty string"):
            hierarchy_from_dict({"schema": "wrlab/hierarchy-v1",
                                 "levels": [{"name": name, "kind": "continuous",
                                             "direction": "higher-favorable"}]})

    @pytest.mark.parametrize("margin, rule", [
        (None, "must be a number, got None"), ([1], "must be a number, got [1]"),
        (True, "must be a number, got True"), ("0.5", "must be a number, got '0.5'"),
        (math.nan, "must be finite, got nan"), (math.inf, "must be finite, got inf"),
        (-1.0, "must be >= 0, got -1.0"),
    ], ids=["None", "margin1", "True", "0.5", "nan", "inf", "-1.0"])
    def test_level_margin_must_be_number(self, margin, rule):
        # Checked by OutcomeSpec itself, so library hierarchies follow the same rule.
        with pytest.raises(DatasetFormatError) as exc:
            hierarchy_from_dict({"schema": "wrlab/hierarchy-v1",
                                 "levels": [{"name": "x", "kind": "continuous",
                                             "direction": "higher-favorable",
                                             "margin": margin}]})
        assert f"level 0: OutcomeSpec 'x': margin {rule}" in str(exc.value)

    def test_non_object_payload_or_level_rejected(self):
        with pytest.raises(DatasetFormatError, match="expected a JSON object"):
            hierarchy_from_dict([], source="h.json")
        with pytest.raises(DatasetFormatError, match="h.json: level 0: expected an object"):
            hierarchy_from_dict({"schema": "wrlab/hierarchy-v1", "levels": [1]}, source="h.json")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text("{not json")
        with pytest.raises(DatasetFormatError, match="invalid JSON"):
            read_hierarchy(path)
