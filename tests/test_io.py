import json

import pytest

from wrlab.core import (Arm, Direction, Hierarchy, OutcomeKind, OutcomeSpec,
                        PatientRecord)
from wrlab.errors import DatasetFormatError
from wrlab.io import (hierarchy_from_dict, hierarchy_to_dict, read_dataset,
                      read_hierarchy, write_dataset)

H = Hierarchy((OutcomeSpec("death", OutcomeKind.TIME_TO_EVENT, Direction.HIGHER),
               OutcomeSpec("dose", OutcomeKind.CONTINUOUS, Direction.LOWER, margin=0.5)))


def sample_records():
    return [
        PatientRecord("p1", Arm.TREATMENT, ((730.0, False), 1.25)),
        PatientRecord("p2", Arm.TREATMENT, ((120.0, True), -0.5)),
        PatientRecord("p3", Arm.CONTROL, ((200.0, True), 0.0)),
        PatientRecord("p4", Arm.CONTROL, ((730.0, False), 2.0)),
    ]


class TestDatasetRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "ds.csv"
        write_dataset(sample_records(), H, path)
        back = read_dataset(path, H)
        assert back == sample_records()

    def test_header_written(self, tmp_path):
        path = tmp_path / "ds.csv"
        write_dataset(sample_records(), H, path)
        header = path.read_text().splitlines()[0]
        assert header == "id,arm,time_death,event_death,dose"


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
