"""Dataset CSV and hierarchy JSON input/output.

Dataset schema: header row with `id`, `arm` (values T/C), then per hierarchy
level either a single column `<name>` (continuous/binary/count) or the pair
`time_<name>`, `event_<name>` with event coded 1 (observed) / 0 (censored).
Unparsable cells are hard errors carrying line and column diagnostics.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

from .core import (Arm, Direction, Hierarchy, LevelValue, OutcomeKind,
                   OutcomeSpec, PatientRecord, _validate_scalar, _validate_tte)
from .errors import DatasetFormatError, InvalidInputError

HIERARCHY_SCHEMA = "wrlab/hierarchy-v1"


def _level_columns(spec: OutcomeSpec) -> list[str]:
    if spec.kind is OutcomeKind.TIME_TO_EVENT:
        return [f"time_{spec.name}", f"event_{spec.name}"]
    return [spec.name]


def _parse_cell(raw: str, kind: str, path: str, line: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DatasetFormatError(
            f"{path}:{line}: column '{column}': cannot parse {raw!r} as a number") from None
    if kind == "event" and value not in (0.0, 1.0):
        raise DatasetFormatError(
            f"{path}:{line}: column '{column}': event indicator must be 0 or 1, got {raw!r}")
    return value


def read_dataset(path: str | Path, hierarchy: Hierarchy) -> list[PatientRecord]:
    """Read a dataset CSV conforming to the hierarchy; errors are positional."""
    path = str(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}:1: empty file") from None
        header = [h.strip() for h in header]
        required = ["id", "arm"]
        for spec in hierarchy.levels:
            required += _level_columns(spec)
        index: dict[str, int] = {}
        for col in required:
            if col not in header:
                raise DatasetFormatError(f"{path}:1: missing required column '{col}'")
            index[col] = header.index(col)

        records: list[PatientRecord] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < len(header):
                raise DatasetFormatError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}")
            arm_raw = row[index["arm"]].strip()
            if arm_raw not in ("T", "C"):
                raise DatasetFormatError(
                    f"{path}:{line_no}: column 'arm': expected 'T' or 'C', got {arm_raw!r}")
            values: list[LevelValue] = []
            for spec in hierarchy.levels:
                if spec.kind is OutcomeKind.TIME_TO_EVENT:
                    col, ecol = _level_columns(spec)
                    value = (_parse_cell(row[index[col]].strip(), "time", path, line_no, col),
                             _parse_cell(row[index[ecol]].strip(), "event", path, line_no, ecol))
                    validate = _validate_tte
                else:
                    col = spec.name
                    value = _parse_cell(row[index[col]].strip(), "value", path, line_no, col)
                    validate = _validate_scalar
                try:
                    values.append(validate(value, spec))
                except InvalidInputError as exc:
                    raise DatasetFormatError(f"{path}:{line_no}: column '{col}': {exc}") from None
            records.append(PatientRecord(id=row[index["id"]].strip(),
                                         arm=Arm(arm_raw), values=tuple(values)))
    if not records:
        raise DatasetFormatError(f"{path}: no patient rows")
    return records


def write_dataset(records: Iterable[PatientRecord], hierarchy: Hierarchy,
                  path: str | Path) -> None:
    """Write records in the dataset CSV schema (for external verification)."""
    header = ["id", "arm"]
    for spec in hierarchy.levels:
        header += _level_columns(spec)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            row: list[str] = [r.id, r.arm.value]
            for spec, value in zip(hierarchy.levels, r.values):
                if spec.kind is OutcomeKind.TIME_TO_EVENT:
                    t, e = value
                    row += [f"{t:.10g}", "1" if e else "0"]
                else:
                    row.append(f"{value:.10g}")
            writer.writerow(row)


def hierarchy_to_dict(h: Hierarchy) -> dict:
    return {"schema": HIERARCHY_SCHEMA,
            "levels": [{"name": s.name, "kind": s.kind.value,
                        "direction": s.direction.value, "margin": s.margin}
                       for s in h.levels]}


def hierarchy_from_dict(payload: dict, source: str = "<config>") -> Hierarchy:
    if not isinstance(payload, dict):
        raise DatasetFormatError(f"{source}: expected a JSON object")
    if payload.get("schema") != HIERARCHY_SCHEMA:
        raise DatasetFormatError(
            f"{source}: expected schema {HIERARCHY_SCHEMA!r}, got {payload.get('schema')!r}")
    levels_raw = payload.get("levels")
    if not isinstance(levels_raw, list) or not levels_raw:
        raise DatasetFormatError(f"{source}: 'levels' must be a non-empty list")
    levels = []
    for i, item in enumerate(levels_raw):
        if not isinstance(item, dict):
            raise DatasetFormatError(f"{source}: level {i}: expected an object")
        try:
            levels.append(OutcomeSpec(name=item["name"], kind=OutcomeKind(item["kind"]),
                                      direction=Direction(item["direction"]),
                                      margin=float(item.get("margin", 0.0))))
        except (KeyError, ValueError) as exc:
            raise DatasetFormatError(f"{source}: level {i}: {exc}") from None
    return Hierarchy(tuple(levels))


def read_hierarchy(path: str | Path) -> Hierarchy:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}: invalid JSON: {exc}") from None
    return hierarchy_from_dict(payload, source=str(path))
