"""Dataset CSV and hierarchy JSON input/output.

Dataset schema: header row with `id`, `arm` (values T/C), then per hierarchy
level either a single column `<name>` (continuous/binary/count) or the pair
`time_<name>`, `event_<name>` with event coded 1 (observed) / 0 (censored).
Unparsable cells are hard errors carrying line and column diagnostics.
"""

from __future__ import annotations

import contextlib
import csv
import json
import operator
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import (Direction, Hierarchy, LevelColumn, OutcomeKind, OutcomeSpec,
                   PatientRecord, _level_column, _take)
from .errors import DatasetFormatError

HIERARCHY_SCHEMA = "wrlab/hierarchy-v1"


def _level_columns(spec: OutcomeSpec) -> list[str]:
    if spec.kind is OutcomeKind.TIME_TO_EVENT:
        return [f"time_{spec.name}", f"event_{spec.name}"]
    return [spec.name]


def read_dataset(path: str | Path, hierarchy: Hierarchy
                 ) -> tuple[list[LevelColumn], list[LevelColumn]]:
    """Read a dataset CSV into per-level (treatment, control) columns that meet the
    hierarchy's value rule. A fault is reported as `path:line: column`, the first line's."""
    path = str(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise DatasetFormatError(f"{path}:1: empty file") from None
        columns = ["id", "arm"] + [c for spec in hierarchy.levels for c in _level_columns(spec)]
        for col in columns:
            if col not in header:
                raise DatasetFormatError(f"{path}:1: missing required column '{col}'")
        pick = operator.itemgetter(*(header.index(col) for col in columns[1:]))
        lines, rows, faults = [], [], []  # faults: (line, column order, message)
        for line, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) < len(header):
                faults.append((line, 0, f"expected {len(header)} cells, got {len(row)}"))
                row += [""] * (len(header) - len(row))
            lines.append(line)
            rows.append(pick(row))
    if not rows:
        raise DatasetFormatError(f"{path}: no patient rows")
    arms, *cells = zip(*rows)
    arms = [arm.strip() for arm in arms]
    faults += [(lines[i], 1, f"column 'arm': expected 'T' or 'C', got {arm!r}")
               for i, arm in enumerate(arms) if arm not in ("T", "C")][:1]
    parsed = {}
    for name, raw in zip(columns[2:], cells):
        values = []
        with contextlib.suppress(ValueError):
            for cell in raw:
                values.append(float(cell))
        if len(values) < len(raw):
            faults.append((lines[len(values)], columns.index(name), f"column '{name}': cannot "
                           f"parse {raw[len(values)].strip()!r} as a number"))
        # Zeros pass every value rule, so the cells past a fault report nothing.
        parsed[name] = np.array(values + [0.0] * (len(raw) - len(values)))
    cols = []
    for spec in hierarchy.levels:
        names = _level_columns(spec)
        col, fault = _level_column(spec, [parsed[name] for name in names])
        if fault is not None:
            i, part, reason = fault
            faults.append((lines[i], columns.index(names[part]),
                           f"column '{names[part]}': {reason}"))
        cols.append(col)
    if faults:
        line, _, message = min(faults)
        raise DatasetFormatError(f"{path}:{line}: {message}")
    in_treatment = np.array(arms) == "T"
    if in_treatment.all() or not in_treatment.any():
        raise DatasetFormatError(f"{path}: dataset must contain at least one patient per arm")
    return [_take(c, in_treatment) for c in cols], [_take(c, ~in_treatment) for c in cols]


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
                                      margin=item.get("margin", 0.0)))
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
