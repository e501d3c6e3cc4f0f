"""Random small mixed-kind datasets shared by the oracle-equivalence tests."""

import numpy as np

from wrlab.core import (Arm, Direction, Hierarchy, OutcomeKind, OutcomeSpec,
                        PatientRecord)

KINDS = [OutcomeKind.TIME_TO_EVENT, OutcomeKind.CONTINUOUS,
         OutcomeKind.BINARY, OutcomeKind.COUNT]


def random_hierarchy(rng: np.random.Generator) -> Hierarchy:
    n_levels = int(rng.integers(1, 4))
    levels = []
    for k in range(n_levels):
        kind = KINDS[int(rng.integers(len(KINDS)))]
        direction = Direction.HIGHER if rng.random() < 0.5 else Direction.LOWER
        margin = 0.0
        if kind is not OutcomeKind.BINARY and rng.random() < 0.4:
            margin = float(rng.uniform(0.0, 2.0))
        levels.append(OutcomeSpec(f"lvl{k}", kind, direction, margin))
    return Hierarchy(tuple(levels))


def random_value(kind: OutcomeKind, rng: np.random.Generator):
    if kind is OutcomeKind.TIME_TO_EVENT:
        # Coarse times force exact ties and censored-overlap cases.
        return (float(rng.integers(0, 8)), bool(rng.random() < 0.6))
    if kind is OutcomeKind.CONTINUOUS:
        return float(np.round(rng.normal(0.0, 2.0), 1))
    if kind is OutcomeKind.BINARY:
        return float(rng.integers(0, 2))
    return float(rng.integers(0, 5))


def random_dataset(rng: np.random.Generator, max_per_arm: int = 10
                   ) -> tuple[list[PatientRecord], Hierarchy]:
    h = random_hierarchy(rng)
    n_t = int(rng.integers(1, max_per_arm + 1))
    n_c = int(rng.integers(1, max_per_arm + 1))
    records = []
    for i in range(n_t):
        values = tuple(random_value(s.kind, rng) for s in h.levels)
        records.append(PatientRecord(f"t{i}", Arm.TREATMENT, values))
    for i in range(n_c):
        values = tuple(random_value(s.kind, rng) for s in h.levels)
        records.append(PatientRecord(f"c{i}", Arm.CONTROL, values))
    return records, h


def random_counted_dataset(rng: np.random.Generator, max_per_arm: int = 12
                           ) -> tuple[list[PatientRecord], Hierarchy]:
    """One or two levels, at least one censored or margined: every kind and direction,
    margins 0 and > 0, heavily tied values on grids where a difference equals the margin
    in floating point (0.25 steps, margin 0.5) or misses it by rounding (0.1 steps),
    arms with no event at a level, and one-patient arms."""
    while True:
        h = Hierarchy(tuple(
            OutcomeSpec(f"lvl{k}", kind,
                        Direction.HIGHER if rng.random() < 0.5 else Direction.LOWER,
                        0.0 if kind is OutcomeKind.BINARY or rng.random() < 0.3
                        else float(rng.choice([0.1, 0.25, 0.5, 1.0])))
            for k in range(int(rng.integers(1, 3)))
            for kind in [KINDS[int(rng.integers(len(KINDS)))]]))
        if not h.lexicographic:
            break
    steps = [float(rng.choice([0.1, 0.25, 1.0])) for _ in h.levels]

    def value(spec, step, p_event):
        if spec.kind is OutcomeKind.TIME_TO_EVENT:
            return (float(rng.integers(0, 6)) * step, bool(rng.random() < p_event))
        if spec.kind is OutcomeKind.CONTINUOUS:
            return float(rng.integers(-4, 5)) * step
        return float(rng.integers(0, 2 if spec.kind is OutcomeKind.BINARY else 5))

    records = []
    for arm in (Arm.TREATMENT, Arm.CONTROL):
        n = 1 if rng.random() < 0.2 else int(rng.integers(1, max_per_arm + 1))
        p_event = [float(rng.choice([0.0, 0.5, 1.0])) for _ in h.levels]
        records += [PatientRecord(f"{arm.value}{i}", arm,
                                  tuple(value(*args) for args in zip(h.levels, steps, p_event)))
                    for i in range(n)]
    return records, h


def random_lexicographic_dataset(rng: np.random.Generator, n_t: int, n_c: int
                                 ) -> tuple[list[PatientRecord], Hierarchy]:
    """Scalar margin-0 levels with heavily tied values (including -0.0 and 0.0)."""
    h = Hierarchy(tuple(
        OutcomeSpec(f"lvl{k}", KINDS[int(rng.integers(1, len(KINDS)))],
                    Direction.HIGHER if rng.random() < 0.5 else Direction.LOWER)
        for k in range(int(rng.integers(1, 4)))))

    def value(kind):
        if kind is OutcomeKind.CONTINUOUS:
            return float(np.round(rng.normal(0.0, 1.0)))
        if kind is OutcomeKind.COUNT:
            return float(rng.integers(0, 3))
        return float(rng.integers(0, 2))

    records = [PatientRecord(f"{arm.value}{i}", arm, tuple(value(s.kind) for s in h.levels))
               for arm, n in ((Arm.TREATMENT, n_t), (Arm.CONTROL, n_c)) for i in range(n)]
    return records, h


def to_oracle_form(records, h):
    """Convert records/hierarchy into the naive oracle's dict representation."""
    levels = [{"name": s.name, "kind": s.kind.value, "direction": s.direction.value,
               "margin": s.margin} for s in h.levels]
    t_patients, c_patients = [], []
    for r in records:
        patient = {s.name: v for s, v in zip(h.levels, r.values)}
        (t_patients if r.arm is Arm.TREATMENT else c_patients).append(patient)
    return t_patients, c_patients, levels
