"""Hierarchical pairwise comparison engine for composite endpoints.

Compares treatment/control patients level by level through an ordered
outcome hierarchy, descending to the next level on ties, and tallies
wins, losses and ties over either all cross-arm pairs (unmatched) or an
externally supplied pairing (matched).

Censored time-to-event values are only compared on the interval where both
patients are under observation: a pair is decided at a time-to-event level
only when the less favorable patient's event is known to precede the other
patient's observation time by more than the margin. Everything else at that
level is a tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import AllTiesError, InvalidInputError, _check_real


class OutcomeKind(str, Enum):
    TIME_TO_EVENT = "time-to-event"
    CONTINUOUS = "continuous"
    BINARY = "binary"
    COUNT = "count"


class Direction(str, Enum):
    HIGHER = "higher-favorable"
    LOWER = "lower-favorable"


class Arm(str, Enum):
    TREATMENT = "T"
    CONTROL = "C"


class Verdict(str, Enum):
    WIN = "win"
    LOSS = "loss"
    TIE = "tie"


@dataclass(frozen=True)
class OutcomeSpec:
    """One level of the hierarchy: outcome type, favorable direction, margin."""

    name: str
    kind: OutcomeKind
    direction: Direction
    margin: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise InvalidInputError(f"OutcomeSpec: name must be a non-empty string, "
                                    f"got {self.name!r}")
        # Finiteness first, so that a NaN or infinite margin is named as such.
        _check_real(f"OutcomeSpec '{self.name}': margin", self.margin)
        _check_real(f"OutcomeSpec '{self.name}': margin", self.margin, 0.0, ends="[)")
        if self.kind is OutcomeKind.BINARY and self.margin != 0.0:
            raise InvalidInputError(f"OutcomeSpec '{self.name}': binary outcomes take margin 0")


@dataclass(frozen=True)
class Hierarchy:
    """Ordered outcome levels, highest-ranked (most severe) first."""

    levels: tuple[OutcomeSpec, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise InvalidInputError("Hierarchy: at least one level required")
        names = [s.name for s in self.levels]
        if len(set(names)) != len(names):
            raise InvalidInputError(f"Hierarchy: level names must be unique, got {names}")

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def lexicographic(self) -> bool:
        """Every level is scalar with margin 0, so pairs compare in lexicographic order."""
        return all(s.kind is not OutcomeKind.TIME_TO_EVENT and s.margin == 0 for s in self.levels)


# Per-level patient value: scalar for continuous/binary/count, or a
# (time, event-observed) pair for time-to-event.
LevelValue = Union[float, int, tuple[float, bool]]


@dataclass(frozen=True)
class PatientRecord:
    id: str
    arm: Arm
    values: tuple[LevelValue, ...]


@dataclass(frozen=True)
class ComparisonResult:
    verdict: Verdict
    deciding_level: int | None  # 0-based; None iff tie

    def __post_init__(self) -> None:
        if (self.deciding_level is None) != (self.verdict is Verdict.TIE):
            raise InvalidInputError("ComparisonResult: deciding_level present iff not a tie")


@dataclass(frozen=True)
class WinStats:
    """Win/loss/tie tallies with per-level decision counts."""

    n_win: int
    n_loss: int
    n_tie: int
    n_pairs: int
    decided_at_level: Mapping[int, int]
    pairing: str  # "unmatched" | "matched"
    n_treatment: int
    n_control: int

    def __post_init__(self) -> None:
        if self.n_win + self.n_loss + self.n_tie != self.n_pairs:
            raise InvalidInputError("WinStats: win + loss + tie must equal n_pairs")
        if sum(self.decided_at_level.values()) != self.n_win + self.n_loss:
            raise InvalidInputError("WinStats: per-level decisions must sum to win + loss")
        if self.pairing not in ("unmatched", "matched"):
            raise InvalidInputError(f"WinStats: unknown pairing {self.pairing!r}")

    @property
    def n_informative(self) -> int:
        return self.n_win + self.n_loss


# Columnar form of one arm's data for a hierarchy: one entry per level,
# either a float array (scalar kinds) or a (times, events) array pair.
LevelColumn = Union[np.ndarray, tuple[np.ndarray, np.ndarray]]


def _level_column(spec: OutcomeSpec, parts: Sequence[Sequence]
                  ) -> tuple[LevelColumn, tuple[int, int, str] | None]:
    """The level's value rule: one level's column from its values (times and event
    indicators for time-to-event), and the first value that breaks the rule, as
    (position, part, reason), or None."""
    arrays = [np.asarray(part, dtype=np.float64) for part in parts]
    x = arrays[0]
    if spec.kind is OutcomeKind.TIME_TO_EVENT:
        rules = [(np.isfinite(x) & (x >= 0), "time must be finite and >= 0"),
                 ((arrays[1] == 0) | (arrays[1] == 1), "event indicator must be 0 or 1")]
    elif spec.kind is OutcomeKind.BINARY:
        rules = [((x == 0) | (x == 1), "binary value must be 0 or 1")]
    elif spec.kind is OutcomeKind.COUNT:
        rules = [(np.isfinite(x) & (x >= 0) & (x == np.floor(x)),
                  "count must be a nonnegative integer")]
    else:
        rules = [(np.isfinite(x), "value must be finite")]
    faults = [(i, part, f"{reason}, got {float(arrays[part][i])!r}")
              for part, (ok, reason) in enumerate(rules) if not ok.all()
              for i in [int(ok.argmin())]]
    col = (x, arrays[1] == 1) if spec.kind is OutcomeKind.TIME_TO_EVENT else x
    return col, min(faults, default=None)


_VERDICTS = {1: Verdict.WIN, -1: Verdict.LOSS, 0: Verdict.TIE}


def compare_at_level(a: LevelValue, b: LevelValue, spec: OutcomeSpec) -> Verdict:
    """Compare treatment value `a` against control value `b` at one level."""
    return compare_pair(PatientRecord("a", Arm.TREATMENT, (a,)),
                        PatientRecord("b", Arm.CONTROL, (b,)), Hierarchy((spec,))).verdict


def compare_pair(a: PatientRecord, b: PatientRecord, h: Hierarchy) -> ComparisonResult:
    """Hierarchical comparison: verdict of the first non-tied level."""
    net, decided = _cascade(h, arm_columns([a], h), arm_columns([b], h), (1,))
    return ComparisonResult(_VERDICTS[int(net[0])], decided.index(1) if net[0] else None)


def arm_columns(records: Sequence[PatientRecord], h: Hierarchy) -> list[LevelColumn]:
    """Validate records of one arm and convert to per-level column arrays."""
    for r in records:
        if len(r.values) != len(h):
            raise InvalidInputError(f"patient {r.id!r}: {len(r.values)} values for "
                                    f"{len(h)}-level hierarchy")
    cols: list[LevelColumn] = []
    for k, spec in enumerate(h.levels):
        parts = [[r.values[k] for r in records]]
        if spec.kind is OutcomeKind.TIME_TO_EVENT:
            if not all(isinstance(v, tuple) and len(v) == 2 for v in parts[0]):
                raise InvalidInputError(f"level '{spec.name}': time-to-event needs a "
                                        "(time, event) pair")
            parts = [[v[part] for v in parts[0]] for part in (0, 1)]
        col, fault = _level_column(spec, parts)
        if fault is not None:
            raise InvalidInputError(f"patient {records[fault[0]].id!r}: level '{spec.name}': "
                                    f"{fault[2]}")
        cols.append(col)
    return cols


def split_dataset(dataset: Iterable[PatientRecord], h: Hierarchy
                  ) -> tuple[list[LevelColumn], list[LevelColumn]]:
    """Split mixed-arm records into treatment and control column sets."""
    treat, ctrl = [], []
    for r in dataset:
        (treat if r.arm is Arm.TREATMENT else ctrl).append(r)
    if not treat or not ctrl:
        raise InvalidInputError("dataset must contain at least one patient per arm")
    return arm_columns(treat, h), arm_columns(ctrl, h)


def _win_loss_masks(spec: OutcomeSpec, a_vals, b_vals) -> tuple[np.ndarray, np.ndarray]:
    """Boolean win/loss masks for broadcastable treatment/control arrays."""
    m = spec.margin
    if spec.kind is OutcomeKind.TIME_TO_EVENT:
        (t_a, ev_a), (t_b, ev_b) = a_vals, b_vals
        a_after_b = t_a > t_b + m
        b_after_a = t_b > t_a + m
        if spec.direction is Direction.HIGHER:
            return ev_b & a_after_b, ev_a & b_after_a
        return ev_a & b_after_a, ev_b & a_after_b
    diff = a_vals - b_vals
    if spec.direction is Direction.HIGHER:
        return diff > m, diff < -m
    return diff < -m, diff > m


def _size(col: LevelColumn) -> int:
    return len(col[0] if isinstance(col, tuple) else col)


def _take(col: LevelColumn, index) -> LevelColumn:
    return (col[0][index], col[1][index]) if isinstance(col, tuple) else col[index]


def _cascade(h: Hierarchy, t_levels: Iterable, c_levels: Iterable, shape: tuple[int, ...],
             counted: int = 0) -> tuple[np.ndarray, list[int]]:
    """Each pair's net verdict, +1 win / -1 loss / 0 tie at its first untied level, and
    the number of pairs each level decides in columns `counted:` of the last axis.

    `t_levels` and `c_levels` yield one value array per level, shaped to
    broadcast to `shape`; they are consumed lazily, so levels after the last
    undecided pair are never compared.
    """
    net = np.zeros(shape, dtype=np.int8)
    undecided = np.ones(shape, dtype=bool)
    decided, left = [0] * len(h), undecided[..., counted:].size
    for k, (spec, a_vals, b_vals) in enumerate(zip(h.levels, t_levels, c_levels)):
        win, loss = _win_loss_masks(spec, a_vals, b_vals)
        net += win & undecided
        net -= loss & undecided
        undecided &= ~(win | loss)
        now = np.count_nonzero(undecided[..., counted:])
        decided[k], left = left - now, now
        if not left and not undecided.any():
            break
    return net, decided


def pairwise_verdicts(pooled: Sequence[LevelColumn], h: Hierarchy, rows: range, cols: range,
                      *, count_from: int = 0) -> tuple[np.ndarray, list[int]]:
    """The int8 net verdict block (+1 win / -1 loss / 0 tie) of pooled patients `rows`, each
    taken as the treatment patient, against pooled patients `cols`, and the number of its
    pairs each level decides in the columns from pooled patient `count_from` on."""
    at_row, at_col = np.s_[rows.start:rows.stop, None], np.s_[None, cols.start:cols.stop]
    return _cascade(h, (_take(col, at_row) for col in pooled),
                    (_take(col, at_col) for col in pooled), (len(rows), len(cols)),
                    max(count_from - cols.start, 0))


def _tally(net: int, decided: Sequence[int], n_pairs: int, pairing: str,
           n_treatment: int, n_control: int) -> WinStats:
    """The tally from wins - losses and the number of pairs decided at each level."""
    total = sum(decided)
    return WinStats(n_win=(total + net) // 2, n_loss=(total - net) // 2, n_tie=n_pairs - total,
                    n_pairs=n_pairs, decided_at_level={k: d for k, d in enumerate(decided) if d},
                    pairing=pairing, n_treatment=n_treatment, n_control=n_control)


@dataclass(frozen=True)
class ArmComparison:
    """All cross-arm comparisons of one unmatched dataset: the tally `stats`,
    `net_scores()`, each patient's wins minus losses against the pooled sample
    as int64 (u_t, u_c), and `cross()`, the N_T x N_C int8 verdict matrix, built per call."""

    stats: WinStats
    net_scores: Callable[[], tuple[np.ndarray, np.ndarray]]
    cross: Callable[[], np.ndarray]


def _lex_ranks(keys: Sequence[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Group ids of the rows under each key prefix (ids ascend in lexicographic
    order, first key most significant; equal keys, equal id), and the number
    of rows strictly below and strictly above each row under all keys."""
    order = np.lexsort(keys[::-1])
    opens = np.zeros(order.size, dtype=bool)
    ids = []
    for key in keys:
        s = key[order]
        opens[1:] |= s[1:] != s[:-1]
        ids.append(np.empty(order.size, dtype=np.int64))
        ids[-1][order] = np.cumsum(opens)
    size = np.bincount(ids[-1])
    upto = np.cumsum(size)[ids[-1]]
    return ids, upto - size[ids[-1]], order.size - upto


def _rank_comparison(keys: list[np.ndarray], n_t: int) -> ArmComparison:
    """One sort of the pooled direction-signed keys (larger is better); exact, because
    for finite doubles a - b > 0 iff a > b and a - b = 0 iff a = b."""
    ids, below, above = _lex_ranks(keys)
    n_c, u, gid = keys[0].size - n_t, below - above, ids[-1]
    # Cross pairs still tied after each key prefix.
    tied = [n_t * n_c] + [int(np.bincount(g[:n_t], minlength=g.size)
                              @ np.bincount(g[n_t:], minlength=g.size)) for g in ids]
    # Within-arm scores cancel, so the treatment scores sum to wins - losses.
    stats = _tally(int(u[:n_t].sum()), [a - b for a, b in zip(tied, tied[1:])], n_t * n_c,
                   "unmatched", n_t, n_c)
    return ArmComparison(stats, lambda: (u[:n_t], u[n_t:]),
                         lambda: np.sign(gid[:n_t, None] - gid[None, n_t:]).astype(np.int8))


_BLOCK_PAIRS = 1 << 18  # pairs per block of the pooled cascade: bounds its working memory


def _matrix_comparison(pooled: Sequence[LevelColumn], n_t: int, h: Hierarchy) -> ArmComparison:
    """Censored or margined hierarchies: the level cascade over the pooled pairs, a block
    of rows at a time. v(j, i) = -v(i, j) exactly, so a block meets only the columns from
    its first row on, and its column sums past the block count against those columns. No
    block straddles the arms; the treatment blocks' control columns give the level counts."""
    n = _size(pooled[0])
    n_c, step = n - n_t, max(1, _BLOCK_PAIRS // n)
    u, decided = np.zeros(n, dtype=np.int64), np.zeros(len(h), dtype=np.int64)
    for start in [*range(0, n_t, step), *range(n_t, n, step)]:
        stop = min(start + step, n_t if start < n_t else n)
        net, counts = pairwise_verdicts(pooled, h, range(start, stop), range(start, n),
                                        count_from=n_t if start < n_t else n)
        u[start:stop] += net.sum(axis=1, dtype=np.int64)
        u[stop:] -= net[:, stop - start:].sum(axis=0, dtype=np.int64)
        decided += counts
    # Within-arm scores cancel, so the treatment scores sum to wins - losses.
    stats = _tally(int(u[:n_t].sum()), decided.tolist(), n_t * n_c, "unmatched", n_t, n_c)
    return ArmComparison(stats, lambda: (u[:n_t], u[n_t:]),
                         lambda: pairwise_verdicts(pooled, h, range(n_t), range(n_t, n))[0])


def compare_arms(t_cols: Sequence[LevelColumn], c_cols: Sequence[LevelColumn],
                 h: Hierarchy) -> ArmComparison:
    """Compare every treatment patient with every control patient, once."""
    pooled = [tuple(map(np.concatenate, zip(t, c))) if isinstance(t, tuple)
              else np.concatenate([t, c]) for t, c in zip(t_cols, c_cols)]
    for spec, col in zip(h.levels, pooled):
        if np.isnan(col[0] if isinstance(col, tuple) else col).any():
            raise InvalidInputError(f"level '{spec.name}': NaN value or time")
    if h.lexicographic:
        return _rank_comparison([v if s.direction is Direction.HIGHER else -v
                                 for s, v in zip(h.levels, pooled)], _size(t_cols[0]))
    return _matrix_comparison(pooled, _size(t_cols[0]), h)


def tally_unmatched(dataset: Iterable[PatientRecord], h: Hierarchy) -> WinStats:
    """Tally wins/losses/ties over all N_T x N_C cross-arm pairs."""
    return compare_arms(*split_dataset(dataset, h), h).stats


def tally_matched(pairs: Sequence[tuple[PatientRecord, PatientRecord]],
                  h: Hierarchy) -> WinStats:
    """Tally over an externally supplied (treatment, control) pairing."""
    if not pairs:
        raise InvalidInputError("tally_matched: at least one pair required")
    t_cols = arm_columns([p[0] for p in pairs], h)
    c_cols = arm_columns([p[1] for p in pairs], h)
    n = len(pairs)
    net, decided = _cascade(h, t_cols, c_cols, (n,))
    return _tally(int(net.sum(dtype=np.int64)), decided, n, "matched", n, n)


def win_ratio(s: WinStats) -> float:
    """N_win / N_loss; +inf when losses are zero but wins are not."""
    if s.n_informative == 0:
        raise AllTiesError("all pairwise comparisons tied; win ratio undefined")
    if s.n_loss == 0:
        return math.inf
    return s.n_win / s.n_loss


def win_odds(s: WinStats) -> float:
    """(N_win + ties/2) / (N_loss + ties/2); every pair contributes."""
    if s.n_pairs < 1:
        raise InvalidInputError("win_odds: empty tally")
    denom = s.n_loss + 0.5 * s.n_tie
    if denom == 0.0:
        return math.inf
    return (s.n_win + 0.5 * s.n_tie) / denom
