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
    """All cross-arm comparisons of one unmatched dataset: the tally `stats`; int64 `u_t` and
    `u_c`, each patient's wins minus losses against the pooled sample; and `against(w)`: for
    integer weights w (b, N_C) over the controls, two int64 (b, N_T) arrays, the weighted number
    of controls each treatment patient beats and loses to. It runs when called, in O(b N)."""

    stats: WinStats
    u_t: np.ndarray
    u_c: np.ndarray
    against: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


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


def _rank_comparison(pooled: Sequence[np.ndarray], n_t: int, h: Hierarchy
                     ) -> tuple[np.ndarray, list[int], Callable]:
    """One sort of the pooled direction-signed keys (larger is better); exact, because
    for finite doubles a - b > 0 iff a > b and a - b = 0 iff a = b."""
    ids, below, above = _lex_ranks([v if s.direction is Direction.HIGHER else -v
                                    for s, v in zip(h.levels, pooled)])
    n_c, gid = pooled[0].size - n_t, ids[-1]
    # Cross pairs still tied after each key prefix.
    tied = [n_t * n_c] + [int(np.bincount(g[:n_t], minlength=g.size)
                              @ np.bincount(g[n_t:], minlength=g.size)) for g in ids]

    def against(w):
        # A treatment patient beats the controls of lower group id and loses to those of
        # higher: two bounds in the controls sorted by id, read off cumulative weights,
        # summed down the controls a row of b weights at a time.
        order = np.argsort(gid[n_t:], kind="stable")
        cum = np.zeros((n_c + 1, len(w)), dtype=np.int64)
        np.cumsum(w.T[order], axis=0, out=cum[1:])
        lo, hi = (np.searchsorted(gid[n_t:][order], gid[:n_t], side) for side in ("left", "right"))
        loses = cum[hi]
        return cum[lo].T, np.subtract(cum[-1], loses, out=loses).T

    return below - above, [a - b for a, b in zip(tied, tied[1:])], against


_BLOCK_PAIRS = 1 << 18  # pairs per block of the pooled cascade: bounds its working memory


def _cascade_scores(pooled: Sequence[LevelColumn], n_t: int, h: Hierarchy
                    ) -> tuple[np.ndarray, list[int]]:
    """The level cascade over the pooled pairs, a block of rows at a time. v(j, i) = -v(i, j)
    exactly, so a block meets only the columns from its first row on, and its column sums
    past the block count against those columns. No block straddles the arms; the treatment
    blocks' control columns give the level counts."""
    n = _size(pooled[0])
    step = max(1, _BLOCK_PAIRS // n)
    u, decided = np.zeros(n, dtype=np.int64), np.zeros(len(h), dtype=np.int64)
    for start in [*range(0, n_t, step), *range(n_t, n, step)]:
        stop = min(start + step, n_t if start < n_t else n)
        net, counts = pairwise_verdicts(pooled, h, range(start, stop), range(start, n),
                                        count_from=n_t if start < n_t else n)
        u[start:stop] += net.sum(axis=1, dtype=np.int64)
        u[stop:] -= net[:, stop - start:].sum(axis=0, dtype=np.int64)
        decided += counts
    return u, decided.tolist()


# Cross pairs from which a one- or two-level hierarchy is counted by sorting rather than by
# the cascade: below about 330 per arm the sorts and the tables cost more than the cascade.
_COUNT_PAIRS = 350 * 350
_TABLE_BITS = 1 << 22  # bits of one dominance table: bounds the counting path's working memory
_QUERY_ROWS = 4096  # rows per batch of dominance queries: bounds their temporaries


@dataclass(frozen=True)
class _Interval:
    """A level's relation R(i, j) for every pooled row i as an interval of the level's order
    (patients by ascending value): j is in it iff `row_gate[i]`, `col_gate[j]` (None: always)
    and j's place in the order is below `bound[i]` (a prefix) or at least it (a suffix)."""

    order: np.ndarray
    bound: np.ndarray
    prefix: bool
    row_gate: np.ndarray | None
    col_gate: np.ndarray | None


def _settle(k: np.ndarray, inside: Callable, size: int) -> np.ndarray:
    """The end of the run of positions 0, 1, ... on which the predicate `inside(rows, pos)`
    holds, one per row, moved from a guess `k` near it; the predicate must be monotone."""
    for step, edge in ((1, size), (-1, 0)):
        rows = np.flatnonzero(k != edge)
        while rows.size:
            rows = rows[inside(rows, k[rows] - (step < 0)) == (step > 0)]
            k[rows] += step
            rows = rows[k[rows] != edge]
    return k


def _level_intervals(spec: OutcomeSpec, col: LevelColumn) -> tuple[_Interval, _Interval]:
    """(F, G) of one level: F(i, j) = i beats j read higher-favorable, a prefix of the order
    of ascending value (time), and G(i, j) = F(j, i), a suffix of it. Each boundary is the
    guess of a binary search, settled with the cascade's own predicate."""
    x, events = col if isinstance(col, tuple) else (col, None)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.flatnonzero(np.concatenate([[True], xs[1:] != xs[:-1], [True]]))
    v = xs[first[:-1]]
    wrap = (lambda y: y) if events is None else (lambda y: (y, True))

    def beats(a, b):
        return _win_loss_masks(spec, wrap(a), wrap(b))[spec.direction is Direction.LOWER]

    f_end = _settle(np.searchsorted(v, x - spec.margin), lambda r, k: beats(x[r], v[k]), v.size)
    g_start = _settle(np.searchsorted(v, x + spec.margin, "right"),
                      lambda r, k: ~beats(v[k], x[r]), v.size)
    return (_Interval(order, first[f_end], True, None, events),
            _Interval(order, first[g_start], False, events, None))


def _both(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    return a if b is None else b if a is None else a & b


def _cum(order: np.ndarray, gate: np.ndarray | None) -> np.ndarray:
    """How many gated patients lie among the first k of `order`, for k = 0..n."""
    if gate is None:
        return np.arange(order.size + 1)
    return np.concatenate([[0], np.cumsum(gate[order])])


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 (SWAR, without numpy 2's bitwise_count)."""
    one, m1, m2, m4 = (np.uint64(c) for c in (0x0101010101010101, 0x5555555555555555,
                                              0x3333333333333333, 0x0F0F0F0F0F0F0F0F))
    x = x - ((x >> np.uint64(1)) & m1)
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    return (((x + (x >> np.uint64(4))) & m4) * one) >> np.uint64(56)


class _Dominance:
    """Counts, for queries (a, b), the gated patients among the first a of r1's order whose
    place in r2's order is below b. The table holds, at every `step`-th place of r1's order,
    the patients before it as a bitset over r2's order, with the count before each 64-bit
    word; the at most step - 1 patients past the place are checked one by one. `step` grows
    with n so that the table keeps to `_TABLE_BITS`."""

    def __init__(self, r1: _Interval, r2: _Interval, gate: np.ndarray | None) -> None:
        n = r1.order.size
        self.step = step = max(8, -(-n * n // _TABLE_BITS))
        self.gate = gate
        # Each place of r1's order: that patient's place in r2's order, and its gate.
        place2 = np.empty_like(r2.order)
        place2[r2.order] = np.arange(n)
        self.place2 = place2[r1.order]
        self.gated = np.ones(n, dtype=bool) if gate is None else gate[r1.order]
        # Each gated patient's first table row, word and bit, worked in place: the build is
        # the counting path's memory peak.
        row = np.flatnonzero(self.gated)
        bit = self.place2[row]
        word = bit >> 6
        row //= step
        row += 1
        bit = np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64))
        shape = (n // step + 2, n // 64 + 1)
        self.bits = np.zeros(shape, dtype=np.uint64)
        np.bitwise_or.at(self.bits, (row, word), bit)
        del bit
        np.bitwise_or.accumulate(self.bits, axis=0, out=self.bits)
        row *= shape[1] + 1  # the flat index of (row, word + 1) in the count table
        row += word
        row += 1
        del word
        self.before = np.bincount(row, minlength=shape[0] * (shape[1] + 1)).reshape(shape[0], -1)
        np.cumsum(self.before, axis=0, out=self.before)
        np.cumsum(self.before, axis=1, out=self.before)

    def count(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty(a.size, dtype=np.int64)
        for s in range(0, a.size, _QUERY_ROWS):
            out[s:s + _QUERY_ROWS] = self._batch(a[s:s + _QUERY_ROWS], b[s:s + _QUERY_ROWS])
        return out

    def _batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        c, w, step = a // self.step, b >> 6, self.step
        low = np.left_shift(np.uint64(1), (b & 63).astype(np.uint64)) - np.uint64(1)
        count = self.before[c, w] + _popcount(self.bits[c, w] & low).astype(np.int64)
        last = self.place2.size - 1
        for t in range(step - 1):
            k = c * step + t
            at = np.minimum(k, last)
            count += (k < a) & (self.place2[at] < b) & self.gated[at]
        return count


def _count(r: _Interval, cols: np.ndarray | None, m: int) -> np.ndarray:
    """|R(i) ∩ cols| for rows i < m."""
    cum = _cum(r.order, _both(r.col_gate, cols))
    x = r.bound[:m]
    count = cum[x] if r.prefix else cum[-1] - cum[x]
    return count if r.row_gate is None else count * r.row_gate[:m]


def _overlap(r1: _Interval, r2: _Interval, table: _Dominance, m: int) -> np.ndarray:
    """|R1(i) ∩ R2(i) ∩ gate| for rows i < m, on a table of R1's and R2's orders and gate:
    one 2-D dominance count, with 1-D counts for suffixes, as [pos >= x] = 1 - [pos < x]."""
    x1, x2 = r1.bound[:m], r2.bound[:m]
    s1, s2 = (1 if r.prefix else -1 for r in (r1, r2))
    count = s1 * s2 * table.count(x1, x2)
    if not r2.prefix:
        count += s1 * _cum(r1.order, table.gate)[x1]
    if not r1.prefix:
        cum2 = _cum(r2.order, table.gate)
        count += s2 * cum2[x2] + (0 if r2.prefix else cum2[-1])
    rows = _both(r1.row_gate, r2.row_gate)
    return count if rows is None else count * rows[:m]


def _tied_counts(above: Sequence[_Interval], rels: Sequence[_Interval],
                 cols: np.ndarray | None, m: int) -> list[np.ndarray]:
    """For each relation R of `rels`, per row i < m: |R(i) ∩ cols| less |A(i) ∩ R(i) ∩ cols|
    for each relation A of the level above (they are disjoint), so the pairs R holds that
    the level above leaves tied. Pairs with one gate share a table; one is held at once."""
    counts = [_count(r, cols, m) for r in rels]
    held = table = None
    for key, a, i in sorted((((a.col_gate is None, r.col_gate is None), a, i)
                             for a in above for i, r in enumerate(rels)), key=lambda p: p[0]):
        if key != held:
            held, table = key, None  # the old table goes before the new one is built
            table = _Dominance(a, rels[i], _both(_both(a.col_gate, rels[i].col_gate), cols))
        counts[i] -= _overlap(a, rels[i], table, m)
    return counts


def _counted_scores(pooled: Sequence[LevelColumn], n_t: int, h: Hierarchy
                    ) -> tuple[np.ndarray, list[int]]:
    """One- and two-level hierarchies by sorting (Gehan 1965; Bentley 1980), with no pair
    compared. A level's win and loss sets are its F and G (`_level_intervals`), swapped when
    lower is favorable; the second level decides the pairs the first leaves tied. Net scores
    run over every column, the level counts over the treatment rows' control columns."""
    n = _size(pooled[0])
    ctrl = np.arange(n) >= n_t
    levels = [_level_intervals(spec, col) for spec, col in zip(h.levels, pooled)]
    u, decided = np.zeros(n, dtype=np.int64), []
    for k, (spec, rels) in enumerate(zip(h.levels, levels)):
        above = levels[0] if k else ()
        f, g = _tied_counts(above, rels, None, n)
        u += f - g if spec.direction is Direction.HIGHER else g - f
        decided.append(int(sum(c.sum() for c in _tied_counts(above, rels, ctrl, n_t))))
    return u, decided


def _matrix_comparison(pooled: Sequence[LevelColumn], n_t: int, h: Hierarchy
                       ) -> tuple[np.ndarray, list[int], Callable]:
    """Censored or margined hierarchies: counted by sorting for one or two levels from
    `_COUNT_PAIRS` cross pairs on, else by the level cascade. `against` runs the cascade on
    blocks of treatment rows no larger than its weights, into exact float64 GEMMs."""
    n = _size(pooled[0])
    n_c = n - n_t
    counted = len(h) <= 2 and n_t * n_c >= _COUNT_PAIRS
    u, decided = (_counted_scores if counted else _cascade_scores)(pooled, n_t, h)

    def against(w):
        wf, step = w.astype(np.float64), max(_BLOCK_PAIRS // n_c, len(w))
        out = np.empty((2, len(w), n_t), dtype=np.int64)
        for start in range(0, n_t, step):
            net = pairwise_verdicts(pooled, h, range(start, min(start + step, n_t)),
                                    range(n_t, n))[0]
            for side, v in zip(out, (1, -1)):  # sums of counts stay below 2^53
                side[:, start:start + len(net)] = wf @ (net == v).T.astype(np.float64)
        return tuple(out)

    return u, decided, against


def compare_arms(t_cols: Sequence[LevelColumn], c_cols: Sequence[LevelColumn],
                 h: Hierarchy) -> ArmComparison:
    """Compare every treatment patient with every control patient, once."""
    n_t, n_c = _size(t_cols[0]), _size(c_cols[0])
    if not n_t or not n_c:
        raise InvalidInputError(f"the {'control' if n_t else 'treatment'} arm is empty")
    pooled = [tuple(map(np.concatenate, zip(t, c))) if isinstance(t, tuple)
              else np.concatenate([t, c]) for t, c in zip(t_cols, c_cols)]
    for spec, col in zip(h.levels, pooled):
        if np.isnan(col[0] if isinstance(col, tuple) else col).any():
            raise InvalidInputError(f"level '{spec.name}': NaN value or time")
    u, decided, against = (_rank_comparison if h.lexicographic
                           else _matrix_comparison)(pooled, n_t, h)
    # Within-arm scores cancel, so the treatment scores sum to wins - losses.
    stats = _tally(int(u[:n_t].sum()), decided, n_t * n_c, "unmatched", n_t, n_c)
    return ArmComparison(stats, u[:n_t], u[n_t:], against)


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
