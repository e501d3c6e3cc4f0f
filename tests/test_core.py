import math
from collections import Counter

import numpy as np
import pytest

from wrlab.core import (Arm, Direction, Hierarchy, OutcomeKind, OutcomeSpec,
                        PatientRecord, Verdict, compare_arms, compare_at_level,
                        compare_pair, split_dataset, tally_matched, tally_unmatched,
                        win_odds, win_ratio, WinStats)
from wrlab.errors import AllTiesError, InvalidInputError
from wrlab import core
from wrlab.inference import (_replicate_tallies, bootstrap_verdicts, bootstrap_wr,
                             score_test_columns, score_test_verdicts)

from naive_oracle import (compare_hierarchically, naive_against, naive_net_scores,
                          naive_score_z, naive_tally)
from random_datasets import (random_counted_dataset, random_dataset,
                             random_lexicographic_dataset, to_oracle_form)

TTE_UP = OutcomeSpec("death", OutcomeKind.TIME_TO_EVENT, Direction.HIGHER)
CONT_DOWN = OutcomeSpec("dose", OutcomeKind.CONTINUOUS, Direction.LOWER)
BIN_DOWN = OutcomeSpec("flag", OutcomeKind.BINARY, Direction.LOWER)


def record(rid, arm, *values):
    return PatientRecord(rid, arm, tuple(values))


def pooled_columns(records, h):
    """Per-level columns of all patients, treatment arm first."""
    t_cols, c_cols = split_dataset(records, h)
    return [tuple(map(np.concatenate, zip(t, c))) if isinstance(t, tuple)
            else np.concatenate([t, c]) for t, c in zip(t_cols, c_cols)]


def assert_resamples_recount(cmp, t_pat, c_pat, levels, seed):
    """Index draws -> counts -> tally equals recounting the resampled patients;
    treatment indices are drawn first, then control."""
    wins, losses = _replicate_tallies(cmp, 4, np.random.default_rng(seed))
    draws = np.random.default_rng(seed)
    idx_t = draws.integers(0, len(t_pat), (4, len(t_pat)))
    idx_c = draws.integers(0, len(c_pat), (4, len(c_pat)))
    for r in range(4):
        rep = naive_tally([t_pat[j] for j in idx_t[r]], [c_pat[j] for j in idx_c[r]], levels)
        assert (wins[r], losses[r]) == (rep["wins"], rep["losses"])


class TestCompareAtLevel:
    def test_treatment_event_while_control_unresolved_is_loss(self):
        # treatment died at day 100; control event-free through day 400
        assert compare_at_level((100.0, True), (400.0, False), TTE_UP) is Verdict.LOSS

    def test_equal_values_tie(self):
        assert compare_at_level((5.0, True), (5.0, True), TTE_UP) is Verdict.TIE
        assert compare_at_level(2.5, 2.5, CONT_DOWN) is Verdict.TIE
        assert compare_at_level(1.0, 1.0, BIN_DOWN) is Verdict.TIE

    def test_binary_lower_favorable(self):
        assert compare_at_level(0.0, 1.0, BIN_DOWN) is Verdict.WIN
        assert compare_at_level(1.0, 0.0, BIN_DOWN) is Verdict.LOSS

    def test_censored_before_other_event_is_tie(self):
        # control dies at 300 but treatment was only observed to day 200
        assert compare_at_level((200.0, False), (300.0, True), TTE_UP) is Verdict.TIE

    def test_both_censored_always_tie(self):
        assert compare_at_level((10.0, False), (700.0, False), TTE_UP) is Verdict.TIE

    def test_margin_boundary_is_tie(self):
        spec = OutcomeSpec("x", OutcomeKind.CONTINUOUS, Direction.LOWER, margin=1.0)
        assert compare_at_level(1.0, 2.0, spec) is Verdict.TIE
        assert compare_at_level(1.0, 2.001, spec) is Verdict.WIN

    def test_tte_margin(self):
        spec = OutcomeSpec("t", OutcomeKind.TIME_TO_EVENT, Direction.HIGHER, margin=30.0)
        assert compare_at_level((200.0, False), (100.0, True), spec) is Verdict.WIN
        assert compare_at_level((129.0, False), (100.0, True), spec) is Verdict.TIE

    def test_invalid_values(self):
        with pytest.raises(InvalidInputError):
            compare_at_level(float("nan"), 1.0, CONT_DOWN)
        with pytest.raises(InvalidInputError):
            compare_at_level((-1.0, True), (2.0, True), TTE_UP)
        with pytest.raises(InvalidInputError):
            compare_at_level(2.0, 1.0, BIN_DOWN)


class TestComparePair:
    H2 = Hierarchy((TTE_UP, OutcomeSpec("hosp", OutcomeKind.TIME_TO_EVENT, Direction.HIGHER)))

    def test_descends_to_second_level(self):
        a = record("a", Arm.TREATMENT, (730.0, False), (50.0, True))
        b = record("b", Arm.CONTROL, (730.0, False), (200.0, True))
        result = compare_pair(a, b, self.H2)
        assert result.verdict is Verdict.LOSS
        assert result.deciding_level == 1

    def test_identical_records_tie(self):
        a = record("a", Arm.TREATMENT, (730.0, False), (50.0, True))
        b = record("b", Arm.CONTROL, (730.0, False), (50.0, True))
        result = compare_pair(a, b, self.H2)
        assert result.verdict is Verdict.TIE
        assert result.deciding_level is None

    def test_tie_at_level_one_forces_descent(self):
        h = Hierarchy((BIN_DOWN, CONT_DOWN))
        a = record("a", Arm.TREATMENT, 1.0, 2.0)
        b = record("b", Arm.CONTROL, 1.0, 5.0)
        result = compare_pair(a, b, h)
        assert result.verdict is Verdict.WIN
        assert result.deciding_level == 1


class TestTallies:
    H1 = Hierarchy((CONT_DOWN,))

    def test_two_pair_example(self):
        ds = [record("t1", Arm.TREATMENT, 5.0), record("t2", Arm.TREATMENT, 1.0),
              record("c1", Arm.CONTROL, 3.0)]
        s = tally_unmatched(ds, self.H1)
        assert (s.n_win, s.n_loss, s.n_tie) == (1, 1, 0)
        assert s.n_pairs == 2
        assert s.pairing == "unmatched"

    def test_identical_single_records(self):
        ds = [record("t", Arm.TREATMENT, 2.0), record("c", Arm.CONTROL, 2.0)]
        s = tally_unmatched(ds, self.H1)
        assert (s.n_win, s.n_loss, s.n_tie) == (0, 0, 1)

    def test_empty_arm_rejected(self):
        with pytest.raises(InvalidInputError):
            tally_unmatched([record("t", Arm.TREATMENT, 1.0)], self.H1)

    @pytest.mark.parametrize("empty", ["treatment", "control"])
    def test_empty_column_arm_named(self, empty):
        full, none = np.array([1.0, 2.0]), np.array([])
        t, c = (none, full) if empty == "treatment" else (full, none)
        with pytest.raises(InvalidInputError, match=f"the {empty} arm is empty"):
            compare_arms([t], [c], self.H1)
        with pytest.raises(InvalidInputError, match=f"the {empty} arm is empty"):
            score_test_columns([t], [c], self.H1)

    def test_matched_single_pair(self):
        pair = (record("t", Arm.TREATMENT, 1.0), record("c", Arm.CONTROL, 4.0))
        s = tally_matched([pair], self.H1)
        assert s.n_win == 1 and s.n_pairs == 1
        assert s.pairing == "matched"

    def test_matched_identical_patients_all_tie(self):
        pairs = [(record(f"t{i}", Arm.TREATMENT, 1.0), record(f"c{i}", Arm.CONTROL, 1.0))
                 for i in range(4)]
        s = tally_matched(pairs, self.H1)
        assert s.n_tie == s.n_pairs == 4

    def test_matched_five_pairs_hand_enumeration(self):
        h = Hierarchy((BIN_DOWN, CONT_DOWN))
        t_vals = [(0.0, 1.0), (1.0, 2.0), (1.0, 5.0), (0.0, 2.0), (1.0, 1.0)]
        c_vals = [(1.0, 9.0), (1.0, 4.0), (1.0, 5.0), (0.0, 3.0), (0.0, 0.0)]
        # hand verdicts: win@1, win@2, tie, win@2, loss@1
        pairs = [(record(f"t{i}", Arm.TREATMENT, *tv), record(f"c{i}", Arm.CONTROL, *cv))
                 for i, (tv, cv) in enumerate(zip(t_vals, c_vals))]
        s = tally_matched(pairs, h)
        assert (s.n_win, s.n_loss, s.n_tie) == (3, 1, 1)
        assert s.decided_at_level == {0: 2, 1: 2}

    def test_matched_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            tally_matched([], self.H1)

    def test_event_indicator_must_be_0_or_1(self):
        # Records follow the CSV reader's value rule: an event of 2 is not "observed".
        ds = [record("t", Arm.TREATMENT, (10.0, 2)), record("c", Arm.CONTROL, (20.0, True))]
        with pytest.raises(InvalidInputError, match="patient 't': level 'death': event "
                                                    "indicator must be 0 or 1, got 2.0"):
            tally_unmatched(ds, Hierarchy((TTE_UP,)))

    def test_record_length_must_match_hierarchy(self):
        good = record("c", Arm.CONTROL, 4.0)
        for bad in (record("t", Arm.TREATMENT), record("t", Arm.TREATMENT, 1.0, 2.0)):
            with pytest.raises(InvalidInputError, match="1-level hierarchy"):
                tally_matched([(bad, good)], self.H1)
            with pytest.raises(InvalidInputError, match="1-level hierarchy"):
                compare_pair(bad, good, self.H1)
            with pytest.raises(InvalidInputError, match="1-level hierarchy"):
                tally_unmatched([bad, good], self.H1)


class TestRatios:
    def stats(self, w, l, t):
        return WinStats(w, l, t, w + l + t, {0: w + l} if w + l else {},
                        "unmatched", 3, 3)

    def test_win_ratio(self):
        assert win_ratio(self.stats(1, 1, 0)) == 1.0
        assert math.isinf(win_ratio(self.stats(2, 0, 1)))
        with pytest.raises(AllTiesError):
            win_ratio(self.stats(0, 0, 5))

    def test_win_odds(self):
        assert abs(win_odds(self.stats(2, 1, 1)) - 2.5 / 1.5) < 1e-15
        assert win_odds(self.stats(0, 0, 4)) == 1.0
        assert win_odds(self.stats(3, 3, 7)) == 1.0
        assert math.isinf(win_odds(self.stats(2, 0, 0)))


class TestInvariantsOnRandomData:
    def test_partition_and_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            records, h = random_dataset(rng)
            s = tally_unmatched(records, h)
            assert s.n_win + s.n_loss + s.n_tie == s.n_pairs
            assert sum(s.decided_at_level.values()) == s.n_win + s.n_loss
            t_pat, c_pat, levels = to_oracle_form(records, h)
            ref = naive_tally(t_pat, c_pat, levels)
            assert (s.n_win, s.n_loss, s.n_tie) == (ref["wins"], ref["losses"], ref["ties"])
            assert dict(s.decided_at_level) == ref["by_level"]
            # compare_pair and tally_matched share the tally's cascade; check
            # each pair's verdict and deciding level against the oracle too.
            t_rec = [r for r in records if r.arm is Arm.TREATMENT]
            c_rec = [r for r in records if r.arm is Arm.CONTROL]
            for t, tp in zip(t_rec, t_pat):
                for c, cp in zip(c_rec, c_pat):
                    verdict, level = compare_hierarchically(tp, cp, levels)
                    result = compare_pair(t, c, h)
                    assert (result.verdict.value, result.deciding_level) == (verdict, level)
            m = tally_matched(list(zip(t_rec, c_rec)), h)
            pair_ref = [compare_hierarchically(tp, cp, levels) for tp, cp in zip(t_pat, c_pat)]
            assert (m.n_win, m.n_loss, m.n_tie) == tuple(
                sum(v == want for v, _ in pair_ref) for want in ("win", "loss", "tie"))
            assert dict(m.decided_at_level) == dict(Counter(k for _, k in pair_ref
                                                            if k is not None))
            # One shared comparison feeds the tally, the score test and the
            # bootstrap; each must match its independent reference.
            t_cols, c_cols = split_dataset(records, h)
            cmp = compare_arms(t_cols, c_cols, h)
            shared = cmp.stats
            assert (shared.n_win, shared.n_loss, shared.n_tie) == (
                ref["wins"], ref["losses"], ref["ties"])
            assert dict(shared.decided_at_level) == ref["by_level"]
            # (None of these datasets is all ties, so both tests are defined.)
            z = score_test_verdicts(cmp).statistic
            assert z == pytest.approx(naive_score_z(t_pat, c_pat, levels), rel=1e-12, abs=1e-12)
            boot = bootstrap_verdicts(cmp, 50, 0.05, 11)
            assert boot == bootstrap_wr(records, h, b=50, alpha=0.05, seed=11)
            assert boot.estimate == (ref["wins"] / ref["losses"] if ref["losses"] else math.inf)

    def test_rank_path_equals_matrix_path_and_oracle(self):
        # Lexicographic hierarchies take the sort path; the cascade over every
        # pair and the naive oracle must give the same tally, net scores and
        # weighted cross counts, on arms of size 1 and of odd sizes with heavy ties.
        rng, weights = np.random.default_rng(8), np.random.default_rng(9)
        sizes = (1, 3, 5, 8, 11, 15)
        for i in range(240):
            n_t, n_c = sizes[i % 6], sizes[(i // 6) % 6]
            records, h = random_lexicographic_dataset(rng, n_t, n_c)
            t_cols, c_cols = split_dataset(records, h)
            assert h.lexicographic
            rank = compare_arms(t_cols, c_cols, h)
            pooled = [np.concatenate([t, c]) for t, c in zip(t_cols, c_cols)]
            u, decided, against = core._matrix_comparison(pooled, n_t, h)
            assert dict(rank.stats.decided_at_level) == {k: d for k, d in enumerate(decided) if d}
            assert rank.u_t.dtype == rank.u_c.dtype == np.int64
            assert np.array_equal(np.concatenate([rank.u_t, rank.u_c]), u)
            t_pat, c_pat, levels = to_oracle_form(records, h)
            ref = naive_tally(t_pat, c_pat, levels)
            assert (rank.stats.n_win, rank.stats.n_loss, rank.stats.n_tie) == (
                ref["wins"], ref["losses"], ref["ties"])
            assert dict(rank.stats.decided_at_level) == ref["by_level"]
            assert np.concatenate([rank.u_t, rank.u_c]).tolist() == naive_net_scores(
                t_pat, c_pat, levels)
            # Random integer weights over the controls, zeros included, from their own
            # generator so that the datasets stay those drawn before.
            w = weights.integers(0, 4, (int(weights.integers(1, 4)), n_c))
            got = rank.against(w)
            for side, want in zip(got, against(w)):
                assert side.dtype == np.int64 and np.array_equal(side, want)
            assert tuple(side.tolist() for side in got) == naive_against(t_pat, c_pat, levels, w)
            if i % 40 == 0:
                assert_resamples_recount(rank, t_pat, c_pat, levels, i)

    @pytest.mark.parametrize("block_pairs, count_pairs", [
        pytest.param(1, math.inf, id="1"), pytest.param(7, math.inf, id="7"),
        pytest.param(core._BLOCK_PAIRS, math.inf, id=str(core._BLOCK_PAIRS)),
        pytest.param(core._BLOCK_PAIRS, 0, id="counted")])
    def test_blocked_pass_equals_oracle(self, monkeypatch, block_pairs, count_pairs):
        # Censored, margined and mixed hierarchies take the blocked pooled cascade
        # (crossover at infinity) or, with one or two levels, the counting path
        # (crossover at 0); at 1 and 7 pairs per block both arms span many blocks,
        # and the weighted cross counts take blocks of as many rows as weights.
        monkeypatch.setattr(core, "_BLOCK_PAIRS", block_pairs)
        monkeypatch.setattr(core, "_COUNT_PAIRS", count_pairs)
        cascades, cascade = [], core.pairwise_verdicts
        monkeypatch.setattr(core, "pairwise_verdicts",
                            lambda *a, **k: cascades.append(1) or cascade(*a, **k))
        rng, weights = np.random.default_rng(10), np.random.default_rng(11)
        checked = 0
        while checked < 120:
            records, h = (random_dataset(rng, max_per_arm=12) if checked < 60
                          else random_counted_dataset(rng, max_per_arm=12))
            if h.lexicographic:
                continue
            checked += 1
            cascades.clear()
            cmp = compare_arms(*split_dataset(records, h), h)
            # Counted only with the crossover at 0 and at most two levels.
            assert bool(cascades) == (count_pairs > 0 or len(h) > 2)
            t_pat, c_pat, levels = to_oracle_form(records, h)
            ref = naive_tally(t_pat, c_pat, levels)
            assert (cmp.stats.n_win, cmp.stats.n_loss, cmp.stats.n_tie) == (
                ref["wins"], ref["losses"], ref["ties"])
            assert dict(cmp.stats.decided_at_level) == ref["by_level"]
            assert cmp.u_t.dtype == cmp.u_c.dtype == np.int64
            assert np.concatenate([cmp.u_t, cmp.u_c]).tolist() == naive_net_scores(
                t_pat, c_pat, levels)
            # Random integer weights over the controls, zeros included.
            w = weights.integers(0, 4, (int(weights.integers(1, 4)), len(c_pat)))
            got = cmp.against(w)
            assert all(side.dtype == np.int64 for side in got)
            assert tuple(side.tolist() for side in got) == naive_against(t_pat, c_pat, levels, w)
            if checked % 20 == 0:
                assert_resamples_recount(cmp, t_pat, c_pat, levels, checked)

    def test_blocked_pass_memory_is_bounded(self, monkeypatch):
        # 1,500 per arm on a censored death level over a margined dose level:
        # neither the blocked cascade (crossover at infinity) nor the counting
        # path (crossover at 0, multi-word bitsets) holds an N x N array, and both
        # give one tally and one set of net scores. Building the whole cross and
        # within-arm verdict matrices instead peaks near 41 MB here.
        import tracemalloc
        rng = np.random.default_rng(1500)
        n = 1500
        cols = [[(np.floor(rng.exponential(400.0, n)).clip(max=365.0), rng.random(n) < 0.4),
                 np.round(rng.normal(shift, 1.0, n), 1)] for shift in (-0.2, 0.0)]
        h = Hierarchy((TTE_UP, OutcomeSpec("dose", OutcomeKind.CONTINUOUS,
                                           Direction.LOWER, 0.5)))
        results = []
        for count_pairs in (math.inf, 0):
            monkeypatch.setattr(core, "_COUNT_PAIRS", count_pairs)
            tracemalloc.start()
            try:
                cmp = compare_arms(cols[0], cols[1], h)
                z = score_test_verdicts(cmp).statistic
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert math.isfinite(z)
            assert peak < 12 * 2**20
            results.append((cmp.stats, np.concatenate([cmp.u_t, cmp.u_c])))
        assert results[0][0] == results[1][0]
        assert np.array_equal(results[0][1], results[1][1])

    def test_bootstrap_memory_is_bounded(self, monkeypatch):
        # 1,500 per arm, 50 replicates: the weighted cross counts hold O(b N)
        # integers on the sort path and one block of verdicts on the cascade and
        # counting paths, which give one interval. Building the N_T x N_C
        # verdict matrix and its two float64 indicators instead peaks near 32 MB.
        import tracemalloc
        rng = np.random.default_rng(1501)
        n = 1500
        lex = Hierarchy((BIN_DOWN, CONT_DOWN))
        lex_cols = [[(rng.random(n) < 0.3).astype(float), np.round(rng.normal(s, 1.0, n), 1)]
                    for s in (-0.2, 0.0)]
        tte = Hierarchy((TTE_UP, OutcomeSpec("dose", OutcomeKind.CONTINUOUS,
                                             Direction.LOWER, 0.5)))
        tte_cols = [[(np.floor(rng.exponential(400.0, n)).clip(max=365.0), rng.random(n) < 0.4),
                     np.round(rng.normal(s, 1.0, n), 1)] for s in (-0.2, 0.0)]
        results = []
        for h, cols, count_pairs in ((lex, lex_cols, 0), (tte, tte_cols, math.inf),
                                     (tte, tte_cols, 0)):
            monkeypatch.setattr(core, "_COUNT_PAIRS", count_pairs)
            cmp = compare_arms(cols[0], cols[1], h)
            tracemalloc.start()
            try:
                boot = bootstrap_verdicts(cmp, 50, 0.05, 7)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert boot.ci[0] < boot.ci[1]
            assert peak < 12 * 2**20
            results.append(boot)
        assert results[1] == results[2]

    def test_verdict_block_and_counted_levels_equal_oracle(self):
        # A block of pooled rows that starts inside the treatment arm and reaches
        # into control, against every column from its first row on: its net block
        # is the oracle's signs, and its level counts over the columns from
        # `count_from` on are the oracle's counts on those pairs.
        rng = np.random.default_rng(13)
        sign = {"win": 1, "loss": -1, "tie": 0}
        checked = 0
        while checked < 60:
            records, h = random_dataset(rng, max_per_arm=9)
            t_pat, c_pat, levels = to_oracle_form(records, h)
            n_t, n = len(t_pat), len(t_pat) + len(c_pat)
            if n_t < 2:
                continue
            checked += 1
            start, stop = int(rng.integers(1, n_t)), int(rng.integers(n_t + 1, n + 1))
            count_from = int(rng.integers(start, n + 1))
            net, decided = core.pairwise_verdicts(pooled_columns(records, h), h,
                                                  range(start, stop), range(start, n),
                                                  count_from=count_from)
            pooled_pat = t_pat + c_pat
            ref = [[compare_hierarchically(p, q, levels) for q in pooled_pat[start:]]
                   for p in pooled_pat[start:stop]]
            assert net.dtype == np.int8
            assert net.tolist() == [[sign[v] for v, _ in row] for row in ref]
            counted = Counter(k for row in ref for _, k in row[count_from - start:])
            assert decided == [counted[k] for k in range(len(h))]

    def test_levels_after_the_last_undecided_pair_are_never_compared(self):
        # Distinct first-level values decide every pair of a block without a
        # patient against itself; the later levels' columns must not be read.
        class Unread:
            def __getitem__(self, index):
                raise AssertionError("a level was compared after every pair was decided")

        h = Hierarchy((CONT_DOWN, TTE_UP, OutcomeSpec("n", OutcomeKind.COUNT, Direction.HIGHER)))
        records = [record(f"{arm.value}{i}", arm, float(v), (5.0, True), 2.0)
                   for i, (arm, v) in enumerate([(Arm.TREATMENT, 3), (Arm.TREATMENT, 0),
                                                 (Arm.TREATMENT, 7), (Arm.CONTROL, 1),
                                                 (Arm.CONTROL, 9), (Arm.CONTROL, 4)])]
        pooled = pooled_columns(records, h)[:1] + [Unread(), Unread()]
        net, decided = core.pairwise_verdicts(pooled, h, range(1, 4), range(4, 6))
        t_pat, c_pat, levels = to_oracle_form(records, h)
        pooled_pat = t_pat + c_pat
        ref = [[compare_hierarchically(p, q, levels) for q in pooled_pat[4:]]
               for p in pooled_pat[1:4]]
        assert net.tolist() == [[{"win": 1, "loss": -1}[v] for v, _ in row] for row in ref]
        assert decided == [6, 0, 0]
        net, decided = core.pairwise_verdicts(pooled, h, range(1, 4), range(4, 6), count_from=5)
        assert decided == [3, 0, 0]

    def test_nan_value_or_time_is_rejected_on_both_paths(self):
        nan_first = (np.array([np.nan, 1.0]), np.array([0.0, 2.0]))
        margined = OutcomeSpec("dose", OutcomeKind.CONTINUOUS, Direction.LOWER, 0.5)
        assert Hierarchy((CONT_DOWN,)).lexicographic
        assert not Hierarchy((margined,)).lexicographic and not Hierarchy((TTE_UP,)).lexicographic
        for spec in (CONT_DOWN, margined):
            with pytest.raises(InvalidInputError, match="NaN"):
                compare_arms([nan_first[0]], [nan_first[1]], Hierarchy((spec,)))
        events = np.array([True, False])
        with pytest.raises(InvalidInputError, match="NaN"):
            compare_arms([(nan_first[1], events)], [(nan_first[0], events)], Hierarchy((TTE_UP,)))

    def test_antisymmetry_under_arm_swap(self):
        rng = np.random.default_rng(77)
        swap = {Arm.TREATMENT: Arm.CONTROL, Arm.CONTROL: Arm.TREATMENT}
        for _ in range(40):
            records, h = random_dataset(rng)
            s = tally_unmatched(records, h)
            flipped = [PatientRecord(r.id, swap[r.arm], r.values) for r in records]
            f = tally_unmatched(flipped, h)
            assert (f.n_win, f.n_loss, f.n_tie) == (s.n_loss, s.n_win, s.n_tie)
            if s.n_win >= 1 and s.n_loss >= 1:
                assert abs(win_ratio(f) - 1.0 / win_ratio(s)) < 1e-12

    def test_monotone_favorability(self):
        # Improving one treatment patient's value never decreases wins
        # and never increases losses.
        rng = np.random.default_rng(99)
        for _ in range(40):
            records, h = random_dataset(rng)
            s = tally_unmatched(records, h)
            t_index = next(i for i, r in enumerate(records) if r.arm is Arm.TREATMENT)
            level = int(rng.integers(len(h)))
            spec = h.levels[level]
            values = list(records[t_index].values)
            if spec.kind is OutcomeKind.TIME_TO_EVENT:
                t, _ = values[level]
                if spec.direction is Direction.HIGHER:
                    values[level] = (t + 3.0, False)  # longer event-free observation
                else:
                    values[level] = (0.0, True)  # immediate (favorable) event
            elif spec.kind is OutcomeKind.BINARY:
                values[level] = 1.0 if spec.direction is Direction.HIGHER else 0.0
            elif spec.kind is OutcomeKind.COUNT:
                values[level] = values[level] + 5.0 \
                    if spec.direction is Direction.HIGHER else 0.0
            else:
                bump = 5.0 if spec.direction is Direction.HIGHER else -5.0
                values[level] = values[level] + bump
            improved = list(records)
            improved[t_index] = PatientRecord("imp", Arm.TREATMENT, tuple(values))
            s2 = tally_unmatched(improved, h)
            assert s2.n_win >= s.n_win
            assert s2.n_loss <= s.n_loss

    def test_margin_monotonicity(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            records, h = random_dataset(rng)
            s = tally_unmatched(records, h)
            widened = Hierarchy(tuple(
                OutcomeSpec(sp.name, sp.kind, sp.direction,
                            sp.margin if sp.kind is OutcomeKind.BINARY else sp.margin + 1.0)
                for sp in h.levels))
            s2 = tally_unmatched(records, widened)
            assert s2.n_tie >= s.n_tie

    def test_blockwise_tally_reduction_is_exact(self):
        # Splitting the treatment arm into blocks and summing the block
        # tallies reproduces the full tally exactly (integer reduction).
        rng = np.random.default_rng(31)
        for _ in range(20):
            records, h = random_dataset(rng, max_per_arm=10)
            treat = [r for r in records if r.arm is Arm.TREATMENT]
            ctrl = [r for r in records if r.arm is Arm.CONTROL]
            if len(treat) < 2:
                continue
            full = tally_unmatched(records, h)
            cut = len(treat) // 2
            parts = [tally_unmatched(block + ctrl, h)
                     for block in (treat[:cut], treat[cut:])]
            assert sum(p.n_win for p in parts) == full.n_win
            assert sum(p.n_loss for p in parts) == full.n_loss
            assert sum(p.n_tie for p in parts) == full.n_tie

    def test_win_odds_equals_wr_without_ties(self):
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(80):
            records, h = random_dataset(rng)
            s = tally_unmatched(records, h)
            if s.n_tie == 0 and s.n_loss > 0:
                assert abs(win_odds(s) - win_ratio(s)) < 1e-12
                found += 1
        assert found > 0


class TestTypeValidation:
    def test_binary_margin_rejected(self):
        with pytest.raises(InvalidInputError):
            OutcomeSpec("b", OutcomeKind.BINARY, Direction.LOWER, margin=0.5)

    def test_negative_margin_rejected(self):
        with pytest.raises(InvalidInputError):
            OutcomeSpec("x", OutcomeKind.CONTINUOUS, Direction.LOWER, margin=-1.0)

    def test_duplicate_level_names_rejected(self):
        with pytest.raises(InvalidInputError):
            Hierarchy((CONT_DOWN, CONT_DOWN))

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(InvalidInputError):
            Hierarchy(())

    def test_winstats_partition_enforced(self):
        with pytest.raises(InvalidInputError):
            WinStats(1, 1, 1, 4, {0: 2}, "unmatched", 2, 2)
