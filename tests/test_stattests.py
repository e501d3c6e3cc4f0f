import math

import numpy as np
import pytest

from wrlab.datagen import substream
from wrlab.engine import TteCompositeDgm
from wrlab.errors import InvalidInputError, UndefinedStatisticError
from wrlab.kernels import hypergeom_pmf
from wrlab.stattests import (SurvivalSample, TwoByTwoTable, chi_square_test,
                             fisher_exact, log_rank_test, t_test)

from naive_oracle import enumerate_fisher_p
from reference_tables import (CHI2_TABLE_P, CHI2_TABLE_STAT, CHI2_TABLE_YATES_P,
                              CHI2_TABLE_YATES_STAT, FISHER_EXTREME_P,
                              LOGRANK_HAND_P, LOGRANK_HAND_STAT)


class TestTTest:
    def test_identical_samples(self):
        x = [1.0, 2.0, 3.0]
        r = t_test(x, x, variant="pooled")
        assert r.statistic == 0.0 and r.p_value == 1.0

    def test_zero_variance_paths(self):
        equal = t_test([2.0, 2.0], [2.0, 2.0])
        assert equal.p_value == 1.0 and "zero-variance" in equal.flags
        apart = t_test([2.0, 2.0], [3.0, 3.0])
        assert apart.p_value == 0.0 and "zero-variance" in apart.flags

    def test_welch_matches_direct_formula(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 1.0, 11)
        y = rng.normal(0.5, 2.0, 17)
        r = t_test(x, y, variant="welch")
        v1, v2 = x.var(ddof=1), y.var(ddof=1)
        se2 = v1 / 11 + v2 / 17
        df = se2 ** 2 / ((v1 / 11) ** 2 / 10 + (v2 / 17) ** 2 / 16)
        assert abs(r.statistic - (x.mean() - y.mean()) / math.sqrt(se2)) < 1e-12
        assert abs(r.df - df) < 1e-9

    def test_null_calibration(self):
        # Its own null mechanism: equal-mean normals, 2500 datasets.
        rejections = 0
        n_sim = 2500
        for i in range(n_sim):
            rng = substream(314, i)
            x = rng.normal(0.0, 1.0, 20)
            y = rng.normal(0.0, 1.0, 20)
            rejections += t_test(x, y).p_value <= 0.05
        assert abs(rejections / n_sim - 0.05) <= 3 * math.sqrt(0.05 * 0.95 / n_sim)

    def test_sample_size_validation(self):
        with pytest.raises(InvalidInputError):
            t_test([1.0], [1.0, 2.0])


class TestFisherExact:
    def test_zero_margin_table(self):
        assert fisher_exact(TwoByTwoTable(0, 10, 0, 10)) == 1.0

    def test_balanced_table(self):
        assert fisher_exact(TwoByTwoTable(5, 5, 5, 5)) == 1.0

    def test_extreme_table_doubled_mass(self):
        p = fisher_exact(TwoByTwoTable(10, 0, 0, 10))
        assert abs(p - FISHER_EXTREME_P) < 1e-18

    def test_matches_enumeration_oracle_small_tables(self):
        # Exact agreement on all tables with total <= 30.
        rng = np.random.default_rng(11)
        checked = 0
        for total in range(1, 31):
            for _ in range(12):
                cuts = sorted(rng.integers(0, total + 1, size=3))
                a, b, c = cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1]
                d = total - a - b - c
                got = fisher_exact(TwoByTwoTable(a, b, c, d))
                want = enumerate_fisher_p(a, b, c, d)
                assert abs(got - want) < 1e-12, (a, b, c, d)
                checked += 1
        assert checked == 360

    def test_order_invariance(self):
        # Swapping rows mirrors the table; two-sided p unchanged.
        assert fisher_exact(TwoByTwoTable(7, 3, 2, 8)) == \
            fisher_exact(TwoByTwoTable(2, 8, 7, 3))


class TestChiSquare:
    def test_equal_proportions(self):
        r = chi_square_test(TwoByTwoTable(30, 70, 30, 70))
        assert r.statistic == 0.0 and r.p_value == 1.0

    def test_reference_table(self):
        r = chi_square_test(TwoByTwoTable(30, 70, 50, 50))
        assert abs(r.statistic - CHI2_TABLE_STAT) < 1e-10
        assert abs(r.p_value - CHI2_TABLE_P) < 1e-10
        ry = chi_square_test(TwoByTwoTable(30, 70, 50, 50), continuity_correction=True)
        assert abs(ry.statistic - CHI2_TABLE_YATES_STAT) < 1e-10
        assert abs(ry.p_value - CHI2_TABLE_YATES_P) < 1e-10

    def test_correction_never_decreases_p(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            counts = rng.integers(0, 40, size=4)
            table = TwoByTwoTable(*map(int, counts))
            assert chi_square_test(table, True).p_value >= \
                chi_square_test(table, False).p_value - 1e-12

    def test_zero_margin_flag(self):
        r = chi_square_test(TwoByTwoTable(0, 10, 0, 12))
        assert r.p_value == 1.0 and "zero-margin" in r.flags


class TestLogRank:
    def test_identical_arms(self):
        times = np.array([3.0, 5.0, 7.0, 3.0, 5.0, 7.0])
        events = np.array([True, True, False] * 2)
        grp = np.array([True] * 3 + [False] * 3)
        r = log_rank_test(SurvivalSample(times, events, grp))
        assert abs(r.statistic) < 1e-12
        assert abs(r.p_value - 1.0) < 1e-12

    def test_hand_computed_table(self):
        times = np.array([1.0, 2.0, 3.0, 3.0])
        events = np.array([True, True, False, False])
        grp = np.array([True, True, False, False])
        r = log_rank_test(SurvivalSample(times, events, grp))
        assert abs(r.statistic - LOGRANK_HAND_STAT) < 1e-12
        assert abs(r.p_value - LOGRANK_HAND_P) < 1e-10

    def test_arm_relabeling_invariance(self):
        rng = np.random.default_rng(21)
        times = rng.exponential(10, 40)
        events = rng.random(40) < 0.7
        grp = np.arange(40) < 18
        a = log_rank_test(SurvivalSample(times, events, grp))
        b = log_rank_test(SurvivalSample(times, events, ~grp))
        assert abs(a.statistic - b.statistic) < 1e-10

    def test_monotone_time_transform_invariance(self):
        rng = np.random.default_rng(22)
        times = rng.exponential(10, 30) + 0.5
        events = rng.random(30) < 0.6
        grp = np.arange(30) < 15
        a = log_rank_test(SurvivalSample(times, events, grp))
        b = log_rank_test(SurvivalSample(np.sqrt(times), events, grp))
        c = log_rank_test(SurvivalSample(times ** 2, events, grp))
        assert abs(a.statistic - b.statistic) < 1e-9
        assert abs(a.statistic - c.statistic) < 1e-9

    def test_ties_use_hypergeometric_variance(self):
        # Two events at the same time in opposite arms.
        times = np.array([2.0, 2.0, 4.0, 4.0])
        events = np.array([True, True, False, False])
        grp = np.array([True, False, True, False])
        # At t=2: d=2, n=4, n1=2: O-E = 1 - 2*(2/4) = 0;
        # V = 2*(1/2)*(1/2)*(4-2)/(4-1) = 1/3, so the statistic is 0.
        r = log_rank_test(SurvivalSample(times, events, grp))
        assert abs(r.statistic) < 1e-12

    def test_patient_order_invariance(self):
        rng = np.random.default_rng(23)
        times = rng.exponential(10, 50)
        events = rng.random(50) < 0.6
        grp = rng.random(50) < 0.5
        a = log_rank_test(SurvivalSample(times, events, grp))
        perm = rng.permutation(50)
        b = log_rank_test(SurvivalSample(times[perm], events[perm], grp[perm]))
        assert abs(a.statistic - b.statistic) < 1e-10
        assert abs(a.p_value - b.p_value) < 1e-12

    def test_matches_scipy_logrank_on_tied_censored_samples(self):
        # Samples shaped like the ttfe-weibull preset's comparator input: time
        # to first event rounded to whole days (so event times tie), dropout
        # and administrative censoring at day 730, 105 patients per arm.
        stats = pytest.importorskip("scipy.stats")
        for hr_death, hr_hosp in ((0.35, 0.35), (0.5, 0.8), (0.95, 0.65), (0.95, 0.95)):
            dgm = TteCompositeDgm(hr_first=hr_death, hr_second=hr_hosp)
            for i in range(10):
                s = dgm.generate(substream(577, i, 0), substream(577, i, 1)).ttfe
                assert s.times.size == 210
                assert np.unique(s.times[s.events]).size < s.events.sum()
                assert not s.events.all()
                t, c = s.in_treatment, ~s.in_treatment
                ref = stats.logrank(
                    stats.CensoredData.right_censored(s.times[t], ~s.events[t]),
                    stats.CensoredData.right_censored(s.times[c], ~s.events[c]))
                got = log_rank_test(s)
                assert abs(got.statistic - ref.statistic ** 2) <= 1e-12 * max(1.0, got.statistic)
                assert abs(got.p_value - ref.pvalue) < 1e-12

    def test_requires_events_and_two_arms(self):
        times = np.array([1.0, 2.0])
        with pytest.raises(UndefinedStatisticError):
            log_rank_test(SurvivalSample(times, np.array([False, False]),
                                         np.array([True, False])))
        with pytest.raises(UndefinedStatisticError):
            log_rank_test(SurvivalSample(times, np.array([True, True]),
                                         np.array([True, True])))

    def test_null_calibration(self):
        # Its own null: equal exponential arms with uniform censoring.
        rejections = 0
        n_sim = 2500
        for i in range(n_sim):
            rng = substream(2718, i)
            times = rng.exponential(10.0, 80)
            censor = rng.uniform(0, 25, 80)
            obs = np.minimum(times, censor)
            events = times <= censor
            grp = np.arange(80) < 40
            r = log_rank_test(SurvivalSample(obs, events, grp))
            rejections += r.p_value <= 0.05
        assert abs(rejections / n_sim - 0.05) <= 3 * math.sqrt(0.05 * 0.95 / n_sim)


class TestTwoByTwoTable:
    def test_from_binary(self):
        t = TwoByTwoTable.from_binary([1, 1, 0], [0, 0, 0, 1])
        assert (t.a, t.b, t.c, t.d) == (2, 1, 1, 3)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TwoByTwoTable(-1, 2, 3, 4)
        with pytest.raises(InvalidInputError):
            TwoByTwoTable(0, 0, 0, 0)
        with pytest.raises(InvalidInputError, match="^a must be an integer >= 0, got nan$"):
            TwoByTwoTable(math.nan, 1, 1, 1)


def test_chi_square_null_calibration_and_fisher_conservatism():
    # chi-square stays near nominal size at n=20/arm while Fisher's exact
    # test is conservative there (exact enumerated size 0.0248 at p=0.3).
    chi_rej = fisher_rej = 0
    n_sim = 2500
    for i in range(n_sim):
        rng = substream(1618, i)
        t = (rng.random(20) < 0.3).astype(float)
        c = (rng.random(20) < 0.3).astype(float)
        table = TwoByTwoTable.from_binary(t, c)
        chi_rej += chi_square_test(table).p_value <= 0.05
        fisher_rej += fisher_exact(table) <= 0.05
    band = 3 * math.sqrt(0.05 * 0.95 / n_sim)
    assert abs(chi_rej / n_sim - 0.0533) <= band  # exact enumerated size
    assert abs(fisher_rej / n_sim - 0.0248) <= band
    assert fisher_rej / n_sim < 0.05


def test_hypergeom_consistency_with_fisher():
    # The conditional null of the 2x2 table is the hypergeometric PMF.
    table = TwoByTwoTable(4, 6, 7, 3)
    p = hypergeom_pmf(4, 20, 11, 10)
    assert 0 < p < 1
    assert fisher_exact(table) >= p - 1e-15
