import math

import numpy as np
import pytest

from wrlab.core import (Arm, Direction, Hierarchy, OutcomeKind, OutcomeSpec,
                        PatientRecord, WinStats, compare_arms)
from wrlab.datagen import substream
from wrlab.errors import AllTiesError, DegenerateCountsError, InvalidInputError
from wrlab.inference import (bootstrap_verdicts, bootstrap_wr, infer_phi,
                             phi_win, score_test, score_test_columns,
                             var_log_wr, var_phi, var_wr_delta,
                             wald_test_log_wr, yu_wald_test)
from wrlab.kernels import norm_cdf

from reference_tables import PHI_60_40

H_CONT = Hierarchy((OutcomeSpec("y", OutcomeKind.CONTINUOUS, Direction.HIGHER),))


def stats(w, l, t, pairing="unmatched", n_t=10, n_c=10):
    decided = {0: w + l} if w + l else {}
    return WinStats(w, l, t, w + l + t, decided, pairing, n_t, n_c)


class TestPhiInference:
    def test_symmetric_counts(self):
        s = stats(50, 50, 0)
        assert phi_win(s) == 0.5
        assert var_phi(s) == 0.0025
        r = infer_phi(s, ci_method="wald")
        # CI symmetric about 1 on the log scale
        assert abs(math.log(r.ci[0]) + math.log(r.ci[1])) < 1e-12
        assert r.z == 0.0 and r.p_value == 1.0

    def test_60_40_oracle_values(self):
        s = stats(60, 40, 0)
        assert abs(var_phi(s) - PHI_60_40["var_phi"]) < 1e-15
        wald = infer_phi(s, 0.05, "wald")
        assert abs(wald.ci[0] - PHI_60_40["wald_wr_ci"][0]) < 1e-10
        assert abs(wald.ci[1] - PHI_60_40["wald_wr_ci"][1]) < 1e-10
        assert wald.method == "wald-phi-backtransform"
        wilson = infer_phi(s, 0.05, "wilson")
        assert abs(wilson.ci[0] - PHI_60_40["wilson_wr_ci"][0]) < 1e-10
        assert abs(wilson.ci[1] - PHI_60_40["wilson_wr_ci"][1]) < 1e-10
        assert wilson.method == "wilson-backtransform"

    def test_delta_method_identities(self):
        s = stats(60, 40, 0)
        p, m = 0.6, 100
        assert abs(var_wr_delta(s) - p / ((1 - p) ** 3 * m)) < 1e-12
        assert abs(var_log_wr(s) - 1 / (p * (1 - p) * m)) < 1e-12
        assert abs(var_wr_delta(s) - PHI_60_40["var_wr_delta"]) < 1e-12
        assert abs(var_log_wr(s) - PHI_60_40["var_log_wr"]) < 1e-12

    def test_degenerate_wald_flagged_wilson_valid(self):
        s = stats(100, 0, 0)
        wald = infer_phi(s, ci_method="wald")
        assert "degenerate-wald" in wald.flags
        wilson = infer_phi(s, ci_method="wilson")
        assert not wilson.flags
        assert wilson.ci[0] > 1.0
        assert math.isinf(wilson.ci[1]) or wilson.ci[1] > wilson.ci[0]

    def test_all_ties_error(self):
        with pytest.raises(AllTiesError):
            infer_phi(stats(0, 0, 9))


class TestWaldLogWr:
    def test_null_identity(self):
        r = wald_test_log_wr(stats(40, 40, 5), wr0=1.0)
        assert r.z == 0.0 and r.p_value == 1.0

    def test_60_40_oracle(self):
        r = wald_test_log_wr(stats(60, 40, 0), wr0=1.0, alpha=0.05)
        assert abs(r.se_log - PHI_60_40["se_log"]) < 1e-12
        assert abs(r.z - PHI_60_40["z_log_wr"]) < 1e-12
        assert abs(r.p_value - PHI_60_40["p_log_wr"]) < 1e-12
        assert abs(r.ci[0] - PHI_60_40["wald_log_ci"][0]) < 1e-10
        assert abs(r.ci[1] - PHI_60_40["wald_log_ci"][1]) < 1e-10
        assert r.method == "wald-log"

    def test_doubling_counts_halves_variance(self):
        v1 = var_log_wr(stats(60, 40, 0))
        v2 = var_log_wr(stats(120, 80, 0))
        assert abs(v1 / v2 - 2.0) < 1e-12

    def test_degenerate_counts_error(self):
        with pytest.raises(DegenerateCountsError):
            wald_test_log_wr(stats(10, 0, 0))


class TestYuWaldTest:
    def test_plugs_in_tie_proportion(self):
        s = stats(30, 20, 50, n_t=10, n_c=10)
        r = yu_wald_test(s)
        from wrlab.design import yu_sigma_sq
        expected_se = math.sqrt(yu_sigma_sq(0.5, 0.5) / 20)
        assert abs(r.se_log - expected_se) < 1e-12
        assert r.method == "yu-approx"

    def test_requires_unmatched(self):
        with pytest.raises(InvalidInputError):
            yu_wald_test(stats(5, 5, 0, pairing="matched"))


@pytest.mark.parametrize("test", [wald_test_log_wr, yu_wald_test])
@pytest.mark.parametrize("wr0", [0.0, -1.0, math.nan, math.inf])
def test_wald_tests_reject_nonpositive_wr0(test, wr0):
    with pytest.raises(InvalidInputError, match="wr0"):
        test(stats(30, 20, 5), wr0=wr0)


class TestBootstrap:
    def test_identical_patients_within_arm_zero_width(self):
        # Constant arms make every pair verdict the same, so each replicate
        # reproduces the point estimate exactly (here WR = 0: all losses).
        ds = [PatientRecord(f"t{i}", Arm.TREATMENT, (1.0,)) for i in range(5)]
        ds += [PatientRecord(f"c{i}", Arm.CONTROL, (2.0,)) for i in range(5)]
        r = bootstrap_wr(ds, H_CONT, b=200, seed=1)
        assert r.estimate == 0.0
        assert r.ci == (0.0, 0.0)
        assert r.n_degenerate == 0

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(3)
        ds = [PatientRecord(f"t{i}", Arm.TREATMENT, (float(v),))
              for i, v in enumerate(rng.normal(0.4, 1, 15))]
        ds += [PatientRecord(f"c{i}", Arm.CONTROL, (float(v),))
               for i, v in enumerate(rng.normal(0.0, 1, 15))]
        r1 = bootstrap_wr(ds, H_CONT, b=300, seed=42)
        r2 = bootstrap_wr(ds, H_CONT, b=300, seed=42)
        assert r1 == r2

    def test_degenerate_replicates_flagged(self):
        # 2v2 with a single discordant pair: replicates frequently lose all losses
        ds = [PatientRecord("t0", Arm.TREATMENT, (5.0,)),
              PatientRecord("t1", Arm.TREATMENT, (0.0,)),
              PatientRecord("c0", Arm.CONTROL, (0.0,)),
              PatientRecord("c1", Arm.CONTROL, (0.0,))]
        r = bootstrap_wr(ds, H_CONT, b=400, seed=9)
        assert r.n_degenerate > 0
        assert "degenerate-replicates" in r.flags

    def test_coverage_20v20(self):
        # CI covers the true WR in about 95% of simulated datasets (+-2%).
        delta = 0.5
        phi = norm_cdf(delta / math.sqrt(2))
        wr_true = phi / (1 - phi)
        cover = 0
        n_sim = 600
        for i in range(n_sim):
            rng_t = substream(43, 0, i, 0)
            rng_c = substream(43, 0, i, 1)
            rng_b = substream(43, 0, i, 2)
            t = rng_t.normal(delta, 1.0, 20)
            c = rng_c.normal(0.0, 1.0, 20)
            r = bootstrap_verdicts(compare_arms([t], [c], H_CONT), 1000, 0.05, rng_b)
            cover += r.ci[0] <= wr_true <= r.ci[1]
        assert abs(cover / n_sim - 0.95) <= 0.02


class TestScoreTest:
    def test_reduces_to_tie_corrected_rank_test(self):
        # Single continuous level: statistic matches the normal-approximation
        # rank-sum z computed directly from ranks.
        rng = np.random.default_rng(8)
        t = rng.normal(0.5, 1, 12)
        c = rng.normal(0.0, 1, 15)
        r = score_test_columns([t], [c], H_CONT)
        pooled = np.concatenate([t, c])
        order = pooled.argsort()
        ranks = np.empty_like(pooled)
        ranks[order] = np.arange(1, pooled.size + 1)
        n, n_t = pooled.size, t.size
        u = 2 * ranks - (n + 1)
        s_stat = u[:n_t].sum()
        var = n_t * (n - n_t) * (u * u).sum() / (n * (n - 1))
        assert abs(r.statistic - s_stat / math.sqrt(var)) < 1e-10

    def test_null_symmetry(self):
        ds = [PatientRecord("t", Arm.TREATMENT, (1.0,)),
              PatientRecord("c", Arm.CONTROL, (2.0,)),
              PatientRecord("t2", Arm.TREATMENT, (2.0,)),
              PatientRecord("c2", Arm.CONTROL, (1.0,))]
        r = score_test(ds, H_CONT)
        assert r.statistic == 0.0 and r.p_value == 1.0

    def test_all_ties_error(self):
        ds = [PatientRecord("t", Arm.TREATMENT, (1.0,)),
              PatientRecord("c", Arm.CONTROL, (1.0,))]
        with pytest.raises(AllTiesError):
            score_test(ds, H_CONT)

    def test_null_calibration_small_arms(self):
        # Size at 20v20 stays near the nominal level (the motivation for
        # using the score test as the simulation default).
        rejections = 0
        n_sim = 2000
        for i in range(n_sim):
            rng_t = substream(91, 0, i, 0)
            rng_c = substream(91, 0, i, 1)
            t = rng_t.normal(0.0, 1.0, 20)
            c = rng_c.normal(0.0, 1.0, 20)
            if score_test_columns([t], [c], H_CONT).p_value <= 0.05:
                rejections += 1
        assert abs(rejections / n_sim - 0.05) <= 3 * math.sqrt(0.05 * 0.95 / n_sim)


def test_compare_arms_matches_record_api():
    rng = np.random.default_rng(10)
    t = rng.normal(0.3, 1, 8)
    c = rng.normal(0.0, 1, 9)
    from wrlab.core import tally_unmatched
    records = [PatientRecord(f"t{i}", Arm.TREATMENT, (float(v),)) for i, v in enumerate(t)]
    records += [PatientRecord(f"c{i}", Arm.CONTROL, (float(v),)) for i, v in enumerate(c)]
    assert compare_arms([t], [c], H_CONT).stats == tally_unmatched(records, H_CONT)
