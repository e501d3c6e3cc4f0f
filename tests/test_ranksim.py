import math

import numpy as np
import pytest

from wrlab import ranksim
from wrlab.core import compare_arms, win_ratio
from wrlab.datagen import substream
from wrlab.errors import InfeasibleParameterError, InvalidInputError
from wrlab.kernels import ln_choose
from wrlab.ranksim import (RankDgm, RankSimConfig, _fnch_probs, _fnch_table, rank_hierarchy,
                           ranksim_power, simulate_rank_trial, solve_omega)


class TestSolveOmega:
    def test_null_share_gives_central_distribution(self):
        assert abs(solve_omega(0.5, 50, 50) - 1.0) < 1e-6
        assert abs(solve_omega(0.5, 30, 30) - 1.0) < 1e-6

    def test_achieves_requested_mean(self):
        omega = solve_omega(0.6, 50, 50)
        assert omega > 1.0
        ks, base = _fnch_table(50, 50)
        probs = _fnch_probs(ks, base, math.log(omega))
        assert abs(float((ks * probs).sum()) / 50 - 0.6) < 1e-6

    def test_monotone_in_phi(self):
        omegas = [solve_omega(p, 40, 40) for p in (0.3, 0.45, 0.5, 0.6, 0.7)]
        assert all(a < b for a, b in zip(omegas, omegas[1:]))

    def test_infeasible_share(self):
        # 80 treatment patients cannot average 90% top-half membership
        # when the top half has only 50 slots.
        with pytest.raises(InfeasibleParameterError):
            solve_omega(0.9, 80, 20)

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            solve_omega(0.0, 10, 10)


class TestSimulateRankTrial:
    def cfg(self, **kw):
        base = dict(n_t=20, n_c=20, phi_win_per_level=(0.6,), seed=5)
        base.update(kw)
        return RankSimConfig(**base)

    def test_rank_partition_without_ties(self):
        cfg = self.cfg()
        for i in range(20):
            t_cols, c_cols = simulate_rank_trial(cfg, substream(17, i))
            pooled = np.concatenate([t_cols[0], c_cols[0]])
            assert sorted(pooled.tolist()) == list(range(1, 41))

    def test_two_levels_independent_columns(self):
        cfg = self.cfg(phi_win_per_level=(0.6, 0.55))
        t_cols, c_cols = simulate_rank_trial(cfg, substream(18, 0))
        assert len(t_cols) == 2 and len(c_cols) == 2

    def test_tie_collapsing_creates_ties(self):
        cfg = self.cfg(tie_prob_level1=0.5)
        pooled_sets = []
        for i in range(10):
            t_cols, c_cols = simulate_rank_trial(cfg, substream(19, i))
            pooled = np.concatenate([t_cols[0], c_cols[0]])
            pooled_sets.append(len(np.unique(pooled)))
        assert min(pooled_sets) < 40  # collapsed values appeared

    def test_top_half_share_calibration(self):
        cfg = self.cfg(n_t=25, n_c=25, phi_win_per_level=(0.5,))
        shares = []
        for i in range(4000):
            t_cols, _ = simulate_rank_trial(cfg, substream(20, i))
            shares.append((t_cols[0] <= 25).mean())
        assert abs(np.mean(shares) - 0.5) < 0.015

    def test_trials_share_one_model(self, monkeypatch):
        # Each level's odds are solved once per config, not once per trial, and a
        # config given a list hashes; the ranks are those of a model built per trial.
        cfg = self.cfg(n_t=25, n_c=25, phi_win_per_level=[0.6, 0.55], tie_prob_level1=0.2)
        assert hash(cfg) == hash(self.cfg(n_t=25, n_c=25, phi_win_per_level=(0.6, 0.55),
                                          tie_prob_level1=0.2))
        expected = []
        for i in range(30):
            rng = substream(21, i)
            data = RankDgm(cfg).generate(rng, rng)
            expected.append(data.t_cols + data.c_cols)
        calls = []

        def counting(phi, n_t, n_c):
            calls.append(phi)
            return solve_omega(phi, n_t, n_c)
        monkeypatch.setattr(ranksim, "solve_omega", counting)
        ranksim._trial_dgm.cache_clear()
        for i, want in enumerate(expected):
            t_cols, c_cols = simulate_rank_trial(cfg, substream(21, i))
            assert all(np.array_equal(a, b) for a, b in zip(t_cols + c_cols, want, strict=True))
        assert calls == [0.6, 0.55]

    def test_wr_increases_with_phi(self):
        mean_wr = []
        for phi in (0.5, 0.55, 0.6):
            cfg = self.cfg(n_t=30, n_c=30, phi_win_per_level=(phi,))
            h = rank_hierarchy(1)
            ratios = []
            for i in range(400):
                t_cols, c_cols = simulate_rank_trial(cfg, substream(21, i))
                s = compare_arms(t_cols, c_cols, h).stats
                if 0 < s.n_loss:
                    ratios.append(win_ratio(s))
            mean_wr.append(np.mean(ratios))
        assert mean_wr[0] < mean_wr[1] < mean_wr[2]


class TestRanksimPower:
    def test_result_fields_and_determinism(self):
        cfg = RankSimConfig(n_t=20, n_c=20, phi_win_per_level=(0.6,),
                            n_bootstrap=100, n_iterations=50, seed=9)
        r1 = ranksim_power(cfg)
        r2 = ranksim_power(cfg)
        assert r1 == r2
        assert r1.method == "ranksim-bootstrap"
        assert 0.0 <= r1.power <= 1.0
        assert abs(r1.mcse - math.sqrt(r1.power * (1 - r1.power) / 50)) < 1e-12
        # The shared Monte Carlo loop fills the WR summary fields.
        assert r1.mean_wr > 1.0 and r1.decided_at_level == (1.0,)
        assert r1.n_failures == 0

    def test_odds_solved_once_per_level(self, monkeypatch):
        calls = []

        def counting(phi, n_t, n_c):
            calls.append(phi)
            return solve_omega(phi, n_t, n_c)
        monkeypatch.setattr(ranksim, "solve_omega", counting)
        cfg = RankSimConfig(n_t=20, n_c=20, phi_win_per_level=(0.6, 0.55),
                            n_bootstrap=50, n_iterations=6, seed=4)
        ranksim_power(cfg)
        assert calls == [0.6, 0.55]

    def test_law_built_once(self, monkeypatch):
        # Each level's law is tabulated on construction; datasets only draw from it.
        def ln_choose_calls(n_iterations):
            calls = []

            def counting(n, k):
                calls.append((n, k))
                return ln_choose(n, k)
            monkeypatch.setattr(ranksim, "ln_choose", counting)
            ranksim_power(RankSimConfig(n_t=20, n_c=20, phi_win_per_level=(0.6, 0.55),
                                        n_bootstrap=50, n_iterations=n_iterations, seed=4))
            return len(calls)
        assert ln_choose_calls(6) == ln_choose_calls(30)

    def test_dgm_hashes_and_compares_on_cfg(self):
        cfg = RankSimConfig(n_t=20, n_c=20, phi_win_per_level=(0.6, 0.55))
        a, b = RankDgm(cfg), RankDgm(cfg)
        assert a == b and hash(a) == hash(b)
        assert a != RankDgm(RankSimConfig(n_t=20, n_c=20, phi_win_per_level=(0.6,)))
        assert len(a.laws) == 2 and all(abs(probs.sum() - 1.0) < 1e-12 for _, probs in a.laws)

    def test_power_increases_with_arm_size(self):
        powers = []
        for n in (25, 50):
            cfg = RankSimConfig(n_t=n, n_c=n, phi_win_per_level=(0.6,),
                                n_bootstrap=200, n_iterations=300, seed=31)
            powers.append(ranksim_power(cfg).power)
        assert powers[0] < powers[1]

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            RankSimConfig(n_t=0, n_c=10, phi_win_per_level=(0.5,))
        with pytest.raises(InvalidInputError):
            RankSimConfig(n_t=10, n_c=10, phi_win_per_level=(0.5, 0.5, 0.5))
        with pytest.raises(InvalidInputError):
            RankSimConfig(n_t=10, n_c=10, phi_win_per_level=(1.2,))
        with pytest.raises(InvalidInputError, match="n_t must be an integer >= 1, got 2.5"):
            RankSimConfig(n_t=2.5, n_c=10, phi_win_per_level=(0.5,))
        with pytest.raises(InvalidInputError, match="n_bootstrap must be an integer >= 2"):
            RankSimConfig(n_t=10, n_c=10, phi_win_per_level=(0.5,), n_bootstrap=2.5)
