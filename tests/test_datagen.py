import math

import numpy as np
import pytest

from wrlab.core import Arm, Direction, Hierarchy, OutcomeKind, OutcomeSpec, compare_arms
from wrlab.datagen import (IphakPlan, TtePlan, WeibullParams,
                           event_params_for_arm, exponential_scale_from_dropout,
                           exponential_survival, gen_binary_continuous_arm,
                           gen_iphak_arm, gen_tte_arm, gen_tte_composite_arm,
                           substream, weibull_scale_from_survival,
                           weibull_survival)
from wrlab.errors import InvalidInputError

N_BIG = 100_000


class TestCalibration:
    def test_death_scale(self):
        assert abs(weibull_scale_from_survival(730, 0.7, 4) - 944.61) < 0.01

    def test_hospitalization_scale(self):
        assert abs(weibull_scale_from_survival(730, 0.15, 2) - 530.0) < 0.5

    def test_unit_exponent_identity(self):
        assert abs(weibull_scale_from_survival(100, math.exp(-1), 1) - 100.0) < 1e-9

    def test_dropout_scale(self):
        assert abs(exponential_scale_from_dropout(730, 0.10) - 6928.59) < 0.01

    def test_exponential_identity(self):
        assert abs(exponential_scale_from_dropout(42.0, 1 - math.exp(-1)) - 42.0) < 1e-9

    def test_roundtrips(self):
        scale = weibull_scale_from_survival(730, 0.7, 4)
        assert abs(weibull_survival(730, WeibullParams(scale, 4)) - 0.7) < 1e-9
        esc = exponential_scale_from_dropout(730, 0.10)
        assert abs(exponential_survival(730, esc) - 0.90) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(InvalidInputError):
            weibull_scale_from_survival(730, 0.0, 4)
        with pytest.raises(InvalidInputError):
            weibull_scale_from_survival(730, 1.0, 4)
        with pytest.raises(InvalidInputError):
            exponential_scale_from_dropout(730, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_non_finite_or_non_positive_inputs_named(self, value):
        for name, call in [("t", lambda: weibull_scale_from_survival(value, 0.7, 4)),
                           ("shape", lambda: weibull_scale_from_survival(730, 0.7, value)),
                           ("t", lambda: exponential_scale_from_dropout(value, 0.1)),
                           ("hazard_ratio", lambda: default_plan(hr=value)),
                           ("scale", lambda: WeibullParams(value, 4.0)),
                           ("censoring_scale", lambda: TtePlan(WeibullParams(900.0, 4.0), 1.0,
                                                               value, 730.0)),
                           ("follow_up", lambda: TtePlan(WeibullParams(900.0, 4.0), 1.0,
                                                         7000.0, value)),
                           ("sd", lambda: gen_binary_continuous_arm(0.5, 0.0, value, 10,
                                                                    substream(1, 0))),
                           ("ddd_sd", lambda: IphakPlan(ddd_sd=value))]:
            with pytest.raises(InvalidInputError,
                               match=f"^{name} must be (finite and )?> 0, got {value}$"):
                call()


def default_plan(hr=1.0, round_to_days=False):
    return TtePlan(event=WeibullParams(weibull_scale_from_survival(730, 0.7, 4), 4.0),
                   hazard_ratio=hr,
                   censoring_scale=exponential_scale_from_dropout(730, 0.10),
                   follow_up=730.0, round_to_days=round_to_days)


class TestTteGeneration:
    def test_control_event_rate_matches_target(self):
        # Raw event-time distribution hits the 30% two-year event rate.
        plan = default_plan()
        rng = substream(1, 0)
        raw = plan.event.scale * rng.weibull(plan.event.shape, N_BIG)
        assert abs((raw <= 730).mean() - 0.30) < 0.01
        # Observed events are slightly rarer: censoring competes with events.
        times, events = gen_tte_arm(plan, Arm.CONTROL, N_BIG, substream(1, 1))
        observed = (events & (times <= 730)).mean()
        assert 0.26 < observed < 0.30

    def test_null_hr_gives_identical_marginals(self):
        t_times, _ = gen_tte_arm(default_plan(hr=1.0), Arm.TREATMENT, N_BIG, substream(2, 0))
        c_times, _ = gen_tte_arm(default_plan(hr=1.0), Arm.CONTROL, N_BIG, substream(2, 1))
        grid = np.linspace(1, 730, 50)
        t_cdf = (t_times[:, None] <= grid).mean(axis=0)
        c_cdf = (c_times[:, None] <= grid).mean(axis=0)
        assert np.abs(t_cdf - c_cdf).max() < 0.01

    def test_dropout_fraction(self):
        plan = default_plan()
        rng = substream(3, 0)
        censor = np.minimum(rng.exponential(plan.censoring_scale, N_BIG), plan.follow_up)
        assert abs((censor < 730).mean() - 0.10) < 0.01

    def test_proportional_hazards_construction(self):
        # Arm-specific scales satisfy log CH_T(t) - log CH_C(t) = log HR
        # identically; the empirical curves agree within the Monte Carlo
        # resolution of each time point (few events happen before day 200,
        # so that point carries a much wider band).
        hr = 0.5
        plan = default_plan(hr=hr)
        params_t = event_params_for_arm(plan, Arm.TREATMENT)
        params_c = event_params_for_arm(plan, Arm.CONTROL)
        for t in (200.0, 400.0, 600.0):
            ch_t = -math.log(weibull_survival(t, params_t))
            ch_c = -math.log(weibull_survival(t, params_c))
            assert abs(math.log(ch_t) - math.log(ch_c) - math.log(hr)) < 1e-12
        rng = substream(4, 0)
        n = 1_000_000
        raw_t = params_t.scale * rng.weibull(params_t.shape, n)
        raw_c = params_c.scale * rng.weibull(params_c.shape, n)
        for t, tol in ((200.0, 0.12), (400.0, 0.03), (600.0, 0.015)):
            ch_t = -math.log(1.0 - (raw_t <= t).mean())
            ch_c = -math.log(1.0 - (raw_c <= t).mean())
            assert abs(math.log(ch_t) - math.log(ch_c) - math.log(hr)) < tol

    def test_rounding_is_ceiling(self):
        times, _ = gen_tte_arm(default_plan(round_to_days=True), Arm.CONTROL,
                               5000, substream(5, 0))
        assert np.all(times == np.ceil(times))
        assert times.min() >= 1.0

    def test_rounding_never_decreases_ties(self):
        h = Hierarchy((OutcomeSpec("death", OutcomeKind.TIME_TO_EVENT, Direction.HIGHER),))
        raw = default_plan(hr=0.8, round_to_days=False)
        t_raw = gen_tte_arm(raw, Arm.TREATMENT, 80, substream(6, 0))
        c_raw = gen_tte_arm(raw, Arm.CONTROL, 80, substream(6, 1))
        rounded_t = (np.ceil(t_raw[0]), t_raw[1])
        rounded_c = (np.ceil(c_raw[0]), c_raw[1])
        s_raw = compare_arms([t_raw], [c_raw], h).stats
        s_round = compare_arms([rounded_t], [rounded_c], h).stats
        assert s_round.n_tie >= s_raw.n_tie

    def test_composite_shares_censoring_and_builds_first_event(self):
        plans = (default_plan(hr=0.5), TtePlan(
            event=WeibullParams(weibull_scale_from_survival(730, 0.15, 2), 2.0),
            hazard_ratio=0.8,
            censoring_scale=exponential_scale_from_dropout(730, 0.10),
            follow_up=730.0))
        levels, ttfe = gen_tte_composite_arm(plans, Arm.TREATMENT, 4000, substream(7, 0))
        assert len(levels) == 2
        # first-event time never exceeds either component's observed time
        assert np.all(ttfe[0] <= levels[0][0] + 1e-9)
        assert np.all(ttfe[0] <= levels[1][0] + 1e-9)
        # an event on any component implies a first-event event
        assert np.all(ttfe[1] >= (levels[0][1] & (levels[0][0] <= ttfe[0] + 1e-9)))

    def test_composite_requires_shared_censoring(self):
        p1 = default_plan()
        p2 = TtePlan(event=WeibullParams(530, 2), hazard_ratio=1.0,
                     censoring_scale=100.0, follow_up=730.0)
        with pytest.raises(InvalidInputError):
            gen_tte_composite_arm((p1, p2), Arm.CONTROL, 10, substream(8, 0))


class TestBinaryContinuous:
    def test_null_effect_shares_distribution(self):
        tb, tc = gen_binary_continuous_arm(0.3, 0.0, 1.0, N_BIG, substream(9, 0))
        cb, cc = gen_binary_continuous_arm(0.3, 0.0, 1.0, N_BIG, substream(9, 1))
        assert abs(tc.mean() - cc.mean()) < 0.02
        assert abs(tb.mean() - cb.mean()) < 0.01

    def test_marginal_rates(self):
        tb, _ = gen_binary_continuous_arm(0.35, 0.5, 1.0, N_BIG, substream(10, 0))
        cb, _ = gen_binary_continuous_arm(0.30, 0.0, 1.0, N_BIG, substream(10, 1))
        assert abs(tb.mean() - 0.35) < 0.01
        assert abs(cb.mean() - 0.30) < 0.01

    def test_standardized_shift(self):
        for delta in (0.25, 1.0):
            _, tc = gen_binary_continuous_arm(0.3, delta, 2.0, N_BIG, substream(11, 0))
            _, cc = gen_binary_continuous_arm(0.3, 0.0, 2.0, N_BIG, substream(11, 1))
            assert abs((tc.mean() - cc.mean()) / 2.0 - delta) < 0.02


class TestIphak:
    def test_treatment_marginal_ebp_rate(self):
        plan = IphakPlan(n_per_arm=N_BIG)
        ebp, _ = gen_iphak_arm(plan, Arm.TREATMENT, substream(12, 0))
        assert abs(ebp.mean() - 0.771) < 0.005

    def test_control_ddd_mean_zero(self):
        plan = IphakPlan(n_per_arm=N_BIG)
        _, ddd = gen_iphak_arm(plan, Arm.CONTROL, substream(13, 0))
        assert abs(ddd.mean()) < 0.02

    def test_treatment_ddd_mixture_mean(self):
        plan = IphakPlan(n_per_arm=N_BIG)
        _, ddd = gen_iphak_arm(plan, Arm.TREATMENT, substream(14, 0))
        assert abs(ddd.mean() - 0.3 * (-1.364)) < 0.02

    def test_default_plan_parameters(self):
        plan = IphakPlan()
        assert plan.n_per_arm == 255
        assert plan.prevalence == 0.30
        assert plan.ddd_sd == 1.8
        assert plan.ebp_rate[(Arm.TREATMENT, True)] == 0.68
        assert plan.ebp_rate[(Arm.CONTROL, True)] == 0.85
        assert plan.ebp_rate[(Arm.TREATMENT, False)] == 0.81
        assert plan.ddd_mean[(Arm.TREATMENT, True)] == -1.364


class TestSubstreams:
    def test_determinism(self):
        a = substream(123, 4, 5).normal(size=8)
        b = substream(123, 4, 5).normal(size=8)
        assert np.array_equal(a, b)

    def test_key_separation(self):
        a = substream(123, 4, 5).normal(size=8)
        b = substream(123, 4, 6).normal(size=8)
        c = substream(124, 4, 5).normal(size=8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
