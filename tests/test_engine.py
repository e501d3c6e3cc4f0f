import math

import pytest

from wrlab import engine
from wrlab.core import Arm
from wrlab.datagen import IphakPlan, substream
from wrlab.engine import (BinaryContinuousDgm, IphakDgm, Scenario,
                          TteCompositeDgm, binary_continuous_grid,
                          iphak_scenario, mcse, study_presets,
                          required_iterations, results_to_csv, results_to_json,
                          run_grid, run_scenario, tte_grid)
from wrlab.errors import InvalidInputError


class TestMcse:
    def test_reference_values(self):
        assert abs(mcse(0.5, 2500) - 0.01) < 1e-15
        assert abs(mcse(0.872, 1000) - 0.0105652) < 1e-6
        assert mcse(1.0, 400) == 0.0

    def test_required_iterations(self):
        assert required_iterations(0.01) == 2500
        assert required_iterations(0.005) == 10000
        assert required_iterations(0.5) == 1
        assert required_iterations(1e200) == 1  # the square overflows; one iteration suffices

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            mcse(0.5, 0)
        with pytest.raises(InvalidInputError):
            required_iterations(0.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: mcse(math.nan, 10), "power must be finite and in [0, 1], got nan"),
        (lambda: mcse(1.5, 10), "power must be in [0, 1], got 1.5"),
        (lambda: mcse(0.5, 2.5), "n_iterations must be an integer >= 1, got 2.5"),
        (lambda: required_iterations(math.inf), "target_mcse must be finite and > 0, got inf"),
        (lambda: required_iterations(math.nan), "target_mcse must be finite and > 0, got nan"),
        (lambda: required_iterations(1e-200),
         "target_mcse must give a finite iteration count, got 1e-200"),
        (lambda: required_iterations(1e-160),
         "target_mcse must give a finite iteration count, got 1e-160"),
    ])
    def test_out_of_domain_input_named(self, call, message):
        with pytest.raises(InvalidInputError) as exc:
            call()
        assert message in str(exc.value)


class TestPresets:
    def test_preset_catalog(self):
        presets = study_presets()
        assert set(presets) == {"iphak", "binary-continuous", "ttfe-weibull"}
        assert presets["iphak"].default_iterations == 1000
        assert presets["binary-continuous"].default_iterations == 2500
        assert presets["ttfe-weibull"].default_iterations == 2500

    def test_binary_continuous_grid_shape(self):
        grid = binary_continuous_grid()
        assert len(grid) == 50  # 5 deltas x 5 rates x 2 orders
        deltas = {s.factors["delta"] for s in grid}
        assert deltas == {0.1, 0.25, 0.5, 0.75, 1.0}
        rates = {s.factors["p_t"] for s in grid}
        assert rates == {0.35, 0.4, 0.5, 0.6, 0.7}
        assert all(s.dgm.n_per_arm == 20 for s in grid)
        assert all(s.dgm.p_control == 0.3 for s in grid)

    def test_unknown_order_rejected(self):
        with pytest.raises(InvalidInputError, match="orders"):
            binary_continuous_grid(orders=("binary-first", "sideways"))

    def test_tte_grid_parameters(self):
        grid = tte_grid()
        assert len(grid) == 25
        dgm = grid[0].dgm
        assert abs(dgm.first.scale - 944.61) < 0.01
        assert dgm.first.shape == 4.0
        assert abs(dgm.second.scale - 530.0) < 0.5
        assert dgm.second.shape == 2.0
        assert abs(dgm.censoring_scale - 6928.59) < 0.01
        assert dgm.follow_up == 730.0
        assert dgm.round_to_days is True
        assert dgm.n_per_arm == 105

    def test_iphak_preset_parameters(self):
        sc = iphak_scenario()
        plan = sc.dgm.plan
        assert plan.n_per_arm == 255
        assert plan.prevalence == 0.30
        assert plan.ddd_sd == 1.8
        assert "chi-square" in sc.methods and "t-test" in sc.methods


class TestScenarioValidation:
    def test_incompatible_method_rejected(self):
        dgm = BinaryContinuousDgm(p_treatment=0.5, delta=0.5)
        with pytest.raises(InvalidInputError):
            Scenario("bad", dgm, ("log-rank-ttfe",))
        with pytest.raises(InvalidInputError):
            Scenario("bad", TteCompositeDgm(0.5, 0.5), ("t-test",))

    def test_unknown_method_rejected(self):
        dgm = BinaryContinuousDgm(p_treatment=0.5, delta=0.5)
        with pytest.raises(InvalidInputError):
            Scenario("bad", dgm, ("anova",))

    def test_bootstrap_needs_two_replicates(self):
        dgm = BinaryContinuousDgm(p_treatment=0.5, delta=0.5)
        with pytest.raises(InvalidInputError, match="bootstrap_replicates"):
            Scenario("bad", dgm, ("wr-unmatched:bootstrap",), bootstrap_replicates=1)
        with pytest.raises(InvalidInputError, match="bootstrap_replicates must be an integer"):
            Scenario("bad", dgm, ("wr-unmatched:bootstrap",), bootstrap_replicates=2.5)
        # The replicate count only matters when the bootstrap runs.
        Scenario("ok", dgm, ("wr-unmatched:yu",), bootstrap_replicates=1)

    @pytest.mark.parametrize("dgm", [
        BinaryContinuousDgm(p_treatment=0.5, delta=0.5, n_per_arm=1),
        IphakDgm(IphakPlan(n_per_arm=1)),
    ])
    def test_t_test_needs_two_per_arm(self, dgm):
        # At 1 per arm the t-test is undefined on every iteration.
        with pytest.raises(InvalidInputError, match="'t-test' needs n_per_arm >= 2, got 1"):
            Scenario("tiny", dgm, ("wr-unmatched", "t-test"))
        Scenario("tiny", dgm, ("wr-unmatched", "fisher-exact"))


class TestDgmValidation:
    @pytest.mark.parametrize("kwargs, message", [
        ({"p_treatment": 1.5}, "p_treatment must be in [0, 1], got 1.5"),
        ({"p_control": -0.1}, "p_control must be in [0, 1], got -0.1"),
        ({"sd": 0.0}, "sd must be > 0, got 0.0"),
        ({"n_per_arm": 0}, "n_per_arm must be >= 1, got 0"),
        ({"delta": math.inf}, "delta must be finite, got inf"),
        ({"delta": math.nan}, "delta must be finite, got nan"),
        ({"sd": math.inf}, "sd must be finite and > 0, got inf"),
        ({"n_per_arm": 2.5}, "n_per_arm must be an integer >= 1, got 2.5"),
        ({"p_treatment": "0.5"}, "p_treatment must be a number, got '0.5'"),
    ])
    def test_binary_continuous_checked_on_construction(self, kwargs, message):
        with pytest.raises(InvalidInputError) as exc:
            BinaryContinuousDgm(**{"p_treatment": 0.5, "delta": 0.5, **kwargs})
        assert message in str(exc.value)

    def test_tte_composite_plans_built_once_on_construction(self):
        dgm = TteCompositeDgm(hr_first=0.5, hr_second=0.8)
        assert [p.hazard_ratio for p in dgm.plans] == [0.5, 0.8]
        assert [p.event for p in dgm.plans] == [dgm.first, dgm.second]
        with pytest.raises(InvalidInputError, match="hazard_ratio must be > 0"):
            TteCompositeDgm(hr_first=0.5, hr_second=-1.0)

    @pytest.mark.parametrize("build, message", [
        (lambda: TteCompositeDgm(0.5, 0.5, n_per_arm=0), "n_per_arm must be >= 1, got 0"),
        (lambda: IphakPlan(n_per_arm=2.5), "n_per_arm must be an integer >= 1, got 2.5"),
        (lambda: IphakPlan(ddd_mean={**IphakPlan().ddd_mean, (Arm.CONTROL, True): math.inf}),
         "must be finite, got inf"),
    ], ids=["tte-n_per_arm", "iphak-n_per_arm", "iphak-ddd_mean"])
    def test_other_models_checked_on_construction(self, build, message):
        with pytest.raises(InvalidInputError) as exc:
            build()
        assert message in str(exc.value)


class TestRunScenario:
    def test_same_data_for_all_methods_and_counts(self):
        dgm = BinaryContinuousDgm(p_treatment=0.6, delta=0.5)
        sc = Scenario("s", dgm, ("wr-unmatched", "t-test", "fisher-exact"))
        results = run_scenario(sc, 40, 123)
        assert {r.method for r in results} == set(sc.methods)
        for r in results:
            assert r.n_iterations == 40
            assert abs(r.mcse - math.sqrt(r.power * (1 - r.power) / 40)) < 1e-12
        wr = next(r for r in results if r.method == "wr-unmatched")
        assert wr.mean_wr is not None and wr.decided_at_level is not None
        assert abs(sum(wr.decided_at_level) - 1.0) < 1e-12
        tt = next(r for r in results if r.method == "t-test")
        assert tt.mean_wr is None and tt.decided_at_level is None

    def test_wr_variants_share_tally(self):
        sc = iphak_scenario(IphakPlan(n_per_arm=30))
        results = run_scenario(sc, 10, 7)
        wr_results = [r for r in results if r.method.startswith("wr-")]
        assert len({r.mean_wr for r in wr_results}) == 1

    def test_iterations_draw_from_their_substreams(self, monkeypatch):
        # The reused generators carry substream(seed, cell, i, arm)'s state when each
        # iteration starts, arm 2 the bootstrap's, across chunks of derived states.
        monkeypatch.setattr(engine, "_STREAM_CHUNK", 3)
        seen, generate = [], BinaryContinuousDgm.generate
        monkeypatch.setattr(BinaryContinuousDgm, "generate", lambda self, t, c: seen.append(
            (t.bit_generator.state, c.bit_generator.state)) or generate(self, t, c))
        boots, bootstrap = [], engine.bootstrap_verdicts
        monkeypatch.setattr(engine, "bootstrap_verdicts", lambda cmp, b, alpha, rng: boots.append(
            rng.bit_generator.state) or bootstrap(cmp, b, alpha, rng))
        sc = Scenario("s", BinaryContinuousDgm(p_treatment=0.5, delta=1.0),
                      ("wr-unmatched:bootstrap",), bootstrap_replicates=20)
        run_scenario(sc, 8, 99, cell=4)
        assert seen == [tuple(substream(99, 4, i, arm).bit_generator.state for arm in (0, 1))
                        for i in range(8)]
        assert boots == [substream(99, 4, i, 2).bit_generator.state for i in range(8)]

    def test_failures_counted_not_raised(self):
        # A 1-patient-per-arm TTE scenario has iterations with no events at
        # all, which the log-rank cannot test; those count as failures.
        dgm = TteCompositeDgm(hr_first=1.0, hr_second=1.0, n_per_arm=1)
        sc = Scenario("tiny", dgm, ("log-rank-ttfe",))
        results = run_scenario(sc, 30, 5)
        assert results[0].n_failures > 0

    def test_programming_errors_propagate(self, monkeypatch):
        # Only WrlabError counts as an analysis failure; anything else is a
        # bug and must not be hidden as a non-rejection.
        def broken(x, y):
            raise RuntimeError("comparator bug")
        monkeypatch.setattr(engine, "t_test", broken)
        sc = Scenario("s", BinaryContinuousDgm(p_treatment=0.5, delta=0.5),
                      ("wr-unmatched", "t-test"))
        with pytest.raises(RuntimeError, match="comparator bug"):
            run_scenario(sc, 5, 1)


class TestRunGrid:
    GRID = binary_continuous_grid(deltas=(0.5,), p_treatments=(0.5, 0.6),
                                  orders=("binary-first",))

    def test_deterministic_and_thread_invariant(self):
        r1 = run_grid(self.GRID, 30, 7, threads=1)
        r2 = run_grid(self.GRID, 30, 7, threads=2)
        assert results_to_csv(r1) == results_to_csv(r2)
        r3 = run_grid(self.GRID, 30, 7)
        assert results_to_csv(r1) == results_to_csv(r3)

    def test_adding_methods_keeps_generated_data(self):
        # Power of a method must not depend on which other methods run.
        base = Scenario("s", BinaryContinuousDgm(p_treatment=0.6, delta=0.5),
                        ("t-test",))
        wide = Scenario("s", BinaryContinuousDgm(p_treatment=0.6, delta=0.5),
                        ("wr-unmatched", "t-test", "fisher-exact"))
        p_base = run_scenario(base, 60, 11)[0].power
        p_wide = next(r for r in run_scenario(wide, 60, 11)
                      if r.method == "t-test").power
        assert p_base == p_wide

    def test_worker_count(self, monkeypatch):
        # A pure function of its inputs and the CPU count: no worker starts here.
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 4)
        assert [engine._workers(t, 25) for t in (1, 3, 4, 16)] == [1, 3, 4, 4]
        assert engine._workers(16, 2) == 2
        monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
        assert engine._workers(8, 25) == 1
        for threads in (0, -3):
            with pytest.raises(InvalidInputError, match="threads must be >= 1"):
                engine._workers(threads, 25)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            run_grid([], 10, 1)


class TestEmission:
    def test_csv_layout(self):
        results = run_grid(self.grid(), 20, 3)
        text = results_to_csv(results)
        lines = text.strip().split("\n")
        assert lines[0] == ("scenario,delta,p_t,order,method,power,mcse,"
                            "n_iterations,n_degenerate")
        assert len(lines) == 1 + len(results)

    def test_json_mirror(self):
        import json
        results = run_grid(self.grid(), 20, 3)
        payload = json.loads(results_to_json(results))
        assert payload["schema"] == "wrlab/results-v1"
        assert len(payload["results"]) == len(results)
        wr_rows = [r for r in payload["results"] if r["method"] == "wr-unmatched"]
        assert all("decided_at_level" in r for r in wr_rows)

    @staticmethod
    def grid():
        return binary_continuous_grid(deltas=(0.5,), p_treatments=(0.5,),
                                      orders=("binary-first",))


class TestNullCalibration:
    def test_tte_null_preset(self):
        dgm = TteCompositeDgm(hr_first=1.0, hr_second=1.0)
        sc = Scenario("tte-null", dgm, ("wr-unmatched", "log-rank-ttfe"))
        results = run_scenario(sc, 1200, 19)
        band = 3 * math.sqrt(0.05 * 0.95 / 1200)
        for r in results:
            assert abs(r.power - 0.05) <= band, (r.method, r.power)

    def test_iphak_null(self):
        rate = {(k): 0.81 for k in IphakPlan().ebp_rate}
        mean = {(k): 0.0 for k in IphakPlan().ddd_mean}
        plan = IphakPlan(ebp_rate=rate, ddd_mean=mean, n_per_arm=120)
        sc = Scenario("iphak-null", IphakDgm(plan),
                      ("wr-unmatched", "chi-square", "t-test"))
        results = run_scenario(sc, 1200, 23)
        band = 3 * math.sqrt(0.05 * 0.95 / 1200)
        for r in results:
            assert abs(r.power - 0.05) <= band, (r.method, r.power)
