import json
import math
from pathlib import Path

import pytest

from wrlab.cli import build_parser, main

DATA_DIR = Path(__file__).parent / "data"
SAMPLE = str(DATA_DIR / "sample_trial.csv")
HIERARCHY = str(DATA_DIR / "trial_hierarchy.json")
GOLDEN = DATA_DIR / "golden_analyze.txt"
CENSORED = str(DATA_DIR / "censored_trial.csv")
CENSORED_HIERARCHY = str(DATA_DIR / "censored_hierarchy.json")


class TestAnalyze:
    def test_symmetric_two_patient_dataset(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("id,arm,ebp,ddd\np1,T,1,2.0\np2,C,1,2.0\n")
        assert main(["analyze", "--data", str(data), "--hierarchy", HIERARCHY,
                     "--out", str(tmp_path / "r.txt")]) == 1  # all ties: runtime error
        data.write_text("id,arm,ebp,ddd\np1,T,0,2.0\np2,T,1,1.0\n"
                        "p3,C,1,2.0\np4,C,0,1.0\n")
        assert main(["analyze", "--data", str(data), "--hierarchy", HIERARCHY]) == 0
        out = capsys.readouterr().out
        assert "win ratio: 1" in out

    def test_golden_report_byte_identical(self, tmp_path):
        out = tmp_path / "report.txt"
        code = main(["analyze", "--data", SAMPLE, "--hierarchy", HIERARCHY,
                     "--bootstrap", "500", "--seed", "123456789",
                     "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_golden_report_on_cascade_path_byte_identical(self, tmp_path, monkeypatch):
        # A censored death level over a margined dose level takes the blocked
        # cascade rather than the sort, or the counting path with the crossover
        # at 0; the report, bootstrap included, is pinned on both.
        from wrlab import core
        for count_pairs in (core._COUNT_PAIRS, 0):
            monkeypatch.setattr(core, "_COUNT_PAIRS", count_pairs)
            out = tmp_path / "report.txt"
            assert main(["analyze", "--data", CENSORED, "--hierarchy", CENSORED_HIERARCHY,
                         "--bootstrap", "200", "--seed", "7", "--out", str(out)]) == 0
            assert out.read_bytes() == (DATA_DIR / "golden_analyze_censored.txt").read_bytes()

    def test_golden_counts_match_naive_oracle(self):
        # The oracle reads the files itself, not through wrlab's readers.
        import csv
        from naive_oracle import naive_tally
        levels = json.loads(Path(HIERARCHY).read_text())["levels"]
        with open(SAMPLE, newline="") as fh:
            rows = list(csv.DictReader(fh))
        t_p, c_p = ([{lv["name"]: float(r[lv["name"]]) for lv in levels}
                     for r in rows if r["arm"] == arm] for arm in "TC")
        ref = naive_tally(t_p, c_p, levels)
        text = GOLDEN.read_text()
        assert f"wins: {ref['wins']}  losses: {ref['losses']}  ties: {ref['ties']}" in text

    def test_one_arm_only_exits_2(self, tmp_path, capsys):
        data = tmp_path / "one_arm.csv"
        data.write_text("id,arm,ebp,ddd\np1,T,1,2.0\np2,T,0,1.0\n")
        assert main(["analyze", "--data", str(data), "--hierarchy", HIERARCHY]) == 2
        assert "at least one patient per arm" in capsys.readouterr().err

    def test_hierarchy_level_must_be_object(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"schema": "wrlab/hierarchy-v1", "levels": [1]}))
        assert main(["analyze", "--data", SAMPLE, "--hierarchy", str(h)]) == 2
        assert f"{h}: level 0: expected an object" in capsys.readouterr().err

    def test_non_numeric_margin_exits_2(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"schema": "wrlab/hierarchy-v1",
                                 "levels": [{"name": "ebp", "kind": "binary",
                                             "direction": "lower-favorable", "margin": None}]}))
        assert main(["analyze", "--data", SAMPLE, "--hierarchy", str(h)]) == 2
        err = capsys.readouterr().err
        assert f"{h}: level 0: OutcomeSpec 'ebp': margin must be a number, got None" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("margin, rule", [(math.nan, "must be finite, got nan"),
                                              (-1.0, "must be >= 0, got -1.0")])
    def test_non_finite_or_negative_margin_exits_2(self, tmp_path, capsys, margin, rule):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"schema": "wrlab/hierarchy-v1",
                                 "levels": [{"name": "ddd", "kind": "continuous",
                                             "direction": "lower-favorable", "margin": margin}]}))
        assert main(["analyze", "--data", SAMPLE, "--hierarchy", str(h)]) == 2
        err = capsys.readouterr().err
        assert f"{h}: level 0: OutcomeSpec 'ddd': margin {rule}" in err
        assert "Traceback" not in err

    def test_malformed_event_value_exits_2(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({
            "schema": "wrlab/hierarchy-v1",
            "levels": [{"name": "death", "kind": "time-to-event",
                        "direction": "higher-favorable", "margin": 0.0}]}))
        data = tmp_path / "bad.csv"
        data.write_text("id,arm,time_death,event_death\np1,T,10,2\np2,C,400,0\n")
        assert main(["analyze", "--data", str(data), "--hierarchy", str(h)]) == 2
        err = capsys.readouterr().err
        assert "event indicator" in err and ":2:" in err


class TestCalculators:
    def test_calibrate_weibull(self, capsys):
        assert main(["calibrate", "weibull", "--time", "730",
                     "--survival", "0.7", "--shape", "4"]) == 0
        assert capsys.readouterr().out == "scale: 944.615\n"

    def test_calibrate_exponential(self, capsys):
        assert main(["calibrate", "exponential", "--time", "730",
                     "--dropout", "0.10"]) == 0
        assert capsys.readouterr().out == "scale: 6928.59\n"

    def test_calibrate_missing_args_exit_2(self, capsys):
        assert main(["calibrate", "weibull", "--time", "730"]) == 2

    def test_samplesize_precision(self, capsys):
        assert main(["samplesize", "precision", "--width", "0.8",
                     "--p-tie", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "n_treatment: 67" in out and "n_control: 67" in out
        assert "n_total: 134" in out

    def test_samplesize_yu(self, capsys):
        assert main(["samplesize", "yu", "--wr", "1.5", "--power", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "n_total: 256" in out
        assert "n_total_unrounded: 254.624" in out

    def test_power_yu(self, capsys):
        assert main(["power", "yu", "--wr", "1.32", "--n-total", "510"]) == 0
        assert capsys.readouterr().out == "power: 0.774858\n"

    def test_power_mao(self, capsys):
        assert main(["power", "mao", "--wr", "1.5", "--n-total", "256",
                     "--xi0-sq", "0.3333333333333333", "--w0", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("power: 0.8")

    def test_power_yu_missing_args(self, capsys):
        assert main(["power", "yu", "--wr", "1.5"]) == 2

    def test_power_yu_any_grid_flag_selects_tie_sensitivity(self, capsys):
        assert main(["power", "yu", "--wr-grid", "1.5"]) == 2
        assert "tie-sensitivity mode needs" in capsys.readouterr().err

    def test_samplesize_invalid_domain_exit_2(self, capsys):
        assert main(["samplesize", "precision", "--width", "-1"]) == 2

    @pytest.mark.parametrize("argv, named", [
        (["samplesize", "precision", "--width", "nan"], "width must be finite and > 0, got nan"),
        (["samplesize", "precision", "--width", "inf"], "width must be finite and > 0, got inf"),
        (["samplesize", "yu", "--wr", "nan", "--power", "0.8"], "wr must be finite"),
        (["samplesize", "yu", "--wr", "inf", "--power", "0.8"], "wr must be finite"),
        (["samplesize", "mao", "--wr", "nan", "--xi0-sq", "0.3", "--w0", "0.5"],
         "wr must be finite"),
        (["samplesize", "mao", "--wr", "1.5", "--xi0-sq", "inf", "--w0", "0.5"],
         "xi0_sq must be finite"),
        (["power", "yu", "--wr", "1.5", "--n-total", "nan"], "n_total must be finite and >= 2"),
        (["power", "mao", "--wr", "1.5", "--n-total", "inf", "--xi0-sq", "0.3", "--w0", "0.5"],
         "n_total must be finite"),
        (["calibrate", "weibull", "--time", "nan", "--survival", "0.7", "--shape", "4"],
         "t must be finite and > 0, got nan"),
        (["calibrate", "weibull", "--time", "730", "--survival", "0.7", "--shape", "inf"],
         "shape must be finite and > 0, got inf"),
        (["calibrate", "exponential", "--time", "inf", "--dropout", "0.1"],
         "t must be finite and > 0, got inf"),
    ])
    def test_non_finite_input_named_exit_2(self, capsys, argv, named):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_tie_sensitivity_table(self, tmp_path):
        out = tmp_path / "ties.csv"
        assert main(["power", "yu", "--n-grid", "50,150,500",
                     "--wr-grid", "1.5,1.75,2",
                     "--p-tie-grid", "0,0.2,0.4,0.6,0.8", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n_total,wr,p_tie,power"
        assert len(lines) == 1 + 3 * 3 * 5


class TestRanksimCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "rs.csv"
        assert main(["ranksim", "--n-t", "15", "--n-c", "15", "--phi", "0.6",
                     "--bootstrap", "100", "--iterations", "40",
                     "--seed", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("scenario,")
        assert len(lines) == 2

    def test_infeasible_phi_exit_1(self, capsys):
        assert main(["ranksim", "--n-t", "80", "--n-c", "20", "--phi", "0.9",
                     "--iterations", "5"]) == 1


class TestSimulateCommand:
    def test_preset_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["simulate", "--preset", "binary-continuous",
                         "--iterations", "10", "--seed", "1",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert len(lines) == 1 + 50 * 3  # 50 cells x 3 methods

    def test_config_grid_json_output(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "schema": "wrlab/grid-v1", "dgm": "binary-continuous",
            "deltas": [0.5], "p_treatments": [0.5], "orders": ["binary-first"],
            "iterations": 20}))
        out = tmp_path / "res.json"
        assert main(["simulate", "--config", str(config), "--seed", "2",
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "wrlab/results-v1"
        assert len(payload["results"]) == 3

    def test_requires_exactly_one_source(self, capsys):
        assert main(["simulate"]) == 2
        assert main(["simulate", "--preset", "iphak", "--config", "x.json"]) == 2

    def test_unknown_preset_exit_2(self, capsys):
        assert main(["simulate", "--preset", "nope"]) == 2

    def test_zero_iterations_exit_2(self, tmp_path, capsys):
        # An explicit 0 is an error, not a request for the default count.
        out = tmp_path / "res.csv"
        assert main(["simulate", "--preset", "iphak", "--iterations", "0",
                     "--out", str(out)]) == 2
        assert "n_iterations must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["x", 2.5, True, 0])
    def test_config_iterations_must_be_positive_int(self, tmp_path, capsys, value):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"schema": "wrlab/grid-v1", "dgm": "iphak",
                                      "iterations": value}))
        assert main(["simulate", "--config", str(config)]) == 2
        assert "'iterations'" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["iphak", "binary-continuous", "ttfe-weibull"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_preset_output_byte_identical(self, tmp_path, preset, fmt):
        out = tmp_path / f"res.{fmt}"
        assert main(["simulate", "--preset", preset, "--seed", "1", "--iterations", "5",
                     "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA_DIR / f"golden_{preset}.{fmt}").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_ranksim_output_byte_identical(self, tmp_path, fmt):
        out = tmp_path / f"res.{fmt}"
        assert main(["ranksim", "--n-t", "50", "--n-c", "50", "--phi", "0.55,0.6",
                     "--tie-prob", "0.1", "--iterations", "20", "--seed", "1",
                     "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA_DIR / f"golden_ranksim.{fmt}").read_bytes()

    @pytest.mark.parametrize("payload, named", [
        (["schema", "wrlab/grid-v1"], "JSON object"),
        ({"dgm": "binary-continuous", "deltas": ["x"]}, "'deltas'"),
        ({"dgm": "binary-continuous", "p_treatments": [True]}, "'p_treatments'"),
        ({"dgm": "binary-continuous", "orders": ["sideways"]}, "orders"),
        ({"dgm": "tte-composite", "hazard_ratios": 0.5}, "'hazard_ratios'"),
        ({"dgm": "tte-composite", "n_per_arm": 2.5}, "'n_per_arm'"),
        ({"dgm": "tte-composite", "n_per_arm": "x"}, "'n_per_arm'"),
        ({"dgm": "iphak", "alpha": "x"}, "'alpha'"),
        ({"dgm": "tte-composite", "hazard_ratio": [0.5]}, "'hazard_ratio'"),
        ({"dgm": "iphak", "n_per_arm": 3}, "'n_per_arm'"),
        ({"dgm": "binary-continuous", "n_per_arm": 1}, "'n_per_arm' must be an integer >= 2"),
        ({"preset": "iphak", "alpha": 0.1}, "'alpha'"),
        ({"preset": "iphak", "dgm": "iphak"}, "'dgm'"),
        ({"dgm": "binary-continuous", "p_treatments": [1.5]}, "p_treatment must be in [0, 1]"),
        ({"dgm": "binary-continuous", "deltas": [math.inf]},
         "'deltas' must be a non-empty list of finite numbers"),
        ({"dgm": "binary-continuous", "deltas": [math.nan]}, "'deltas'"),
        ({"dgm": "tte-composite", "hazard_ratios": [math.nan]}, "'hazard_ratios'"),
        ({"dgm": "tte-composite", "hazard_ratios": [math.inf]}, "'hazard_ratios'"),
    ])
    def test_malformed_config_value_exit_2(self, tmp_path, capsys, payload, named):
        if isinstance(payload, dict):
            payload = {"schema": "wrlab/grid-v1", "iterations": 2, **payload}
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_schema_exit_2(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"schema": "other"}))
        assert main(["simulate", "--config", str(config)]) == 2


@pytest.mark.parametrize("argv, missing, given", [
    (["power", "mao", "--wr", "1.5"], ["--n-total", "--xi0-sq", "--w0"], ["--wr"]),
    (["power", "mao", "--n-total", "200", "--xi0-sq", "0.3"], ["--wr", "--w0"],
     ["--n-total", "--xi0-sq"]),
    (["samplesize", "mao", "--wr", "1.5", "--w0", "0.5"], ["--xi0-sq"], ["--wr", "--w0"]),
    (["samplesize", "mao"], ["--wr", "--xi0-sq", "--w0"], []),
])
def test_missing_flags_named(capsys, argv, missing, given):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in missing)
    assert not any(flag in err for flag in given)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    # Rejected before any cell runs, so no worker process starts.
    out = tmp_path / "res.csv"
    assert main(["simulate", "--preset", "iphak", "--iterations", "1", "--threads", threads,
                 "--out", str(out)]) == 2
    assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_threads_env_fallback(monkeypatch, capsys):
    argv = ["simulate", "--preset", "iphak"]
    monkeypatch.delenv("WRLAB_THREADS", raising=False)
    assert build_parser().parse_args(argv).threads == 1
    monkeypatch.setenv("WRLAB_THREADS", "4")
    assert build_parser().parse_args(argv).threads == 4
    monkeypatch.setenv("WRLAB_THREADS", "junk")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --threads: invalid int value: 'junk'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ranksim", "--n-t", "10", "--n-c", "10", "--phi", "0.6", "--iterations", "2"],
    ["simulate", "--preset", "iphak", "--iterations", "1"],
    ["analyze", "--data", SAMPLE, "--hierarchy", HIERARCHY, "--bootstrap", "10"],
], ids=["ranksim", "simulate", "analyze"])
def test_negative_seed_exits_2_naming_seed(tmp_path, capsys, argv):
    out = tmp_path / "res.txt"
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
