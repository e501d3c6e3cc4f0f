"""The benchmark's output checks pass on the program's real output and reject
deliberately corrupted copies of it, for every workload.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from wrlab import cli  # noqa: E402
from wrlab.io import hierarchy_from_dict  # noqa: E402
from wrlab.ranksim import solve_omega  # noqa: E402

SEED = 7


def run(workload, r: int = 1) -> workloads.RoundOutput:
    seed = workloads.round_seed(SEED, r)
    out = workloads.RoundOutput(seed)
    for c in workload.commands(seed):
        assert cli.main(c.argv) == 0
        out.outputs[c.label], failed = workload.parse(c)
        assert failed == 0
    return out


def with_row(rnd, label: str, scenario: str, method: str, **fields):
    """A copy of a round whose one row has the given fields replaced."""
    bad = copy.deepcopy(rnd)
    row = next(x for x in bad.outputs[label]
               if x["scenario"] == scenario and x["method"] == method)
    row.update(fields)
    return bad


def off_by_one_rejection(row: dict) -> dict:
    """Power one rejection away, with an MCSE consistent with it."""
    n = row["n_iterations"]
    k = round(row["power"] * n)
    p = (k + 1) / n if k < n else (k - 1) / n
    return {"power": p, "mcse": (p * (1 - p) / n) ** 0.5}


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    w = workloads.SmallTrials(tmp_path_factory.mktemp("small"), SEED, iterations=6)
    return w, run(w)


@pytest.mark.parametrize("method", ["wr-unmatched", "t-test", "fisher-exact"])
def test_small_trials_power_off_by_one_rejection(small, method):
    w, rnd = small
    sample = [(0, 0), (0, 17), (0, 49)]
    w.check([rnd], sample)
    scenario = w.scenarios[17].name
    row = next(x for x in rnd.outputs[w.preset]
               if x["scenario"] == scenario and x["method"] == method)
    bad = with_row(rnd, w.preset, scenario, method, **off_by_one_rejection(row))
    with pytest.raises(CheckError, match="reported power"):
        w.check([bad], sample)


def test_small_trials_bad_mcse_and_level_fractions(small):
    w, rnd = small
    scenario = w.scenarios[3].name
    bad = with_row(rnd, w.preset, scenario, "t-test", mcse=0.01)
    with pytest.raises(CheckError, match="mcse"):
        w.check([bad], [])
    bad = with_row(rnd, w.preset, scenario, "wr-unmatched", decided_at_level=[0.5, 0.4])
    with pytest.raises(CheckError, match="sum to 1"):
        w.check([bad], [])


@pytest.fixture(scope="module")
def tte(tmp_path_factory):
    w = workloads.CensoredTte(tmp_path_factory.mktemp("tte"), SEED, iterations=4)
    return w, run(w)


def test_censored_tte_log_rank_power_off_by_one(tte):
    w, rnd = tte
    sample = [(0, 6), (0, 24)]
    w.check([rnd], sample)
    scenario = w.scenarios[24].name
    row = next(x for x in rnd.outputs[w.preset]
               if x["scenario"] == scenario and x["method"] == "log-rank-ttfe")
    bad = with_row(rnd, w.preset, scenario, "log-rank-ttfe", **off_by_one_rejection(row))
    with pytest.raises(CheckError, match="log-rank-ttfe: reported power"):
        w.check([bad], sample)


def test_censored_tte_swapped_level_fractions(tte):
    w, rnd = tte
    scenario = w.scenarios[6].name
    row = next(x for x in rnd.outputs[w.preset]
               if x["scenario"] == scenario and x["method"] == "wr-unmatched")
    swapped = list(reversed(row["decided_at_level"]))
    assert swapped != row["decided_at_level"]
    bad = with_row(rnd, w.preset, scenario, "wr-unmatched", decided_at_level=swapped)
    with pytest.raises(CheckError, match="decided-level fractions"):
        w.check([bad], [(0, 6)])


@pytest.fixture(scope="module")
def resampling(tmp_path_factory):
    w = workloads.Resampling(tmp_path_factory.mktemp("resampling"), SEED,
                             iterations=3, rank_iterations=20)
    return w, [run(w, r) for r in (1, 2)]


def test_resampling_passes_and_rejects_off_by_one(resampling):
    w, rounds = resampling
    w.check(rounds)
    for method in ("chi-square", "wr-unmatched:yu", "wr-unmatched:count-wald"):
        row = next(x for x in rounds[1].outputs[w.preset] if x["method"] == method)
        bad = with_row(rounds[1], w.preset, "iphak", method, **off_by_one_rejection(row))
        with pytest.raises(CheckError, match="reported power"):
            w.check([rounds[0], bad])


def test_resampling_rejects_inflated_null_size(resampling):
    w, rounds = resampling
    bad = copy.deepcopy(rounds)
    for rnd in bad:
        rnd.outputs["null"][0].update(power=0.5, mcse=(0.25 / 20) ** 0.5)
    with pytest.raises(CheckError, match="null rejections"):
        w.check(bad)


def test_wrong_solve_omega_root():
    omega = solve_omega(0.6, 50, 50)
    checks.check_fnch_root(0.6, 50, 50, omega)
    with pytest.raises(CheckError, match="FNCH mean share"):
        checks.check_fnch_root(0.6, 50, 50, omega * 1.01)


def test_bootstrap_and_ranksim_power_bands():
    checks.check_bootstrap_band(0.72, 0.73, 1000)
    with pytest.raises(CheckError, match="bootstrap power"):
        checks.check_bootstrap_band(0.40, 0.73, 1000)
    checks.check_power_near(0.43, 1000, 0.419, "phi=0.6")
    with pytest.raises(CheckError, match="phi=0.6"):
        checks.check_power_near(0.05, 1000, 0.419, "phi=0.6")


@pytest.fixture(scope="module")
def large(tmp_path_factory):
    w = workloads.LargeTrial(tmp_path_factory.mktemp("large"), SEED, n_per_arm=150)
    w.prepare()
    return w, run(w)


def test_large_trial_passes(large):
    w, rnd = large
    w.check([rnd, rnd])


def test_large_trial_swapped_wins_and_losses(large):
    w, rnd = large
    text = rnd.outputs["analyze"]
    got = workloads.parse_analyze(text)
    line = f"wins: {got['wins']}  losses: {got['losses']}  ties: {got['ties']}"
    swapped = f"wins: {got['losses']}  losses: {got['wins']}  ties: {got['ties']}"
    bad = copy.deepcopy(rnd)
    bad.outputs["analyze"] = text.replace(line, swapped)
    with pytest.raises(CheckError, match="wins/losses/ties"):
        w.check([bad])


def test_large_trial_wrong_level_split_and_score(large):
    w, rnd = large
    text = rnd.outputs["analyze"]
    got = workloads.parse_analyze(text)
    bad = copy.deepcopy(rnd)
    bad.outputs["analyze"] = text.replace(f"  1 death: {got['decided'][0]} (",
                                          f"  1 death: {got['decided'][0] + 1} (")
    with pytest.raises(CheckError, match="per-level decisions"):
        w.check([bad])
    bad.outputs["analyze"] = text.replace(f"score test: z={got['z']:.6g}",
                                          f"score test: z={got['z'] * 1.001:.6g}")
    with pytest.raises(CheckError, match="printed score z"):
        w.check([bad])
    z = checks.score_z(*w.columns,
                       checks.levels_of(hierarchy_from_dict(workloads.LARGE_HIERARCHY)))
    w.check([rnd], program_z=z)
    with pytest.raises(CheckError, match="block-wise z"):
        w.check([rnd], program_z=z * (1 + 1e-8))
