"""The benchmark's workloads: the CLI commands of one round, their inputs,
how their outputs are read, and how they are checked.

A round is a fixed amount of work, run as a user runs it: `wrlab.cli.main`
with the output written to a file. Round r of a run uses the CLI seed
`seed * 1000 + r`, so every round does the same work on fresh data and the
checks can pool rounds; round 0 is the untimed warm-up.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# `checks` (and with it scipy) is imported inside the check methods: it loads
# after the measured rounds, so it adds nothing to set-up time or peak RSS.

ROUND_SEED_STRIDE = 1000


def round_seed(seed: int, r: int) -> int:
    return seed * ROUND_SEED_STRIDE + r


@dataclass(frozen=True)
class Command:
    label: str
    argv: list[str]
    ops: int          # analysis methods x datasets (one per analyze call)
    out: Path


@dataclass
class RoundOutput:
    seed: int
    outputs: dict[str, object] = field(default_factory=dict)  # label -> parsed, None if failed
    failed: int = 0


class Workload:
    name = ""
    datasets_per_round = 0    # trials simulated, rank iterations, or trials analysed
    simulated_per_round = 0   # datasets drawn by the data-generating models
    pairs_per_round = 0       # sum of N_T x N_C over the round's datasets

    def __init__(self, out_dir: Path, seed: int) -> None:
        self.out_dir = out_dir
        self.seed = seed

    def prepare(self) -> None:
        """Write the inputs the commands read (untimed)."""

    def commands(self, seed: int) -> list[Command]:
        raise NotImplementedError

    def parse(self, command: Command) -> tuple[object, int]:
        """(parsed output, operations the program reports failed)."""
        payload = json.loads(command.out.read_text())
        rows = payload["results"]
        return rows, sum(int(r["n_failures"]) for r in rows)

    def check(self, rounds: list[RoundOutput]) -> None:
        raise NotImplementedError

    @property
    def ops_per_round(self) -> int:
        return sum(c.ops for c in self.commands(0))


def _simulate(preset: str, iterations: int, seed: int, out: Path) -> list[str]:
    return ["simulate", "--preset", preset, "--iterations", str(iterations),
            "--seed", str(seed), "--threads", "1", "--format", "json", "--out", str(out)]


class SimulateWorkload(Workload):
    """One `simulate --preset` per round, checked row by row and on sampled cells."""

    preset = ""
    iterations = 0
    sampled_cells = 0  # cells recomputed beyond one whole round

    def __init__(self, out_dir: Path, seed: int, iterations: int | None = None) -> None:
        super().__init__(out_dir, seed)
        from wrlab import engine
        self.scenarios = engine.study_presets()[self.preset].scenarios
        if iterations is not None:
            self.iterations = iterations
        dgm = self.scenarios[0].dgm
        n = dgm.plan.n_per_arm if hasattr(dgm, "plan") else dgm.n_per_arm
        cells = len(self.scenarios)
        self.datasets_per_round = self.simulated_per_round = cells * self.iterations
        self.pairs_per_round = cells * self.iterations * n * n

    def commands(self, seed: int) -> list[Command]:
        out = self.out_dir / f"{self.name}.json"
        ops = sum(len(s.methods) for s in self.scenarios) * self.iterations
        return [Command(self.preset, _simulate(self.preset, self.iterations, seed, out),
                        ops, out)]

    def sample(self, rounds: list[RoundOutput]) -> list[tuple[int, int]]:
        """(round index, cell) pairs to recompute, drawn from the run's seed:
        every cell of one round, so that a fault confined to one cell shows,
        and `sampled_cells` more from the other rounds."""
        rng = np.random.default_rng([self.seed, 4242])
        usable = [i for i, r in enumerate(rounds) if r.outputs.get(self.preset) is not None]
        if not usable:
            return []
        cells = len(self.scenarios)
        whole = usable.pop(int(rng.integers(len(usable))))
        picks = rng.choice(len(usable) * cells, size=min(self.sampled_cells, len(usable) * cells),
                           replace=False)
        return sorted([(whole, c) for c in range(cells)]
                      + [(usable[int(p) // cells], int(p) % cells) for p in picks])

    def check(self, rounds: list[RoundOutput], sample: list[tuple[int, int]] | None = None
              ) -> None:
        import checks
        from wrlab.datagen import substream
        for r in rounds:
            rows = r.outputs.get(self.preset)
            if rows is None:
                continue
            label = f"{self.preset} seed {r.seed}"
            want = [(s.name, m) for s in self.scenarios for m in s.methods]
            checks.require([(x["scenario"], x["method"]) for x in rows] == want,
                           f"{label}: rows are not the preset's cells x methods")
            checks.check_rows(rows, self.iterations, label)
        for ri, cell in (self.sample(rounds) if sample is None else sample):
            r = rounds[ri]
            scenario = self.scenarios[cell]
            rows = {x["method"]: x for x in r.outputs[self.preset]
                    if x["scenario"] == scenario.name}
            exp = checks.recompute_cell(scenario, r.seed, cell, self.iterations, substream)
            checks.check_cell(rows, exp, f"{self.preset} seed {r.seed} cell {scenario.name}")


class SmallTrials(SimulateWorkload):
    name = "small-trials"
    preset = "binary-continuous"
    iterations = 40
    sampled_cells = 10


class CensoredTte(SimulateWorkload):
    name = "censored-tte"
    preset = "ttfe-weibull"
    iterations = 24
    sampled_cells = 5


RANKSIM_CONFIGS = (
    ("null", ["--phi", "0.5"]),
    ("phi0.6", ["--phi", "0.6"]),
    ("two-level", ["--phi", "0.55,0.6", "--tie-prob", "0.1"]),
)
RANKSIM_ARM = 50


class Resampling(SimulateWorkload):
    """`simulate --preset iphak`, then `ranksim` in three configurations."""

    name = "resampling"
    preset = "iphak"
    iterations = 16
    rank_iterations = 24

    def __init__(self, out_dir: Path, seed: int, iterations: int | None = None,
                 rank_iterations: int | None = None) -> None:
        super().__init__(out_dir, seed, iterations)
        if rank_iterations is not None:
            self.rank_iterations = rank_iterations
        ranks = len(RANKSIM_CONFIGS) * self.rank_iterations
        self.datasets_per_round += ranks
        self.pairs_per_round += ranks * RANKSIM_ARM * RANKSIM_ARM

    def commands(self, seed: int) -> list[Command]:
        cmds = super().commands(seed)
        for label, args in RANKSIM_CONFIGS:
            out = self.out_dir / f"{self.name}-{label}.json"
            cmds.append(Command(label, [
                "ranksim", "--n-t", str(RANKSIM_ARM), "--n-c", str(RANKSIM_ARM), *args,
                "--bootstrap", "500", "--iterations", str(self.rank_iterations),
                "--seed", str(seed), "--format", "json", "--out", str(out)],
                self.rank_iterations, out))
        return cmds

    def sample(self, rounds: list[RoundOutput]) -> list[tuple[int, int]]:
        # One cell: every round's datasets are recomputed.
        return [(i, 0) for i, r in enumerate(rounds) if r.outputs.get(self.preset) is not None]

    def check(self, rounds: list[RoundOutput], sample: list[tuple[int, int]] | None = None
              ) -> None:
        super().check(rounds, sample)
        import checks
        from wrlab.design import yu_power
        from wrlab.ranksim import solve_omega
        done = [r.outputs[self.preset] for r in rounds if r.outputs.get(self.preset)]
        if done:
            power = {m: sum(next(x["power"] for x in rows if x["method"] == m)
                            for rows in done) / len(done)
                     for m in ("wr-unmatched:bootstrap", "wr-unmatched:score")}
            checks.check_bootstrap_band(power["wr-unmatched:bootstrap"],
                                        power["wr-unmatched:score"],
                                        len(done) * self.iterations)
        pooled = {}
        for label, _ in RANKSIM_CONFIGS:
            rows = [r.outputs[label] for r in rounds if r.outputs.get(label) is not None]
            for row in rows:
                checks.require(len(row) == 1 and row[0]["method"] == "ranksim-bootstrap",
                               f"ranksim {label}: expected one ranksim-bootstrap row")
                checks.check_rows(row, self.rank_iterations, f"ranksim {label}")
            n = len(rows) * self.rank_iterations
            k = sum(round(row[0]["power"] * self.rank_iterations) for row in rows)
            pooled[label] = (k, n)
        k, n = pooled["null"]
        if n:
            checks.check_null_size(k, n, 0.05)
        k, n = pooled["phi0.6"]
        if n:
            checks.check_power_near(k / n, n, yu_power(0.6 / 0.4, 2 * RANKSIM_ARM),
                                    "ranksim phi=0.6 vs yu_power(1.5, 100)")
        for phi in (0.5, 0.55, 0.6):
            checks.check_fnch_root(phi, RANKSIM_ARM, RANKSIM_ARM,
                                   solve_omega(phi, RANKSIM_ARM, RANKSIM_ARM))


# The README's example hierarchy: a censored death level over a dose level
# that counts only when the difference exceeds the margin.
LARGE_HIERARCHY = {
    "schema": "wrlab/hierarchy-v1",
    "levels": [
        {"name": "death", "kind": "time-to-event", "direction": "higher-favorable",
         "margin": 0.0},
        {"name": "dose", "kind": "continuous", "direction": "lower-favorable",
         "margin": 0.5},
    ],
}

_ANALYZE_LINES = {
    "patients": re.compile(r"^patients: T=(\d+) C=(\d+)$", re.M),
    "pairs": re.compile(r"^pairs \(unmatched\): (\d+)$", re.M),
    "tally": re.compile(r"^wins: (\d+)  losses: (\d+)  ties: (\d+)$", re.M),
    "level": re.compile(r"^  (\d+) (\S+): (\d+) \(", re.M),
    "wr": re.compile(r"^win ratio: (\S+)$", re.M),
    "score": re.compile(r"^score test: z=(\S+) p=(\S+)$", re.M),
}


def parse_analyze(text: str) -> dict:
    """The analyze report's tally, per-level decisions, win ratio and score z."""
    import checks
    found = {k: rx.findall(text) for k, rx in _ANALYZE_LINES.items()}
    for key in ("patients", "pairs", "tally", "wr", "score"):
        checks.require(len(found[key]) == 1, f"analyze report: no single '{key}' line")
    (n_t, n_c), = found["patients"]
    (w, l, t), = found["tally"]
    return {"n_t": int(n_t), "n_c": int(n_c), "pairs": int(found["pairs"][0]),
            "wins": int(w), "losses": int(l), "ties": int(t),
            "decided": [int(c) for _, _, c in found["level"]],
            "win_ratio": found["wr"][0], "z": float(found["score"][0][0])}


class LargeTrial(Workload):
    """`analyze` on one generated trial of 3000 patients per arm."""

    name = "large-trial"
    n_per_arm = 3000

    def __init__(self, out_dir: Path, seed: int, n_per_arm: int | None = None) -> None:
        super().__init__(out_dir, seed)
        if n_per_arm is not None:
            self.n_per_arm = n_per_arm
        self.datasets_per_round = 1
        self.pairs_per_round = self.n_per_arm * self.n_per_arm
        self.data_path = out_dir / f"{self.name}.csv"
        self.hierarchy_path = out_dir / f"{self.name}-hierarchy.json"
        self.columns: tuple[list, list] | None = None

    def prepare(self) -> None:
        """Draw the trial from the run's seed and write it as CSV."""
        from wrlab import datagen
        from wrlab.core import Arm
        rng = np.random.default_rng([self.seed, 3000])
        death = datagen.TtePlan(
            datagen.WeibullParams(datagen.weibull_scale_from_survival(730.0, 0.75, 1.5), 1.5),
            hazard_ratio=0.8,
            censoring_scale=datagen.exponential_scale_from_dropout(730.0, 0.10),
            follow_up=730.0, round_to_days=True)
        cols = {}
        for arm, shift in ((Arm.TREATMENT, -0.3), (Arm.CONTROL, 0.0)):
            times, events = datagen.gen_tte_arm(death, arm, self.n_per_arm, rng)
            dose = np.round(rng.normal(shift, 2.0, self.n_per_arm), 2)
            cols[arm] = [(times, events), dose]
        self.columns = (cols[Arm.TREATMENT], cols[Arm.CONTROL])
        lines = ["id,arm,time_death,event_death,dose"]
        for arm, tag in ((Arm.TREATMENT, "T"), (Arm.CONTROL, "C")):
            (times, events), dose = cols[arm]
            for i in range(self.n_per_arm):
                lines.append(f"{tag}{i:05d},{tag},{float(times[i])!r},{int(events[i])},"
                             f"{float(dose[i])!r}")
        self.data_path.write_text("\n".join(lines) + "\n")
        self.hierarchy_path.write_text(json.dumps(LARGE_HIERARCHY, indent=2) + "\n")

    def commands(self, seed: int) -> list[Command]:
        out = self.out_dir / f"{self.name}.txt"
        return [Command("analyze", ["analyze", "--data", str(self.data_path),
                                    "--hierarchy", str(self.hierarchy_path),
                                    "--seed", str(seed), "--out", str(out)], 1, out)]

    def parse(self, command: Command) -> tuple[object, int]:
        return command.out.read_text(), 0

    def check(self, rounds: list[RoundOutput], program_z: float | None = None) -> None:
        import checks
        from wrlab.inference import score_test_columns
        from wrlab.io import hierarchy_from_dict
        texts = [r.outputs["analyze"] for r in rounds if r.outputs.get("analyze") is not None]
        if not texts:
            return
        checks.require(all(t == texts[0] for t in texts), "analyze: reports differ between rounds")
        got = parse_analyze(texts[0])
        hierarchy = hierarchy_from_dict(LARGE_HIERARCHY)
        levels = checks.levels_of(hierarchy)
        t_cols, c_cols = self.columns
        want = checks.tally(t_cols, c_cols, levels)
        n = self.n_per_arm
        checks.require((got["n_t"], got["n_c"], got["pairs"]) == (n, n, n * n),
                       f"analyze: patients/pairs {got['n_t']}/{got['n_c']}/{got['pairs']}")
        checks.require((got["wins"], got["losses"], got["ties"])
                       == (want.wins, want.losses, want.ties),
                       f"analyze: wins/losses/ties {got['wins']}/{got['losses']}/{got['ties']}, "
                       f"block-wise count {want.wins}/{want.losses}/{want.ties}")
        checks.require(got["decided"] == want.decided,
                       f"analyze: per-level decisions {got['decided']} != {want.decided}")
        checks.require(got["win_ratio"] == f"{want.wins / want.losses:.6g}",
                       f"analyze: win ratio {got['win_ratio']} != {want.wins / want.losses:.6g}")
        z = checks.score_z(t_cols, c_cols, levels)
        checks.require(math.isclose(got["z"], z, rel_tol=1e-5),
                       f"analyze: printed score z {got['z']} != {z:.9g}")
        if program_z is None:
            program_z = score_test_columns(t_cols, c_cols, hierarchy).statistic
        checks.require(math.isclose(program_z, z, rel_tol=1e-9),
                       f"score_test_columns z {program_z!r} != block-wise z {z!r}")


WORKLOADS = {w.name: w for w in (SmallTrials, CensoredTte, Resampling, LargeTrial)}
