"""Monte Carlo power estimation over scenario grids.

Every iteration of a scenario generates one dataset and applies all
requested analysis methods to it, so method comparisons are paired. RNG
substreams are derived per (grid cell, iteration, arm) from one master
seed, making results independent of worker count and of which methods are
requested.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from . import datagen
from .core import (Arm, ArmComparison, Direction, Hierarchy, LevelColumn, OutcomeKind,
                   OutcomeSpec, WinStats, compare_arms, win_ratio)
from .datagen import IphakPlan, TtePlan, WeibullParams, substream_states
from .errors import InvalidInputError, WrlabError, _check_count, _check_real
from .inference import (bootstrap_verdicts, infer_phi, score_test_verdicts,
                        wald_test_log_wr, yu_wald_test)
from .stattests import (SurvivalSample, TwoByTwoTable, chi_square_test,
                        fisher_exact, log_rank_test, t_test)

if TYPE_CHECKING:
    from .ranksim import RankDgm

# Default WR inference is the permutation-variance score test (calibrated at
# small arm sizes); the approximate-variance Wald, bootstrap, and count-based
# Wald tests are selectable per method tag.
WR_METHODS = ("wr-unmatched", "wr-unmatched:score", "wr-unmatched:yu",
              "wr-unmatched:bootstrap", "wr-unmatched:count-wald")
COMPARATOR_METHODS = ("t-test", "fisher-exact", "chi-square", "log-rank-ttfe")

DEFAULT_BOOTSTRAP_REPLICATES = 500
_STREAM_CHUNK = 256  # iterations whose substream states are derived at once


def mcse(power: float, n_iterations: int) -> float:
    """Monte Carlo standard error sqrt(p (1 - p) / n)."""
    _check_count("n_iterations", n_iterations)
    _check_real("power", power, 0.0, 1.0, "[]")
    return math.sqrt(power * (1.0 - power) / n_iterations)


def required_iterations(target_mcse: float) -> int:
    """Iterations for a worst-case (power = 1/2) MCSE at most target_mcse."""
    _check_real("target_mcse", target_mcse, 0.0)
    square = target_mcse * target_mcse
    if not square or math.isinf(0.25 / square):
        raise InvalidInputError("target_mcse must give a finite iteration count, "
                                f"got {target_mcse!r}")
    return max(1, math.ceil(0.25 / square))


@dataclass(frozen=True)
class PowerResult:
    scenario: str
    method: str
    power: float
    mcse: float
    n_iterations: int
    n_degenerate: int = 0
    n_failures: int = 0
    mean_wr: float | None = None
    decided_at_level: tuple[float, ...] | None = None  # fraction of decided pairs
    factors: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class GeneratedData:
    """One simulated dataset in the forms the analysis methods consume."""

    t_cols: list[LevelColumn]
    c_cols: list[LevelColumn]
    binary: tuple[np.ndarray, np.ndarray] | None = None       # (treatment, control)
    continuous: tuple[np.ndarray, np.ndarray] | None = None
    ttfe: SurvivalSample | None = None


@dataclass(frozen=True)
class BinaryContinuousDgm:
    """Binary + continuous composite (normal shift, Bernoulli rates)."""

    SUPPORTED_COMPARATORS = frozenset({"t-test", "fisher-exact", "chi-square"})

    p_treatment: float
    delta: float
    p_control: float = 0.3
    sd: float = 1.0
    n_per_arm: int = 20
    binary_first: bool = True

    def __post_init__(self) -> None:
        _check_real("p_treatment", self.p_treatment, 0.0, 1.0, "[]")
        _check_real("p_control", self.p_control, 0.0, 1.0, "[]")
        _check_real("delta", self.delta)
        _check_real("sd", self.sd, 0.0)
        _check_count("n_per_arm", self.n_per_arm)

    def hierarchy(self) -> Hierarchy:
        binary = OutcomeSpec("binary", OutcomeKind.BINARY, Direction.HIGHER)
        cont = OutcomeSpec("continuous", OutcomeKind.CONTINUOUS, Direction.HIGHER)
        return Hierarchy((binary, cont) if self.binary_first else (cont, binary))

    def generate(self, rng_t: np.random.Generator, rng_c: np.random.Generator) -> GeneratedData:
        tb, tc = datagen.gen_binary_continuous_arm(self.p_treatment, self.delta, self.sd,
                                                   self.n_per_arm, rng_t)
        cb, cc = datagen.gen_binary_continuous_arm(self.p_control, 0.0, self.sd,
                                                   self.n_per_arm, rng_c)
        order = [(tb, cb), (tc, cc)] if self.binary_first else [(tc, cc), (tb, cb)]
        return GeneratedData(t_cols=[lvl[0] for lvl in order],
                             c_cols=[lvl[1] for lvl in order],
                             binary=(tb, cb), continuous=(tc, cc))


@dataclass(frozen=True)
class TteCompositeDgm:
    """Two hierarchical time-to-event outcomes with shared dropout censoring."""

    SUPPORTED_COMPARATORS = frozenset({"log-rank-ttfe"})

    hr_first: float
    hr_second: float
    # Calibrations: 70% survival and 85% hospitalization by day 730, 10% dropout.
    first: WeibullParams = WeibullParams(datagen.weibull_scale_from_survival(730.0, 0.70, 4.0), 4.0)
    second: WeibullParams = WeibullParams(datagen.weibull_scale_from_survival(730.0, 0.15, 2.0), 2.0)
    censoring_scale: float = datagen.exponential_scale_from_dropout(730.0, 0.10)
    follow_up: float = 730.0
    round_to_days: bool = True
    n_per_arm: int = 105
    plans: tuple[TtePlan, TtePlan] = field(init=False)

    def __post_init__(self) -> None:
        _check_count("n_per_arm", self.n_per_arm)
        object.__setattr__(self, "plans", tuple(
            TtePlan(event, hr, self.censoring_scale, self.follow_up, self.round_to_days)
            for event, hr in ((self.first, self.hr_first), (self.second, self.hr_second))))

    def hierarchy(self) -> Hierarchy:
        return Hierarchy((OutcomeSpec("death", OutcomeKind.TIME_TO_EVENT, Direction.HIGHER),
                          OutcomeSpec("hosp", OutcomeKind.TIME_TO_EVENT, Direction.HIGHER)))

    def generate(self, rng_t: np.random.Generator, rng_c: np.random.Generator) -> GeneratedData:
        t_levels, t_ttfe = datagen.gen_tte_composite_arm(self.plans, Arm.TREATMENT,
                                                         self.n_per_arm, rng_t)
        c_levels, c_ttfe = datagen.gen_tte_composite_arm(self.plans, Arm.CONTROL,
                                                         self.n_per_arm, rng_c)
        times = np.concatenate([t_ttfe[0], c_ttfe[0]])
        events = np.concatenate([t_ttfe[1], c_ttfe[1]])
        in_treatment = np.concatenate([np.ones(self.n_per_arm, bool),
                                       np.zeros(self.n_per_arm, bool)])
        return GeneratedData(t_cols=list(t_levels), c_cols=list(c_levels),
                             ttfe=SurvivalSample(times, events, in_treatment))


@dataclass(frozen=True)
class IphakDgm:
    """Screening-trial composite: binary classification over dose change."""

    SUPPORTED_COMPARATORS = frozenset({"t-test", "fisher-exact", "chi-square"})

    plan: IphakPlan = field(default_factory=IphakPlan)

    def hierarchy(self) -> Hierarchy:
        return Hierarchy((OutcomeSpec("ebp", OutcomeKind.BINARY, Direction.LOWER),
                          OutcomeSpec("ddd", OutcomeKind.CONTINUOUS, Direction.LOWER)))

    def generate(self, rng_t: np.random.Generator, rng_c: np.random.Generator) -> GeneratedData:
        t_ebp, t_ddd = datagen.gen_iphak_arm(self.plan, Arm.TREATMENT, rng_t)
        c_ebp, c_ddd = datagen.gen_iphak_arm(self.plan, Arm.CONTROL, rng_c)
        return GeneratedData(t_cols=[t_ebp, t_ddd], c_cols=[c_ebp, c_ddd],
                             binary=(t_ebp, c_ebp), continuous=(t_ddd, c_ddd))


@dataclass(frozen=True)
class Scenario:
    name: str
    dgm: BinaryContinuousDgm | TteCompositeDgm | IphakDgm | RankDgm
    methods: tuple[str, ...]
    alpha: float = 0.05
    bootstrap_replicates: int = DEFAULT_BOOTSTRAP_REPLICATES
    factors: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_real("alpha", self.alpha, 0.0, 1.0)
        for m in self.methods:
            if m not in WR_METHODS + COMPARATOR_METHODS:
                raise InvalidInputError(f"unknown analysis method {m!r}")
            if m in COMPARATOR_METHODS and m not in self.dgm.SUPPORTED_COMPARATORS:
                raise InvalidInputError(
                    f"method {m!r} incompatible with {type(self.dgm).__name__}")
        if "t-test" in self.methods:
            n = (self.dgm.plan if isinstance(self.dgm, IphakDgm) else self.dgm).n_per_arm
            if n < 2:
                raise InvalidInputError(f"method 't-test' needs n_per_arm >= 2, got {n}")
        if "wr-unmatched:bootstrap" in self.methods:
            _check_count("bootstrap_replicates", self.bootstrap_replicates, 2)


def _wilson_ci_excludes_one(stats: WinStats, alpha: float) -> bool:
    # Boundary-safe fallback for degenerate tallies (zero wins or losses).
    result = infer_phi(stats, alpha=alpha, ci_method="wilson")
    return result.ci[0] > 1.0 or result.ci[1] < 1.0


def _wr_rejection(variant: str, cmp: ArmComparison, alpha: float, b: int,
                  rng: np.random.Generator | None) -> tuple[bool, bool]:
    """(reject, degenerate) for one WR analysis of one dataset's comparison."""
    stats = cmp.stats
    if stats.n_informative == 0:
        return False, True
    if variant == "score":
        return score_test_verdicts(cmp).p_value <= alpha, False
    if stats.n_win == 0 or stats.n_loss == 0:
        return _wilson_ci_excludes_one(stats, alpha), True
    if variant == "bootstrap":
        result = bootstrap_verdicts(cmp, b, alpha, rng)
        return (result.ci[0] > 1.0 or result.ci[1] < 1.0), bool(result.flags)
    if variant == "count-wald":
        result = wald_test_log_wr(stats, alpha=alpha)
    else:
        result = yu_wald_test(stats, alpha=alpha)
    return result.p_value <= alpha, False


def _comparator_pvalue(method: str, data: GeneratedData) -> float:
    # Scenario admits only the comparators its DGM supports, and each DGM
    # fills the outcome fields its supported comparators read.
    if method == "t-test":
        return t_test(data.continuous[0], data.continuous[1]).p_value
    if method == "fisher-exact":
        return fisher_exact(TwoByTwoTable.from_binary(data.binary[0], data.binary[1]))
    if method == "chi-square":
        return chi_square_test(TwoByTwoTable.from_binary(data.binary[0], data.binary[1])).p_value
    if method == "log-rank-ttfe":
        return log_rank_test(data.ttfe).p_value
    raise InvalidInputError(f"unknown analysis method {method!r}")


def run_scenario(scenario: Scenario, n_iterations: int, master_seed: int,
                 cell: int = 0) -> list[PowerResult]:
    """Estimate power of every requested method over n_iterations datasets.

    Per-iteration analysis failures (any `WrlabError`) are counted per method
    and never abort the run; any other exception propagates.
    """
    _check_count("n_iterations", n_iterations)
    _check_count("seed", master_seed, 0)
    h = scenario.dgm.hierarchy()
    wr_requested = [m for m in scenario.methods if m in WR_METHODS]
    rejections = {m: 0 for m in scenario.methods}
    degenerate = {m: 0 for m in scenario.methods}
    failures = {m: 0 for m in scenario.methods}
    wr_sum, wr_count = 0.0, 0
    decided_counts = np.zeros(len(h), dtype=np.int64)

    # Generators equal to substream(master_seed, cell, i, arm), arm 0 treatment, 1 control and
    # 2 the bootstrap's: reused, with states derived a chunk of iterations at a time.
    rngs = [np.random.Generator(np.random.PCG64(0))
            for _ in range(3 if "wr-unmatched:bootstrap" in scenario.methods else 2)]
    for i in range(n_iterations):
        if i % _STREAM_CHUNK == 0:
            states = substream_states(master_seed, cell, np.arange(
                i, min(i + _STREAM_CHUNK, n_iterations))[:, None], np.arange(len(rngs)))
        for rng in rngs:
            rng.bit_generator.state = next(states)
        data = scenario.dgm.generate(rngs[0], rngs[1])
        if wr_requested:
            cmp = compare_arms(data.t_cols, data.c_cols, h)
            for k, count in cmp.stats.decided_at_level.items():
                decided_counts[k] += count
            if cmp.stats.n_loss > 0:
                wr_sum += win_ratio(cmp.stats)
                wr_count += 1
        for method in scenario.methods:
            try:
                if method in WR_METHODS:
                    variant = method.split(":", 1)[1] if ":" in method else "score"
                    rng = rngs[2] if variant == "bootstrap" else None
                    reject, degen = _wr_rejection(variant, cmp, scenario.alpha,
                                                  scenario.bootstrap_replicates, rng)
                    rejections[method] += reject
                    degenerate[method] += degen
                else:
                    p = _comparator_pvalue(method, data)
                    rejections[method] += p <= scenario.alpha
            except WrlabError:
                failures[method] += 1

    total_decided = int(decided_counts.sum())
    decided_frac = (tuple(float(c) / total_decided for c in decided_counts)
                    if total_decided else None)
    mean_wr = wr_sum / wr_count if wr_count else None
    results = []
    for method in scenario.methods:
        power = rejections[method] / n_iterations
        is_wr = method in WR_METHODS
        results.append(PowerResult(
            scenario=scenario.name, method=method, power=power,
            mcse=mcse(power, n_iterations), n_iterations=n_iterations,
            n_degenerate=degenerate[method], n_failures=failures[method],
            mean_wr=mean_wr if is_wr else None,
            decided_at_level=decided_frac if is_wr else None,
            factors=dict(scenario.factors)))
    return results


def _workers(threads: int, cells: int) -> int:
    """Worker processes for a grid: no more than its cells or this machine's CPUs."""
    _check_count("threads", threads)
    return min(threads, cells, os.cpu_count() or 1)


def run_grid(scenarios: Sequence[Scenario], n_iterations: int, master_seed: int,
             threads: int = 1) -> list[PowerResult]:
    """Run every scenario cell; output is independent of the worker count."""
    if not scenarios:
        raise InvalidInputError("run_grid: empty scenario grid")
    _check_count("seed", master_seed, 0)
    cells = len(scenarios)
    args = (scenarios, [n_iterations] * cells, [master_seed] * cells, range(cells))
    workers = _workers(threads, cells)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(run_scenario, *args))
    else:
        per_cell = list(map(run_scenario, *args))
    return [r for cell in per_cell for r in cell]


@dataclass(frozen=True)
class Preset:
    scenarios: tuple[Scenario, ...]
    default_iterations: int


def binary_continuous_grid(deltas: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 1.0),
                           p_treatments: Sequence[float] = (0.35, 0.4, 0.5, 0.6, 0.7),
                           orders: Sequence[str] = ("binary-first", "continuous-first"),
                           n_per_arm: int = 20, p_control: float = 0.3,
                           alpha: float = 0.05) -> tuple[Scenario, ...]:
    scenarios = []
    for order in orders:
        if order not in ("binary-first", "continuous-first"):
            raise InvalidInputError(f"orders: unknown order {order!r}")
        for delta in deltas:
            for p_t in p_treatments:
                dgm = BinaryContinuousDgm(p_treatment=p_t, delta=delta,
                                          p_control=p_control, n_per_arm=n_per_arm,
                                          binary_first=(order == "binary-first"))
                scenarios.append(Scenario(
                    name=f"bc_delta{delta}_pt{p_t}_{order}", dgm=dgm,
                    methods=("wr-unmatched", "t-test", "fisher-exact"), alpha=alpha,
                    factors={"delta": delta, "p_t": p_t, "order": order}))
    return tuple(scenarios)


def tte_grid(hazard_ratios: Sequence[float] = (0.35, 0.5, 0.65, 0.8, 0.95),
             n_per_arm: int = 105, alpha: float = 0.05) -> tuple[Scenario, ...]:
    scenarios = []
    for hr_first in hazard_ratios:
        for hr_second in hazard_ratios:
            dgm = TteCompositeDgm(hr_first=hr_first, hr_second=hr_second,
                                  n_per_arm=n_per_arm)
            scenarios.append(Scenario(
                name=f"tte_hrd{hr_first}_hrh{hr_second}", dgm=dgm,
                methods=("wr-unmatched", "log-rank-ttfe"), alpha=alpha,
                factors={"hr_death": hr_first, "hr_hosp": hr_second}))
    return tuple(scenarios)


def iphak_scenario(plan: IphakPlan | None = None, alpha: float = 0.05) -> Scenario:
    # All four WR inference variants run on the same datasets so the study
    # records which one, if any, reproduces the reference power.
    dgm = IphakDgm(plan or IphakPlan())
    return Scenario(name="iphak", dgm=dgm,
                    methods=("wr-unmatched:score", "wr-unmatched:yu",
                             "wr-unmatched:bootstrap", "wr-unmatched:count-wald",
                             "chi-square", "t-test"),
                    alpha=alpha, factors={"n_per_arm": dgm.plan.n_per_arm})


def study_presets() -> dict[str, Preset]:
    """Fully parameterized reproductions of the three reference studies."""
    return {
        "iphak": Preset((iphak_scenario(),), default_iterations=1000),
        "binary-continuous": Preset(binary_continuous_grid(), default_iterations=2500),
        "ttfe-weibull": Preset(tte_grid(), default_iterations=2500),
    }


_RESULT_COLUMNS = ("scenario", "method", "power", "mcse", "n_iterations", "n_degenerate")


def results_to_rows(results: Sequence[PowerResult]) -> tuple[list[str], list[list[object]]]:
    """Long-format header and rows: scenario, factors..., method, power, ..."""
    factor_keys = list(dict.fromkeys(k for r in results for k in r.factors))
    header = ["scenario"] + factor_keys + list(_RESULT_COLUMNS[1:])
    return header, [[r.scenario, *(r.factors.get(k, "") for k in factor_keys), r.method,
                     r.power, r.mcse, r.n_iterations, r.n_degenerate] for r in results]


def results_to_csv(results: Sequence[PowerResult]) -> str:
    header, rows = results_to_rows(results)

    def fmt(v: object) -> str:
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def results_to_json(results: Sequence[PowerResult]) -> str:
    payload = []
    for r in results:
        payload.append({
            "scenario": r.scenario, "method": r.method, "power": r.power,
            "mcse": r.mcse, "n_iterations": r.n_iterations,
            "n_degenerate": r.n_degenerate, "n_failures": r.n_failures,
            "mean_wr": r.mean_wr,
            "decided_at_level": list(r.decided_at_level) if r.decided_at_level else None,
            "factors": dict(r.factors),
        })
    return json.dumps({"schema": "wrlab/results-v1", "results": payload}, indent=2) + "\n"
