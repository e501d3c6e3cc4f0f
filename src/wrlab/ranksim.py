"""Rank-based win-ratio power simulation.

Instead of modeling outcome distributions, each iteration assigns the
patients ranks directly: the number of treatment patients landing in the
top (better) half of the rank distribution is drawn from a Fisher
noncentral hypergeometric distribution whose odds parameter is solved, once
per level, so that its mean matches the requested per-level win proportion.
`engine.run_scenario` runs this rank assignment as a data-generating model
and tests the win ratio with its two-sided percentile bootstrap CI.

Supports one or two hierarchy levels; level-one ties are induced by
collapsing a random fraction of adjacent rank pairs to equal values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Direction, Hierarchy, OutcomeKind, OutcomeSpec
from .engine import GeneratedData, PowerResult, Scenario, run_scenario
from .errors import InfeasibleParameterError, InvalidInputError
from .kernels import ln_choose


@dataclass(frozen=True)
class RankSimConfig:
    n_t: int
    n_c: int
    phi_win_per_level: tuple[float, ...]
    tie_prob_level1: float = 0.0
    n_bootstrap: int = 500
    n_iterations: int = 1000
    alpha: float = 0.05
    seed: int = 123456789

    def __post_init__(self) -> None:
        if self.n_t < 1 or self.n_c < 1:
            raise InvalidInputError("arm sizes must be >= 1")
        if not 1 <= len(self.phi_win_per_level) <= 2:
            raise InvalidInputError("phi_win_per_level takes one or two levels")
        for phi in self.phi_win_per_level:
            if not 0.0 < phi < 1.0:
                raise InvalidInputError(f"phi_win must be in (0, 1), got {phi}")
        if not 0.0 <= self.tie_prob_level1 < 1.0:
            raise InvalidInputError(f"tie_prob_level1 must be in [0, 1), got {self.tie_prob_level1}")
        if self.n_bootstrap < 2:
            raise InvalidInputError("n_bootstrap must be >= 2")
        if self.n_iterations < 1:
            raise InvalidInputError("n_iterations must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidInputError(f"alpha must be in (0, 1), got {self.alpha}")


def _top_half(n_total: int) -> int:
    # Odd totals: the top half is the ceil(N/2) best ranks.
    return (n_total + 1) // 2


def _fnch_probs(log_omega: float, top: int, bottom: int, n_draw: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Support and probabilities of the Fisher noncentral hypergeometric count."""
    lo = max(0, n_draw - bottom)
    hi = min(n_draw, top)
    ks = np.arange(lo, hi + 1)
    logw = np.array([ln_choose(top, k) + ln_choose(bottom, n_draw - k) + k * log_omega
                     for k in ks])
    logw -= logw.max()
    probs = np.exp(logw)
    probs /= probs.sum()
    return ks, probs


def _fnch_mean_share(log_omega: float, top: int, bottom: int, n_draw: int) -> float:
    ks, probs = _fnch_probs(log_omega, top, bottom, n_draw)
    return float((ks * probs).sum()) / n_draw


def solve_omega(phi_win: float, n_t: int, n_c: int, tol: float = 1e-8) -> float:
    """Odds parameter making the expected top-half share of treatment ranks phi_win.

    The mean is strictly increasing in the odds, so bisection on log(odds)
    converges; shares outside the open support range are infeasible.
    """
    if not 0.0 < phi_win < 1.0:
        raise InvalidInputError(f"phi_win must be in (0, 1), got {phi_win}")
    n_total = n_t + n_c
    top = _top_half(n_total)
    bottom = n_total - top
    lo_share = max(0, n_t - bottom) / n_t
    hi_share = min(n_t, top) / n_t
    if not lo_share < phi_win < hi_share:
        raise InfeasibleParameterError(
            f"phi_win={phi_win} outside the attainable open range ({lo_share}, {hi_share})")
    lo, hi = -60.0, 60.0
    if not _fnch_mean_share(lo, top, bottom, n_t) < phi_win < _fnch_mean_share(hi, top, bottom, n_t):
        raise InfeasibleParameterError(f"phi_win={phi_win} not attainable for arms {n_t}/{n_c}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        share = _fnch_mean_share(mid, top, bottom, n_t)
        if abs(share - phi_win) <= tol:
            return math.exp(mid)
        if share < phi_win:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def _sample_top_count(log_omega: float, top: int, bottom: int, n_draw: int,
                      rng: np.random.Generator) -> int:
    ks, probs = _fnch_probs(log_omega, top, bottom, n_draw)
    return int(rng.choice(ks, p=probs))


def _assign_ranks(log_omega: float, n_t: int, n_c: int, tie_prob: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One level of rank values for (treatment, control); smaller rank = better."""
    n_total = n_t + n_c
    top = _top_half(n_total)
    bottom = n_total - top
    x = _sample_top_count(log_omega, top, bottom, n_t, rng)
    ranks_top = rng.choice(top, size=x, replace=False) + 1
    ranks_bottom = rng.choice(bottom, size=n_t - x, replace=False) + top + 1
    t_ranks = np.concatenate([ranks_top, ranks_bottom])
    mask = np.ones(n_total + 1, dtype=bool)
    mask[0] = False
    mask[t_ranks] = False
    c_ranks = np.nonzero(mask)[0]
    values = np.arange(n_total + 1, dtype=np.float64)
    if tie_prob > 0.0:
        # Collapse disjoint adjacent rank pairs (2i-1, 2i) to a shared value.
        pairs = np.nonzero(rng.random(n_total // 2) < tie_prob)[0]
        values[2 * pairs + 2] = values[2 * pairs + 1]
    return values[t_ranks], values[c_ranks]


def rank_hierarchy(n_levels: int) -> Hierarchy:
    return Hierarchy(tuple(OutcomeSpec(name=f"rank{k + 1}", kind=OutcomeKind.CONTINUOUS,
                                       direction=Direction.LOWER)
                           for k in range(n_levels)))


@dataclass(frozen=True)
class RankDgm:
    """Rank assignment as a data-generating model for `engine.run_scenario`.

    Each level's odds are solved once, on construction. Both arms' ranks are
    drawn jointly from the treatment-arm substream.
    """

    SUPPORTED_COMPARATORS = frozenset()

    cfg: RankSimConfig
    log_omegas: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "log_omegas", tuple(
            math.log(solve_omega(phi, self.cfg.n_t, self.cfg.n_c))
            for phi in self.cfg.phi_win_per_level))

    def hierarchy(self) -> Hierarchy:
        return rank_hierarchy(len(self.log_omegas))

    def generate(self, rng_t: np.random.Generator, rng_c: np.random.Generator) -> GeneratedData:
        cfg = self.cfg
        levels = [_assign_ranks(log_omega, cfg.n_t, cfg.n_c,
                                cfg.tie_prob_level1 if k == 0 else 0.0, rng_t)
                  for k, log_omega in enumerate(self.log_omegas)]
        return GeneratedData(t_cols=[t for t, _ in levels], c_cols=[c for _, c in levels])


def simulate_rank_trial(cfg: RankSimConfig, rng: np.random.Generator
                        ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Rank columns for one simulated trial: ([t per level], [c per level])."""
    data = RankDgm(cfg).generate(rng, rng)
    return data.t_cols, data.c_cols


def ranksim_power(cfg: RankSimConfig) -> PowerResult:
    """Rejection rate of the bootstrap-CI win-ratio test over simulated ranks."""
    scenario = Scenario(
        name="ranksim", dgm=RankDgm(cfg),
        methods=("wr-unmatched:bootstrap",), alpha=cfg.alpha,
        bootstrap_replicates=cfg.n_bootstrap,
        factors={"n_t": cfg.n_t, "n_c": cfg.n_c, "phi_win": list(cfg.phi_win_per_level),
                 "tie_prob_level1": cfg.tie_prob_level1})
    [result] = run_scenario(scenario, cfg.n_iterations, cfg.seed)
    return replace(result, method="ranksim-bootstrap")
