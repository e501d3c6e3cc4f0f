"""Rank-based win-ratio power simulation.

Instead of modeling outcome distributions, each iteration assigns the
patients ranks directly: the number of treatment patients landing in the
top (better) half of the rank distribution is drawn from a Fisher
noncentral hypergeometric law, tabulated once per level at the odds that make
its mean match the requested per-level win proportion.
`engine.run_scenario` runs this rank assignment as a data-generating model
and tests the win ratio with its two-sided percentile bootstrap CI.

Supports one or two hierarchy levels; level-one ties are induced by
collapsing a random fraction of adjacent rank pairs to equal values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .core import Direction, Hierarchy, OutcomeKind, OutcomeSpec
from .engine import GeneratedData, PowerResult, Scenario, run_scenario
from .errors import InfeasibleParameterError, InvalidInputError, _check_count, _check_real
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
        for name, least in (("n_t", 1), ("n_c", 1), ("n_bootstrap", 2), ("n_iterations", 1),
                            ("seed", 0)):
            _check_count(name, getattr(self, name), least)
        # A tuple, so that a config given a list still hashes.
        object.__setattr__(self, "phi_win_per_level", tuple(self.phi_win_per_level))
        if not 1 <= len(self.phi_win_per_level) <= 2:
            raise InvalidInputError("phi_win_per_level takes one or two levels")
        for phi in self.phi_win_per_level:
            _check_real("phi_win", phi, 0.0, 1.0)
        _check_real("tie_prob_level1", self.tie_prob_level1, 0.0, 1.0, "[)")
        _check_real("alpha", self.alpha, 0.0, 1.0)


def _top_half(n_total: int) -> int:
    # Odd totals: the top half is the ceil(N/2) best ranks.
    return (n_total + 1) // 2


def _fnch_table(n_t: int, n_c: int) -> tuple[np.ndarray, np.ndarray]:
    """Support k of the treatment count in the top half, and the odds-free log
    weights ln C(top, k) + ln C(bottom, n_t - k) of Fisher's noncentral law."""
    top = _top_half(n_t + n_c)
    bottom = n_t + n_c - top
    ks = np.arange(max(0, n_t - bottom), min(n_t, top) + 1)
    base = np.array([ln_choose(top, k) + ln_choose(bottom, n_t - k) for k in ks])
    return ks, base


def _fnch_probs(ks: np.ndarray, base: np.ndarray, log_omega: float) -> np.ndarray:
    """Fisher noncentral hypergeometric probabilities over the table's support."""
    logw = base + ks * log_omega
    logw -= logw.max()
    probs = np.exp(logw)
    return probs / probs.sum()


def solve_omega(phi_win: float, n_t: int, n_c: int, tol: float = 1e-8) -> float:
    """Odds parameter making the expected top-half share of treatment ranks phi_win.

    The mean is strictly increasing in the odds, so bisection on log(odds)
    converges; shares outside the open support range are infeasible.
    """
    _check_real("phi_win", phi_win, 0.0, 1.0)
    ks, base = _fnch_table(n_t, n_c)
    lo_share, hi_share = int(ks[0]) / n_t, int(ks[-1]) / n_t
    if not lo_share < phi_win < hi_share:
        raise InfeasibleParameterError(
            f"phi_win={phi_win} outside the attainable open range ({lo_share}, {hi_share})")

    def mean_share(log_omega: float) -> float:
        return float((ks * _fnch_probs(ks, base, log_omega)).sum()) / n_t

    lo, hi = -60.0, 60.0
    if not mean_share(lo) < phi_win < mean_share(hi):
        raise InfeasibleParameterError(f"phi_win={phi_win} not attainable for arms {n_t}/{n_c}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        share = mean_share(mid)
        if abs(share - phi_win) <= tol:
            return math.exp(mid)
        if share < phi_win:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def _assign_ranks(law: tuple[np.ndarray, np.ndarray], n_t: int, n_c: int, tie_prob: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One level of rank values for (treatment, control); smaller rank = better.
    The top-half treatment count is drawn from `law`: (support, probabilities)."""
    n_total = n_t + n_c
    top = _top_half(n_total)
    bottom = n_total - top
    x = int(rng.choice(law[0], p=law[1]))
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

    Each level's odds are solved, and its law of the top-half treatment
    count tabulated, once on construction; every dataset draws from those
    tables. Both arms' ranks are drawn jointly from the treatment-arm substream.
    """

    SUPPORTED_COMPARATORS = frozenset()

    cfg: RankSimConfig
    # (support, probabilities) per level: derived from cfg, so not hashed or compared.
    laws: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n_t, n_c = self.cfg.n_t, self.cfg.n_c
        ks, base = _fnch_table(n_t, n_c)
        object.__setattr__(self, "laws", tuple(
            (ks, _fnch_probs(ks, base, math.log(solve_omega(phi, n_t, n_c))))
            for phi in self.cfg.phi_win_per_level))

    def hierarchy(self) -> Hierarchy:
        return rank_hierarchy(len(self.laws))

    def generate(self, rng_t: np.random.Generator, rng_c: np.random.Generator) -> GeneratedData:
        cfg = self.cfg
        levels = [_assign_ranks(law, cfg.n_t, cfg.n_c,
                                cfg.tie_prob_level1 if k == 0 else 0.0, rng_t)
                  for k, law in enumerate(self.laws)]
        return GeneratedData(t_cols=[t for t, _ in levels], c_cols=[c for _, c in levels])


# Trials drawn one by one under a config share its model, so its odds are solved once.
_trial_dgm = lru_cache(maxsize=8)(RankDgm)


def simulate_rank_trial(cfg: RankSimConfig, rng: np.random.Generator
                        ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Rank columns for one simulated trial: ([t per level], [c per level])."""
    data = _trial_dgm(cfg).generate(rng, rng)
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
