"""Inference for the win ratio: Wald/Wilson intervals, log-WR test, bootstrap.

The count-based variance of log(WR) assumes independent comparison pairs,
which holds for matched pairings; for unmatched tallies, where the N_T x N_C
pairs share patients, use `yu_wald_test` (approximate-variance Wald) or
`bootstrap_wr`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import design
from .core import (ArmComparison, Hierarchy, LevelColumn, PatientRecord, WinStats,
                   compare_arms, split_dataset, win_ratio)
from .errors import (AllTiesError, DegenerateCountsError, InvalidInputError, _check_count,
                     _check_real)
from .kernels import norm_ppf, norm_sf
from .stattests import TestResult


@dataclass(frozen=True)
class InferenceResult:
    estimate: float          # WR scale
    log_estimate: float
    se_log: float
    ci: tuple[float, float]  # on the estimate scale
    z: float
    p_value: float
    alpha: float
    method: str              # wald-log | wilson-backtransform | wald-phi-backtransform
    #                          | yu-approx | bootstrap
    flags: tuple[str, ...] = ()
    n_degenerate: int = 0


def phi_win(s: WinStats) -> float:
    """Proportion of wins among informative (non-tied) comparisons."""
    if s.n_informative == 0:
        raise AllTiesError("all comparisons tied; win proportion undefined")
    return s.n_win / s.n_informative


def var_phi(s: WinStats) -> float:
    p = phi_win(s)
    return p * (1.0 - p) / s.n_informative


def var_wr_delta(s: WinStats) -> float:
    """Delta-method variance of the WR: phi / ((1-phi)^3 * (N_W + N_L))."""
    p = phi_win(s)
    if p >= 1.0:
        return math.inf
    return p / ((1.0 - p) ** 3 * s.n_informative)


def var_log_wr(s: WinStats) -> float:
    """Count-based variance of log(WR): 1 / (phi (1-phi) (N_W + N_L))."""
    p = phi_win(s)
    if p <= 0.0 or p >= 1.0:
        return math.inf
    return 1.0 / (p * (1.0 - p) * s.n_informative)


def _phi_to_wr(x: float) -> float:
    if x >= 1.0:
        return math.inf
    return max(x, 0.0) / (1.0 - max(x, 0.0))


def infer_phi(s: WinStats, alpha: float = 0.05, ci_method: str = "wilson") -> InferenceResult:
    """CI for phi_win (Wald or Wilson), back-transformed to the WR scale.

    The z statistic tests phi = 1/2, i.e. WR = 1. Wald degenerates when
    phi is 0 or 1 (flagged); the Wilson interval remains valid there.
    """
    _check_real("alpha", alpha, 0.0, 1.0)
    if ci_method not in ("wald", "wilson"):
        raise InvalidInputError(f"ci_method must be 'wald' or 'wilson', got {ci_method!r}")
    p = phi_win(s)
    m = s.n_informative
    z_crit = norm_ppf(1.0 - alpha / 2.0)
    se = math.sqrt(p * (1.0 - p) / m)
    flags: tuple[str, ...] = ()
    if ci_method == "wald":
        if se == 0.0:
            flags = ("degenerate-wald",)
            lo = hi = p
        else:
            lo, hi = p - z_crit * se, p + z_crit * se
    else:
        z2 = z_crit * z_crit
        center = (p + z2 / (2.0 * m)) / (1.0 + z2 / m)
        half = (z_crit / (1.0 + z2 / m)) * math.sqrt(p * (1.0 - p) / m + z2 / (4.0 * m * m))
        lo, hi = center - half, center + half
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    z = math.inf if se == 0.0 else (p - 0.5) / se
    p_value = min(1.0, 2.0 * norm_sf(abs(z))) if math.isfinite(z) else 0.0
    wr = _phi_to_wr(p)
    method = "wald-phi-backtransform" if ci_method == "wald" else "wilson-backtransform"
    return InferenceResult(
        estimate=wr,
        log_estimate=math.log(wr) if 0.0 < wr < math.inf else (-math.inf if wr == 0 else math.inf),
        se_log=math.sqrt(var_log_wr(s)),
        ci=(_phi_to_wr(lo), _phi_to_wr(hi)),
        z=z, p_value=p_value, alpha=alpha, method=method, flags=flags)


def _log_wald(s: WinStats, wr0: float, alpha: float,
              var_log: Callable[[WinStats], float], method: str) -> InferenceResult:
    """Wald test of WR = wr0 on the log scale, with the caller's Var(log WR)."""
    _check_real("alpha", alpha, 0.0, 1.0)
    _check_real("wr0", wr0, 0.0)
    if s.n_win == 0 or s.n_loss == 0:
        raise DegenerateCountsError(
            "zero wins or losses: log-WR Wald inference is undefined; use bootstrap_wr")
    wr = win_ratio(s)
    log_wr = math.log(wr)
    se_log = math.sqrt(var_log(s))
    z = (log_wr - math.log(wr0)) / se_log
    half = norm_ppf(1.0 - alpha / 2.0) * se_log
    return InferenceResult(estimate=wr, log_estimate=log_wr, se_log=se_log,
                           ci=(math.exp(log_wr - half), math.exp(log_wr + half)),
                           z=z, p_value=min(1.0, 2.0 * norm_sf(abs(z))),
                           alpha=alpha, method=method)


def wald_test_log_wr(s: WinStats, wr0: float = 1.0, alpha: float = 0.05) -> InferenceResult:
    """Wald test of WR = wr0 on the log scale with the count-based variance.

    Default inference for matched tallies (independent pairs).
    """
    return _log_wald(s, wr0, alpha, var_log_wr, "wald-log")


def _yu_var_log(s: WinStats) -> float:
    n_total = s.n_treatment + s.n_control
    return design.yu_sigma_sq(s.n_treatment / n_total, s.n_tie / s.n_pairs) / n_total


def yu_wald_test(s: WinStats, wr0: float = 1.0, alpha: float = 0.05) -> InferenceResult:
    """Wald test of WR = wr0 using the approximate variance of log(WR).

    Plugs the observed tie proportion and allocation into
    sigma^2 = 4(1 + p_tie) / (3 p_t (1 - p_t)(1 - p_tie)), with
    Var(log WR) = sigma^2 / N_total. Default inference for unmatched tallies.
    """
    if s.pairing != "unmatched":
        raise InvalidInputError("yu_wald_test applies to unmatched tallies")
    return _log_wald(s, wr0, alpha, _yu_var_log, "yu-approx")


def _percentile_p(replicates: np.ndarray, null_value: float) -> float:
    """Two-sided percentile-inversion p-value against a null point."""
    below = float(np.mean(replicates <= null_value))
    above = float(np.mean(replicates >= null_value))
    return min(1.0, 2.0 * min(below, above))


def _replicate_tallies(cmp: ArmComparison, b: int, rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Wins and losses of b within-arm patient resamples, from the weighted cross counts.

    Each arm draws n iid uniform indices per replicate (treatment first): their
    counts are Multinomial(n, 1/n), and weighting each pair by the product of
    its patients' counts gives exactly the tally of the resampled patients."""
    mult_t, mult_c = (np.bincount((rng.integers(0, n, (b, n)) + np.arange(0, b * n, n)[:, None])
                                  .ravel(), minlength=b * n).reshape(b, n)
                      for n in (cmp.u_t.size, cmp.u_c.size))
    return tuple(np.einsum("ij,ij->i", mult_t, side) for side in cmp.against(mult_c))


def bootstrap_verdicts(cmp: ArmComparison, b: int, alpha: float,
                       rng: np.random.Generator | int | None) -> InferenceResult:
    """Bootstrap WR inference on one dataset's cross-arm comparison.

    Resamples patients with replacement within each arm and builds a
    percentile CI at level alpha. `rng` is a Generator or a seed for it.
    """
    _check_real("alpha", alpha, 0.0, 1.0)
    _check_count("b", b, 2)
    if rng is not None and not isinstance(rng, np.random.Generator):
        _check_count("seed", rng, 0)
    wins, losses = _replicate_tallies(cmp, b, np.random.default_rng(rng))
    valid = losses > 0  # a replicate without losses has no finite WR
    n_valid = int(valid.sum())
    flags = ("degenerate-replicates",) if b - n_valid > 0.2 * b or n_valid < 2 else ()
    wr = win_ratio(cmp.stats)
    if n_valid >= 2:
        wr_b = wins[valid] / losses[valid]
        ci = (float(np.quantile(wr_b, alpha / 2.0)), float(np.quantile(wr_b, 1.0 - alpha / 2.0)))
        positive = wr_b[wr_b > 0]
        se_log = float(np.log(positive).std(ddof=1)) if positive.size >= 2 else math.inf
        p_value = _percentile_p(wr_b, 1.0)
    else:
        ci, se_log, p_value = (wr, wr), math.inf, 1.0
    log_wr = math.log(wr) if wr > 0.0 else -math.inf
    z = log_wr / se_log if se_log > 0 and math.isfinite(log_wr) else math.copysign(
        math.inf, log_wr)
    return InferenceResult(estimate=wr, log_estimate=log_wr, se_log=se_log, ci=ci,
                           z=z, p_value=p_value, alpha=alpha, method="bootstrap",
                           flags=flags, n_degenerate=b - n_valid)


def bootstrap_wr(dataset: Iterable[PatientRecord], h: Hierarchy, b: int = 1000,
                 alpha: float = 0.05, seed: int | None = None) -> InferenceResult:
    """Bootstrap WR inference for a record-level dataset (unmatched pairing)."""
    return bootstrap_verdicts(compare_arms(*split_dataset(dataset, h), h), b, alpha, seed)


def score_test_verdicts(cmp: ArmComparison) -> TestResult:
    """Permutation-variance score test of no treatment effect.

    Scores every patient by net pairwise beats over the pooled sample; the
    statistic is the treatment-arm score sum, which equals N_win - N_loss,
    with its exact arm-relabeling variance n_t n_c sum(u^2) / (N (N - 1)).
    Unlike the Wald tests on log(WR), the statistic is linear in the
    comparisons, so its normal approximation holds at small arm sizes.
    """
    u_t, u_c = cmp.u_t, cmp.u_c
    n_t, n_c = u_t.size, u_c.size
    n = n_t + n_c
    statistic = float(u_t.sum())  # = N_win - N_loss over cross-arm pairs
    sum_sq = float((u_t * u_t).sum() + (u_c * u_c).sum())
    if sum_sq == 0.0:
        raise AllTiesError("no score variation across patients; score test undefined")
    variance = n_t * n_c * sum_sq / (n * (n - 1))
    z = statistic / math.sqrt(variance)
    return TestResult(statistic=z, p_value=min(1.0, 2.0 * norm_sf(abs(z))))


def score_test_columns(t_cols: Sequence[LevelColumn], c_cols: Sequence[LevelColumn],
                       h: Hierarchy) -> TestResult:
    """Permutation-variance score test on columnar arm data."""
    return score_test_verdicts(compare_arms(t_cols, c_cols, h))


def score_test(dataset: Iterable[PatientRecord], h: Hierarchy) -> TestResult:
    """Permutation-variance score test for a record-level dataset."""
    return score_test_columns(*split_dataset(dataset, h), h)
