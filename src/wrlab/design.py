"""Closed-form power, sample-size and precision calculators for the win ratio.

Three families:
  * approximate-variance method (sigma^2 from allocation and tie probability),
  * rank-variance method (xi0^2 and null win proportion, pilot-estimable),
  * precision-based sizing for a target CI width of log(WR).

The approximate-variance power formula is exposed exactly as published,
1 - Phi(Z_{1-a/2} - log(WR) sqrt(N)/sigma), which captures a single tail;
pass variant="symmetric" to evaluate it at |log WR| (max of the two tails)
when working with WR < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import _lex_ranks
from .errors import (InfiniteSampleSizeError, InvalidInputError,
                     UnboundedVarianceError, _check_real)
from .kernels import norm_cdf, norm_ppf


@dataclass(frozen=True)
class SampleSize:
    unrounded: float
    n_treatment: int
    n_control: int

    @property
    def total(self) -> int:
        return self.n_treatment + self.n_control


def _z_alpha(alpha: float, sidedness: str) -> float:
    _check_real("alpha", alpha, 0.0, 1.0)
    if sidedness == "two-sided":
        return norm_ppf(1.0 - alpha / 2.0)
    if sidedness == "one-sided":
        return norm_ppf(1.0 - alpha)
    raise InvalidInputError(f"sidedness must be 'two-sided' or 'one-sided', got {sidedness!r}")


def yu_sigma_sq(p_t: float, p_tie: float) -> float:
    """sigma^2 = 4 (1 + p_tie) / (3 p_t (1 - p_t) (1 - p_tie))."""
    _check_real("p_t", p_t, 0.0, 1.0)
    _check_real("p_tie", p_tie, 0.0, ends="[)")
    if p_tie >= 1.0:
        raise UnboundedVarianceError(f"tie probability {p_tie} >= 1: variance unbounded")
    return 4.0 * (1.0 + p_tie) / (3.0 * p_t * (1.0 - p_t) * (1.0 - p_tie))


def yu_power(wr: float, n_total: float, p_t: float = 0.5, p_tie: float = 0.0,
             alpha: float = 0.05, sidedness: str = "two-sided",
             variant: str = "as-written") -> float:
    """Power of the log-WR Wald test under the approximate variance."""
    _check_real("wr", wr, 0.0)
    _check_real("n_total", n_total, 2.0, ends="[)")
    if variant not in ("as-written", "symmetric"):
        raise InvalidInputError(f"variant must be 'as-written' or 'symmetric', got {variant!r}")
    log_wr = math.log(wr)
    if variant == "symmetric":
        log_wr = abs(log_wr)
    sigma = math.sqrt(yu_sigma_sq(p_t, p_tie))
    return 1.0 - norm_cdf(_z_alpha(alpha, sidedness) - log_wr * math.sqrt(n_total) / sigma)


def _split_arms(n_unrounded: float, p_t: float) -> SampleSize:
    # Per-arm ceilings, so each arm gets an integer size at the requested ratio.
    n_t = math.ceil(n_unrounded * p_t - 1e-12)
    n_c = math.ceil(n_unrounded * (1.0 - p_t) - 1e-12)
    return SampleSize(unrounded=n_unrounded, n_treatment=n_t, n_control=n_c)


def yu_sample_size(wr: float, power: float, p_t: float = 0.5, p_tie: float = 0.0,
                   alpha: float = 0.05, sidedness: str = "two-sided") -> SampleSize:
    """Total sample size N = sigma^2 (Z_{1-a/2} + Z_{1-b})^2 / log(WR)^2."""
    _check_real("wr", wr, 0.0)
    if wr == 1.0:
        raise InfiniteSampleSizeError("wr = 1: required sample size is infinite")
    _check_real("power", power, 0.0, 1.0)
    z_a = _z_alpha(alpha, sidedness)
    z_b = norm_ppf(power)
    n = yu_sigma_sq(p_t, p_tie) * (z_a + z_b) ** 2 / math.log(wr) ** 2
    return _split_arms(n, p_t)


def precision_width(n_total: float, p_t: float = 0.5, p_tie: float = 0.0,
                    alpha: float = 0.05) -> float:
    """Expected total width of the two-sided Wald CI for log(WR)."""
    _check_real("n_total", n_total, 2.0, ends="[)")
    z = _z_alpha(alpha, "two-sided")
    return 2.0 * z * math.sqrt(yu_sigma_sq(p_t, p_tie) / n_total)


def precision_sample_size(width: float, p_t: float = 0.5, p_tie: float = 0.0,
                          alpha: float = 0.05) -> SampleSize:
    """N = 16 Z_{1-a/2}^2 (1 + p_tie) / (3 p_t (1 - p_t)(1 - p_tie) width^2).

    Independent of the anticipated WR by construction.
    """
    _check_real("width", width, 0.0)
    z = _z_alpha(alpha, "two-sided")
    n = 4.0 * z * z * yu_sigma_sq(p_t, p_tie) / (width * width)
    return _split_arms(n, p_t)


def _check_mao(wr: float, xi0_sq: float, w0: float) -> None:
    _check_real("xi0_sq", xi0_sq, 0.0)
    _check_real("w0", w0, 0.0, 1.0, "(]")
    _check_real("wr", wr, 0.0)


def mao_power(n_total: float, wr: float, xi0_sq: float, w0: float,
              p_c: float = 0.5, alpha: float = 0.05) -> float:
    """Power via the rank-variance method:
    Phi(W0 log(WR) sqrt(p_c (1-p_c) N) / xi0 - Z_{1-a/2})."""
    _check_mao(wr, xi0_sq, w0)
    _check_real("n_total", n_total, 2.0, ends="[)")
    _check_real("p_c", p_c, 0.0, 1.0)
    z_a = _z_alpha(alpha, "two-sided")
    ncp = w0 * math.log(wr) * math.sqrt(p_c * (1.0 - p_c) * n_total) / math.sqrt(xi0_sq)
    return norm_cdf(ncp - z_a)


def mao_sample_size(wr: float, power: float, xi0_sq: float, w0: float,
                    p_c: float = 0.5, alpha: float = 0.05) -> SampleSize:
    """N = xi0^2 (Z_{1-b} + Z_{1-a/2})^2 / (p_c (1-p_c) W0^2 log(WR)^2)."""
    _check_mao(wr, xi0_sq, w0)
    if wr == 1.0:
        raise InfiniteSampleSizeError("wr = 1: required sample size is infinite")
    _check_real("power", power, 0.0, 1.0)
    _check_real("p_c", p_c, 0.0, 1.0)
    z_a = _z_alpha(alpha, "two-sided")
    z_b = norm_ppf(power)
    n = xi0_sq * (z_b + z_a) ** 2 / (p_c * (1.0 - p_c) * w0 * w0 * math.log(wr) ** 2)
    return _split_arms(n, 1.0 - p_c)


def mao_xi0_from_pilot(sample: Sequence[float]) -> tuple[float, float]:
    """Plug-in (xi0^2, W0) from a pilot outcome sample.

    The generalized rank of y_i is R(y_i) = (#{y_j > y_i} - #{y_j < y_i}) / n;
    xi0^2 is the mean of R^2 and W0 the strict-win fraction among ordered
    i != j pairs (ties excluded from the numerator only).
    """
    y = np.asarray(sample, dtype=np.float64)
    if y.ndim != 1 or y.size < 2:
        raise InvalidInputError("pilot sample must be one-dimensional with >= 2 values")
    if not np.all(np.isfinite(y)):
        raise InvalidInputError("pilot sample must be finite")
    n = y.size
    _, n_lt, n_gt = _lex_ranks([y])
    r = (n_gt - n_lt) / n
    xi0_sq = float(np.mean(r * r))
    w0 = float(n_gt.sum() / (n * (n - 1)))
    return xi0_sq, w0


def tie_sensitivity_table(n_totals: Iterable[float], wrs: Iterable[float],
                          p_ties: Iterable[float], alpha: float = 0.05
                          ) -> list[dict[str, float]]:
    """Power over the (N, WR, p_tie) grid, long format (one row per cell)."""
    n_totals = list(n_totals)
    wrs = list(wrs)
    p_ties = list(p_ties)
    if not n_totals or not wrs or not p_ties:
        raise InvalidInputError("tie_sensitivity_table: grids must be non-empty")
    rows = []
    for n in n_totals:
        for wr in wrs:
            for p_tie in p_ties:
                rows.append({"n_total": float(n), "wr": float(wr), "p_tie": float(p_tie),
                             "power": yu_power(wr, n, 0.5, p_tie, alpha)})
    return rows
