"""Two-sample comparator tests: t, Fisher exact, chi-square, log-rank."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, UndefinedStatisticError, _check_count
from .kernels import chi2_sf, hypergeom_pmf, hypergeom_support, t_sf


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    df: float | None = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class TwoByTwoTable:
    """Counts with rows = arms (treatment, control), columns = outcome levels."""

    a: int  # treatment, first outcome level
    b: int  # treatment, second outcome level
    c: int  # control, first outcome level
    d: int  # control, second outcome level

    def __post_init__(self) -> None:
        for name in "abcd":
            _check_count(name, getattr(self, name), 0)
        if self.a + self.b + self.c + self.d < 1:
            raise InvalidInputError("table total must be >= 1")

    @classmethod
    def from_binary(cls, treatment: Sequence[float], control: Sequence[float]) -> "TwoByTwoTable":
        t = np.asarray(treatment)
        c = np.asarray(control)
        return cls(a=int((t == 1).sum()), b=int((t == 0).sum()),
                   c=int((c == 1).sum()), d=int((c == 0).sum()))


@dataclass(frozen=True)
class SurvivalSample:
    """Right-censored two-arm survival data."""

    times: np.ndarray
    events: np.ndarray       # True = event observed, False = censored
    in_treatment: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        e = np.asarray(self.events, dtype=bool)
        g = np.asarray(self.in_treatment, dtype=bool)
        if not (t.shape == e.shape == g.shape) or t.ndim != 1:
            raise InvalidInputError("times, events, in_treatment must be 1-D and equal length")
        if not np.all(np.isfinite(t)) or np.any(t < 0):
            raise InvalidInputError("survival times must be finite and nonnegative")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "events", e)
        object.__setattr__(self, "in_treatment", g)


def t_test(x: Sequence[float], y: Sequence[float], variant: str = "welch") -> TestResult:
    """Two-sided two-sample t test; Welch by default, or pooled variance."""
    if variant not in ("welch", "pooled"):
        raise InvalidInputError(f"variant must be 'welch' or 'pooled', got {variant!r}")
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size < 2 or ya.size < 2:
        raise InvalidInputError("each sample needs >= 2 observations")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise InvalidInputError("samples must be finite")
    n1, n2 = xa.size, ya.size
    m1, m2 = float(xa.mean()), float(ya.mean())
    v1 = float(xa.var(ddof=1))
    v2 = float(ya.var(ddof=1))
    if v1 == 0.0 and v2 == 0.0:
        if m1 == m2:
            return TestResult(0.0, 1.0, float(n1 + n2 - 2), flags=("zero-variance",))
        return TestResult(math.inf if m1 > m2 else -math.inf, 0.0,
                          float(n1 + n2 - 2), flags=("zero-variance",))
    if variant == "welch":
        se2 = v1 / n1 + v2 / n2
        df = se2 * se2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    else:
        vp = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)
        se2 = vp * (1.0 / n1 + 1.0 / n2)
        df = float(n1 + n2 - 2)
    stat = (m1 - m2) / math.sqrt(se2)
    return TestResult(stat, min(1.0, 2.0 * t_sf(abs(stat), df)), df)


@lru_cache(maxsize=1 << 16)
def _fisher_p(a: int, b: int, c: int, d: int) -> float:
    n1 = a + b
    k = a + c
    n = a + b + c + d
    if n1 == 0 or c + d == 0 or k == 0 or b + d == 0:
        return 1.0
    p_obs = hypergeom_pmf(a, n, k, n1)
    # Two-sided by the "at most as probable" rule, with a relative tolerance
    # so exactly-equal probabilities on the other tail are always included.
    total = 0.0
    for j in hypergeom_support(n, k, n1):
        pj = hypergeom_pmf(j, n, k, n1)
        if pj <= p_obs * (1.0 + 1e-7):
            total += pj
    if total > 1.0 - 1e-12:  # full support included; absorb rounding
        return 1.0
    return total


def fisher_exact(table: TwoByTwoTable) -> float:
    """Two-sided Fisher exact p-value, conditional on both margins."""
    return _fisher_p(table.a, table.b, table.c, table.d)


def chi_square_test(table: TwoByTwoTable, continuity_correction: bool = False) -> TestResult:
    """Pearson chi-square test on a 2x2 table (optional Yates correction)."""
    a, b, c, d = table.a, table.b, table.c, table.d
    n = a + b + c + d
    r1, r2, c1, c2 = a + b, c + d, a + c, b + d
    if 0 in (r1, r2, c1, c2):
        return TestResult(0.0, 1.0, 1.0, flags=("zero-margin",))
    num = abs(a * d - b * c)
    if continuity_correction:
        num = max(0.0, num - n / 2.0)
    stat = n * num * num / (r1 * r2 * c1 * c2)
    return TestResult(stat, chi2_sf(stat, 1.0), 1.0)


def log_rank_test(sample: SurvivalSample) -> TestResult:
    """Two-group log-rank (Cox score) test with hypergeometric tie handling."""
    times, events, grp = sample.times, sample.events, sample.in_treatment
    if not events.any():
        raise UndefinedStatisticError("log-rank needs at least one event")
    if grp.all() or not grp.any():
        raise UndefinedStatisticError("log-rank needs patients in both arms")
    event_times = np.unique(times[events])
    sorted_all = np.sort(times)
    sorted_t = np.sort(times[grp])
    # Risk sets: everyone whose observed time is >= the event time.
    n_at_risk = times.size - np.searchsorted(sorted_all, event_times, side="left")
    n1_at_risk = sorted_t.size - np.searchsorted(sorted_t, event_times, side="left")
    # Events at each distinct event time, overall and in the treatment arm.
    ev_sorted = np.sort(times[events])
    d_total = (np.searchsorted(ev_sorted, event_times, side="right")
               - np.searchsorted(ev_sorted, event_times, side="left"))
    ev_t_sorted = np.sort(times[events & grp])
    d_treat = (np.searchsorted(ev_t_sorted, event_times, side="right")
               - np.searchsorted(ev_t_sorted, event_times, side="left"))
    frac = n1_at_risk / n_at_risk
    observed_minus_expected = float((d_treat - d_total * frac).sum())
    with np.errstate(invalid="ignore", divide="ignore"):
        var_terms = np.where(n_at_risk > 1,
                             d_total * frac * (1.0 - frac)
                             * (n_at_risk - d_total) / np.maximum(n_at_risk - 1, 1),
                             0.0)
    variance = float(var_terms.sum())
    if variance <= 0.0:
        raise UndefinedStatisticError("log-rank variance is zero; statistic undefined")
    stat = observed_minus_expected * observed_minus_expected / variance
    return TestResult(stat, chi2_sf(stat, 1.0), 1.0)
