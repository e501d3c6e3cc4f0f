"""Distribution kernels: normal CDF/quantile, t and chi-square CDFs, hypergeometric PMF.

Self-contained double-precision implementations built on the regularized
incomplete gamma and beta functions (series expansions plus Lentz continued
fractions), so numerical accuracy is testable against fixed high-precision
reference tables without external dependencies.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EPS = 3e-16
_FPMIN = 1e-300
_MAX_ITER = 500


def norm_cdf(x: float) -> float:
    """Standard normal CDF Phi(x) = erfc(-x/sqrt(2)) / 2."""
    if math.isnan(x):
        raise InvalidInputError("norm_cdf: x must not be NaN")
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_sf(x: float) -> float:
    """Upper tail 1 - Phi(x), accurate for large x."""
    return 0.5 * math.erfc(x / _SQRT2)


# Acklam's rational approximation for the normal quantile; one Halley
# refinement step brings the result to full double precision.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)


def norm_ppf(p: float) -> float:
    """Standard normal quantile Phi^{-1}(p) for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"norm_ppf: p must be in (0, 1), got {p}")
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    # Halley refinement against the erfc-based CDF.
    e = norm_cdf(x) - p
    u = e * _SQRT_2PI * math.exp(0.5 * x * x)
    x -= u / (1.0 + 0.5 * x * u)
    return x


def _gamma_series(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) by series; requires x < a + 1."""
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) by Lentz continued fraction."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gammainc(a: float, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)): the expansion that converges gives one side, 1 minus it the other."""
    if a <= 0.0 or x < 0.0:
        raise InvalidInputError(f"gammainc: need a > 0 and x >= 0, got a={a}, x={x}")
    if x == 0.0:
        return 0.0, 1.0
    if x < a + 1.0:
        p = _gamma_series(a, x)
        return p, 1.0 - p
    q = _gamma_cf(a, x)
    return 1.0 - q, q


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise InvalidInputError(f"betainc_reg: a, b must be > 0, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise InvalidInputError(f"betainc_reg: x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log1p(-x))
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _beta_cf(a, b, x) / a
    return 1.0 - bt * _beta_cf(b, a, 1.0 - x) / b


def t_cdf(x: float, df: float) -> float:
    """CDF of Student's t with df degrees of freedom (df may be non-integer)."""
    return t_sf(-x, df)


def t_sf(x: float, df: float) -> float:
    """Upper tail of Student's t, without cancellation for large x."""
    if df <= 0.0:
        raise InvalidInputError(f"t: df must be > 0, got {df}")
    if math.isnan(x):
        raise InvalidInputError("t: x must not be NaN")
    if math.isinf(x):
        return 0.0 if x > 0 else 1.0
    ib = betainc_reg(0.5 * df, 0.5, df / (df + x * x))
    return 0.5 * ib if x >= 0.0 else 1.0 - 0.5 * ib


def _chi2(x: float, df: float) -> tuple[float, float]:
    """(CDF, upper tail) of the chi-square distribution with df degrees of freedom."""
    if df <= 0.0:
        raise InvalidInputError(f"chi2: df must be > 0, got {df}")
    return (0.0, 1.0) if x < 0.0 else _gammainc(0.5 * df, 0.5 * x)


def chi2_cdf(x: float, df: float) -> float:
    """CDF of the chi-square distribution with df degrees of freedom."""
    return _chi2(x, df)[0]


def chi2_sf(x: float, df: float) -> float:
    """Upper tail of the chi-square distribution, accurate for large x."""
    return _chi2(x, df)[1]


def ln_choose(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k)."""
    if k < 0 or k > n or n < 0:
        raise InvalidInputError(f"ln_choose: need 0 <= k <= n, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeom_pmf(k: int, pop: int, successes: int, draws: int) -> float:
    """P(X = k) for X ~ Hypergeometric(pop, successes, draws).

    k successes in `draws` draws without replacement from a population of
    size `pop` containing `successes` marked items.
    """
    if pop < 0 or not 0 <= successes <= pop or not 0 <= draws <= pop:
        raise InvalidInputError(
            f"hypergeom_pmf: invalid parameters pop={pop}, successes={successes}, draws={draws}")
    lo = max(0, draws + successes - pop)
    hi = min(draws, successes)
    if k < lo or k > hi:
        return 0.0
    return math.exp(ln_choose(successes, k) + ln_choose(pop - successes, draws - k)
                    - ln_choose(pop, draws))


def hypergeom_support(pop: int, successes: int, draws: int) -> range:
    """Support of the hypergeometric distribution as a range object."""
    return range(max(0, draws + successes - pop), min(draws, successes) + 1)
