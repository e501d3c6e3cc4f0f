import math

import pytest

from wrlab.errors import InvalidInputError
from wrlab.kernels import (chi2_cdf, chi2_sf, hypergeom_pmf, hypergeom_support,
                           norm_cdf, norm_ppf, t_cdf, t_sf)

from reference_tables import CHI2_CDF, HYPERGEOM_PMF, NORMAL_CDF, NORMAL_PPF, T_CDF


@pytest.mark.parametrize("x,expected", NORMAL_CDF)
def test_norm_cdf_reference(x, expected):
    assert abs(norm_cdf(x) - expected) < 1e-10


@pytest.mark.parametrize("p,expected", NORMAL_PPF)
def test_norm_ppf_reference(p, expected):
    assert abs(norm_ppf(p) - expected) < 1e-8


@pytest.mark.parametrize("x,df,expected", T_CDF)
def test_t_cdf_reference(x, df, expected):
    assert abs(t_cdf(x, df) - expected) < 1e-10


@pytest.mark.parametrize("x,df,expected", CHI2_CDF)
def test_chi2_cdf_reference(x, df, expected):
    assert abs(chi2_cdf(x, df) - expected) < 1e-10


@pytest.mark.parametrize("k,pop,succ,draws,expected", HYPERGEOM_PMF)
def test_hypergeom_pmf_reference(k, pop, succ, draws, expected):
    assert abs(hypergeom_pmf(k, pop, succ, draws) - expected) < 1e-12


def test_norm_cdf_symmetry():
    assert norm_cdf(0.0) == 0.5
    for x in (0.3, 1.7, 4.2):
        assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) < 1e-15


def test_ppf_cdf_roundtrip():
    x = -6.0
    while x <= 6.0:
        assert abs(norm_ppf(norm_cdf(x)) - x) < 1e-8
        x += 0.25


def test_sf_complements():
    for x in (-3.0, 0.0, 1.5, 8.0):
        assert abs(norm_cdf(x) + (0.5 * math.erfc(x / math.sqrt(2))) - 1.0) < 1e-15
    assert abs(t_cdf(2.0, 7.0) + t_sf(2.0, 7.0) - 1.0) < 1e-14
    assert abs(chi2_cdf(5.0, 3.0) + chi2_sf(5.0, 3.0) - 1.0) < 1e-14


def test_t_cdf_symmetry_and_limits():
    assert t_cdf(0.0, 11.0) == 0.5
    assert abs(t_cdf(1.3, 9.0) + t_cdf(-1.3, 9.0) - 1.0) < 1e-14
    # Wide df approaches the normal
    assert abs(t_cdf(1.0, 1e7) - norm_cdf(1.0)) < 1e-6


def test_hypergeom_pmf_normalizes():
    total = sum(hypergeom_pmf(k, 20, 10, 10) for k in hypergeom_support(20, 10, 10))
    assert abs(total - 1.0) < 1e-12
    assert hypergeom_pmf(11, 20, 10, 10) == 0.0


def test_domain_errors():
    with pytest.raises(InvalidInputError):
        norm_ppf(0.0)
    with pytest.raises(InvalidInputError):
        norm_ppf(1.0)
    with pytest.raises(InvalidInputError):
        t_cdf(1.0, 0.0)
    with pytest.raises(InvalidInputError):
        chi2_cdf(1.0, -2.0)
    with pytest.raises(InvalidInputError):
        t_sf(math.nan, 3.0)
    with pytest.raises(InvalidInputError):
        hypergeom_pmf(1, 10, 12, 5)
