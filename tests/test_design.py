import math

import numpy as np
import pytest

from wrlab.design import (mao_power, mao_sample_size, mao_xi0_from_pilot,
                          precision_sample_size, precision_width,
                          tie_sensitivity_table, yu_power, yu_sample_size,
                          yu_sigma_sq)
from wrlab.errors import (InfiniteSampleSizeError, InvalidInputError,
                          UnboundedVarianceError)

from reference_tables import (MAO_EQ_YU, PRECISION_N_08_0, PRECISION_N_08_002,
                              PRECISION_WIDTH_134, YU_N_15_08,
                              YU_POWER_132_510, YU_SIGMA_SQ_HALF_NOTIES)


class TestYuSigma:
    def test_no_ties_balanced(self):
        assert abs(yu_sigma_sq(0.5, 0.0) - YU_SIGMA_SQ_HALF_NOTIES) < 1e-12

    def test_increasing_in_tie_probability(self):
        values = [yu_sigma_sq(0.5, p) for p in (0.0, 0.1, 0.3, 0.6, 0.9)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_minimized_at_balanced_allocation(self):
        center = yu_sigma_sq(0.5, 0.0)
        for p_t in (0.2, 0.35, 0.65, 0.8):
            assert yu_sigma_sq(p_t, 0.0) > center

    def test_unbounded_at_tie_one(self):
        with pytest.raises(UnboundedVarianceError):
            yu_sigma_sq(0.5, 1.0)


class TestYuPower:
    def test_null_wr_gives_half_alpha(self):
        assert abs(yu_power(1.0, 510) - 0.025) < 1e-12

    def test_reference_value(self):
        assert abs(yu_power(1.32, 510, 0.5, 0.0) - YU_POWER_132_510) < 1e-9

    def test_monotone_in_n(self):
        powers = [yu_power(1.3, n) for n in (50, 100, 200, 400, 800)]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_as_written_is_one_tailed(self):
        # WR below one gives near-zero power as written; the symmetric
        # variant evaluates at |log WR|.
        low = yu_power(1 / 1.5, 200)
        assert low < 0.025
        assert abs(yu_power(1 / 1.5, 200, variant="symmetric")
                   - yu_power(1.5, 200)) < 1e-12

    def test_one_sided_uses_alpha(self):
        assert yu_power(1.3, 300, sidedness="one-sided") > yu_power(1.3, 300)


class TestYuSampleSize:
    def test_reference_value(self):
        size = yu_sample_size(1.5, 0.8, 0.5, 0.0, 0.05)
        assert abs(size.unrounded - YU_N_15_08) < 1e-6
        assert size.total == 256
        assert size.n_treatment == size.n_control == 128

    def test_power_roundtrip_meets_request(self):
        for wr in (1.1, 1.3, 1.5, 2.0):
            for beta in (0.1, 0.2):
                size = yu_sample_size(wr, 1 - beta)
                achieved = yu_power(wr, size.total)
                assert achieved >= 1 - beta
                # rounding slack only
                assert yu_power(wr, size.unrounded) == pytest.approx(1 - beta, abs=1e-9)

    def test_scaling_in_log_wr(self):
        n1 = yu_sample_size(math.exp(0.1), 0.8).unrounded
        n2 = yu_sample_size(math.exp(0.4), 0.8).unrounded
        assert abs(n1 / n2 - 16.0) < 1e-9

    def test_infinite_at_null(self):
        with pytest.raises(InfiniteSampleSizeError):
            yu_sample_size(1.0, 0.8)

    def test_allocation_rounding(self):
        size = yu_sample_size(1.5, 0.8, p_t=1 / 3)
        assert size.n_treatment == math.ceil(size.unrounded / 3 - 1e-12)
        assert size.n_control >= size.n_treatment


class TestPrecision:
    def test_worked_example(self):
        size = precision_sample_size(0.8, 0.5, 0.02, 0.05)
        assert abs(size.unrounded - PRECISION_N_08_002) < 1e-6
        assert size.n_treatment == size.n_control == 67
        assert size.total == 134

    def test_no_tie_variant(self):
        size = precision_sample_size(0.8, 0.5, 0.0, 0.05)
        assert abs(size.unrounded - PRECISION_N_08_0) < 1e-6
        assert size.n_treatment == 65

    def test_width_reference(self):
        assert abs(precision_width(134, 0.5, 0.02) - PRECISION_WIDTH_134) < 1e-9

    def test_width_roundtrip(self):
        for width in (0.3, 0.5, 0.8, 1.2):
            size = precision_sample_size(width, 0.5, 0.05)
            assert precision_width(size.total, 0.5, 0.05) <= width + 1e-12

    def test_quadrupling_n_halves_width(self):
        w1 = precision_width(100)
        w2 = precision_width(400)
        assert abs(w1 / w2 - 2.0) < 1e-12

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            precision_sample_size(0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name, call", [
    ("wr", lambda v: yu_power(v, 200)), ("n_total", lambda v: yu_power(1.5, v)),
    ("wr", lambda v: yu_sample_size(v, 0.8)), ("n_total", lambda v: precision_width(v)),
    ("width", lambda v: precision_sample_size(v)),
    ("wr", lambda v: mao_power(200, v, 0.3, 0.5)),
    ("n_total", lambda v: mao_power(v, 1.5, 0.3, 0.5)),
    ("xi0_sq", lambda v: mao_sample_size(1.5, 0.8, v, 0.5)),
])
def test_non_finite_input_named(name, call, value):
    with pytest.raises(InvalidInputError, match=f"^{name} must be finite and >=? "):
        call(value)


class TestMao:
    def test_agrees_with_yu_at_standard_rank_inputs(self):
        for wr, expected in MAO_EQ_YU.items():
            mao = mao_sample_size(wr, 0.8, xi0_sq=1 / 3, w0=0.5, p_c=0.5)
            yu = yu_sample_size(wr, 0.8, 0.5, 0.0)
            assert abs(mao.unrounded - expected) < 1e-6
            assert abs(mao.unrounded - yu.unrounded) < 1.0

    def test_power_increasing_in_n(self):
        powers = [mao_power(n, 1.5, 1 / 3, 0.5) for n in (50, 100, 200, 400)]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_doubling_xi0_doubles_n(self):
        n1 = mao_sample_size(1.5, 0.8, xi0_sq=1 / 3, w0=0.5).unrounded
        n2 = mao_sample_size(1.5, 0.8, xi0_sq=2 / 3, w0=0.5).unrounded
        assert abs(n2 / n1 - 2.0) < 1e-12

    def test_infinite_at_null(self):
        with pytest.raises(InfiniteSampleSizeError):
            mao_sample_size(1.0, 0.8, xi0_sq=1 / 3, w0=0.5)


class TestXi0FromPilot:
    def test_constant_sample(self):
        xi0_sq, w0 = mao_xi0_from_pilot([3.0] * 10)
        assert xi0_sq == 0.0 and w0 == 0.0

    def test_two_point_sample(self):
        xi0_sq, w0 = mao_xi0_from_pilot([0.0] * 5 + [1.0] * 5)
        assert abs(xi0_sq - 0.25) < 1e-12
        # strict wins: 25 ordered pairs out of 10*9
        assert abs(w0 - 25 / 90) < 1e-12

    def test_continuous_limit(self):
        rng = np.random.default_rng(17)
        xi0_sq, w0 = mao_xi0_from_pilot(rng.normal(0, 1, 100000))
        assert abs(xi0_sq - 1 / 3) < 0.01
        assert abs(w0 - 0.5) < 0.01

    def test_matches_quadratic_enumeration(self):
        rng = np.random.default_rng(18)
        y = np.round(rng.normal(0, 1, 40), 1)  # force some ties
        xi0_sq, w0 = mao_xi0_from_pilot(y)
        n = len(y)
        r = np.array([((y > v).sum() - (y < v).sum()) / n for v in y])
        assert abs(xi0_sq - np.mean(r * r)) < 1e-12
        wins = sum((y[j] > y[i]) for i in range(n) for j in range(n) if i != j)
        assert abs(w0 - wins / (n * (n - 1))) < 1e-12


class TestTieSensitivityTable:
    GRID_N = (50.0, 150.0, 500.0)
    GRID_WR = (1.5, 1.75, 2.0)
    GRID_TIE = tuple(np.arange(0.0, 0.91, 0.1))

    def test_shape_and_monotonicity(self):
        rows = tie_sensitivity_table(self.GRID_N, self.GRID_WR, self.GRID_TIE)
        assert len(rows) == 3 * 3 * len(self.GRID_TIE)
        for n in self.GRID_N:
            for wr in self.GRID_WR:
                cell = [r["power"] for r in rows
                        if r["n_total"] == n and r["wr"] == wr]
                assert all(a > b for a, b in zip(cell, cell[1:]))

    def test_zero_tie_column_matches_direct_calls(self):
        rows = tie_sensitivity_table(self.GRID_N, self.GRID_WR, (0.0,))
        for r in rows:
            assert r["power"] == yu_power(r["wr"], r["n_total"], 0.5, 0.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            tie_sensitivity_table([], self.GRID_WR, self.GRID_TIE)
