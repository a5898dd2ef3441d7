"""Infinite-lattice free energy, its field derivative, the constrained
ratios, series summation, and the first-order law."""

import functools
import math

import pytest
from references import (
    lerch_tail_series,
    mp_derivative,
    mp_free_energy,
    mp_zb_ratio,
    series_head,
)

from vertex_expand.integrals import (
    FirstOrderResult,
    baxter_free_energy,
    baxter_series,
    dF0_dbetas,
    first_order_free_energy,
    za_ratio,
    zb_ratio,
)

#: the critical point, the band next to it, and points well away from it
MPMATH_POINTS = (0.0, 0.001, -0.001, 0.002, -0.002, 0.004, -0.004,
                 0.01, -0.01, 0.1, 0.5, 1.5)

#: fields below 1e-3, where the log-series in tanh 2 beta_s carries F0
TINY_FIELDS = (1e-300, 1e-7, 1e-6, 1e-4, 3e-4)

#: |beta_s| on 0.15 .. 0.30 and on both sides of the switch between the two
#: series, tanh^2 2 beta_s = 1/2 at |beta_s| = ln(1 + sqrt 2)/2 = 0.4407
SWITCH_GRID = tuple(round(0.01 * i, 2)
                    for i in list(range(15, 31)) + list(range(40, 49)))


#: 0 .. 1.5 in steps of 0.025, then fields next to the critical point:
#: 7.4e-9 is about the largest |beta_s| at which cosh 2 beta_s rounds to 1
SERIES_GRID = tuple(0.025 * i for i in range(61)) + tuple(
    s * b for b in (1e-300, 7.4e-9, 1e-8, 1e-6, 1e-4, 0.001, 0.0025, 0.005,
                    0.01, 0.0125, 0.02) for s in (1.0, -1.0))


@functools.cache
def _mp_free_energy(beta_s):
    return mp_free_energy(beta_s)


class TestAgainstMpmath:
    def test_critical_value_correctly_rounded(self):
        # 2G/pi - ln(2)/2 = 0.23654821778166490557...
        assert baxter_free_energy(0.0) == 0.2365482177816649

    @pytest.mark.parametrize("beta_s", MPMATH_POINTS)
    def test_free_energy(self, beta_s):
        assert abs(baxter_free_energy(beta_s)
                   - mp_free_energy(beta_s)) <= 1e-15

    @pytest.mark.parametrize("beta_s", MPMATH_POINTS)
    def test_derivative(self, beta_s):
        assert abs(dF0_dbetas(beta_s) - mp_derivative(beta_s)) <= 1e-15

    @pytest.mark.parametrize("beta_s", MPMATH_POINTS)
    def test_constrained_ratios(self, beta_s):
        assert abs(zb_ratio(beta_s) - mp_zb_ratio(beta_s)) <= 1e-15
        assert abs(za_ratio(beta_s) - mp_zb_ratio(-beta_s)) <= 1e-15

    @pytest.mark.parametrize("beta_s,value", [(8.0, 4.009527226371569e-29),
                                              (20.0, 8.143721330518803e-71)])
    def test_reference_zb_ratio_at_large_field(self, beta_s, value):
        # the reference's bracket cancels about 1.74 beta_s digits; the
        # values are mpmath's at 150 digits
        assert abs(float(mp_zb_ratio(beta_s)) / value - 1) <= 1e-14

    @pytest.mark.parametrize("beta_s", TINY_FIELDS)
    def test_free_energy_at_tiny_field(self, beta_s):
        assert abs(baxter_free_energy(beta_s)
                   - mp_free_energy(beta_s)) <= 1e-16

    @pytest.mark.parametrize("beta_s", SWITCH_GRID)
    def test_across_the_series_switch(self, beta_s):
        f0, d = baxter_free_energy(beta_s), dF0_dbetas(beta_s)
        assert baxter_free_energy(-beta_s) == f0
        assert dF0_dbetas(-beta_s) == -d
        assert abs(f0 - mp_free_energy(beta_s)) <= 1e-15
        assert abs(d - mp_derivative(beta_s)) <= 1e-15
        for bs in (beta_s, -beta_s):
            assert abs(zb_ratio(bs) - mp_zb_ratio(bs)) <= 1e-15
            assert abs(za_ratio(bs) - mp_zb_ratio(-bs)) <= 1e-15

    def test_derivative_below_underflow_of_parameter(self):
        # tanh^2(2 beta_s) underflows to 0 here, leaving the n = 0 term
        # ln(4/t) of the log-series
        t = math.tanh(2e-200)
        assert dF0_dbetas(1e-200) == pytest.approx(
            2.0 / math.pi * t * math.log(4.0 / t), rel=1e-15)
        assert zb_ratio(-1e-200) == 0.25


class TestFreeEnergy:
    # Correctly rounded references from mpmath at 40 digits: 2G/pi - ln(2)/2
    # (G = Catalan's constant) = 0.23654821778166490557... at beta_s = 0, and
    # (1/2)<arccosh(2 cosh 2 beta_s + cos u)>_u - (1/2) ln 2 elsewhere:
    # 0.53331044624567856784... and 1.00456855354474819342...
    @pytest.mark.parametrize("beta_s,expected", [
        (0.0, 0.2365482177816649),
        (0.5, 0.5333104462456786),
        (1.0, 1.0045685535447482),
    ])
    def test_frozen_values(self, beta_s, expected):
        assert baxter_free_energy(beta_s) == pytest.approx(
            expected, abs=1e-12)

    # at 0.01, 0.05 and 0.2 the quadrature side runs the tau log-series and
    # the series tail carries weight; at 0.5 and 1.0 both sides sum the
    # same k^2 series
    @pytest.mark.parametrize("beta_s", [0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0])
    def test_series_matches_quadrature(self, beta_s):
        quad = baxter_free_energy(beta_s)
        val, bound = baxter_series(beta_s, 2000)
        assert abs(quad - val) < 1e-12
        assert abs(quad - val) < 100.0 * bound + 1e-13

    def test_even_in_beta_s(self):
        assert baxter_free_energy(0.3) == pytest.approx(
            baxter_free_energy(-0.3), abs=1e-12)

    def test_series_bound_holds(self):
        # the Lerch tail is slow at small n_max, so n_max = 1 .. 30 run on
        # three fields: the critical point, next to it, and the worst of
        # [0, 1.5] for n_max = 1
        for n_max in [*range(1, 31), 2000]:
            fields = SERIES_GRID if n_max == 2000 else (0.0, 0.0025, 1.45)
            for beta_s in fields:
                value, bound = baxter_series(beta_s, n_max)
                assert abs(value - _mp_free_energy(beta_s)) <= bound, (
                    n_max, beta_s)
                # the rounding of cosh 2 beta_s moves F0 by up to K/pi ulp,
                # above 1e-15 only where K > 13.4, 7e-9 < |beta_s| < 3e-6
                if n_max == 2000 and not 1e-9 < abs(beta_s) < 3e-6:
                    assert bound < 1e-15, beta_s

    def test_series_needs_terms(self):
        with pytest.raises(ValueError):
            baxter_series(0.5, 0)

    @pytest.mark.parametrize("n_max", [1, 2000])
    def test_series_at_nan_is_nan(self, n_max):
        assert all(math.isnan(x) for x in baxter_series(math.nan, n_max))

    def test_large_field_asymptote(self):
        # F0 -> beta_s as the staggered field freezes the lattice
        assert baxter_free_energy(4.0) == pytest.approx(
            4.0, abs=1e-3)


def _underflow_field(n_max):
    """The least beta_s >= 0 at which z^(n_max + 1) == 0.0 with
    z = sech^2 2 beta_s as ``baxter_series`` forms it, by bisection to
    adjacent floats."""
    def underflows(beta_s):
        ch = math.cosh(2.0 * beta_s)
        return (1.0 / (ch * ch)) ** (n_max + 1) == 0.0
    lo, hi = 0.0, 300.0
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if underflows(mid) else (mid, hi)
    return hi


class TestSeriesTail:
    """Where z^(n_max + 1) underflows to 0.0, every Lerch tail term of
    ``baxter_series`` is +-0.0 and the tails are skipped."""

    def test_underflow_field(self):
        assert _underflow_field(2000) == 0.3146653689372126
        # with n_max <= 10 the tail underflows only past the frozen cutoff
        # |beta_s| = 10, where the series returns |beta_s|
        assert _underflow_field(1) > _underflow_field(10) > 10.0

    @pytest.mark.parametrize("n_max", [1, 10, 2000])
    def test_equals_the_full_tail(self, n_max):
        edge = min(_underflow_field(n_max), 10.0)
        fields = [0.0, 0.05, 0.1, 0.5, 1.0, math.nextafter(edge, 0.0)]
        if edge < 10.0:
            fields.append(edge)
        for beta_s in (s * b for b in fields for s in (1.0, -1.0)):
            assert repr(baxter_series(beta_s, n_max)) == repr(
                lerch_tail_series(beta_s, n_max)), beta_s

    @pytest.mark.parametrize("beta_s", [0.5, -0.5, 1.0, -1.0])
    def test_value_is_the_head_where_the_tail_underflows(self, beta_s):
        assert baxter_series(beta_s, 2000)[0] == series_head(beta_s, 2000)


class TestFrozenField:
    """Past |beta_s| ~ 355, cosh 2 beta_s overflows a double; F0 tends to
    |beta_s|, dF0/d beta_s to sign(beta_s), Z_a/Z_0 and Z_b/Z_0 to 0 or 1."""

    @pytest.mark.parametrize("beta_s", [355.0, -355.0, 400.0, -400.0,
                                        1e300, -1e300])
    def test_no_overflow(self, beta_s):
        sign = math.copysign(1.0, beta_s)
        assert baxter_free_energy(beta_s) == abs(beta_s)
        value, bound = baxter_series(beta_s, 2000)
        assert value == abs(beta_s) and math.isfinite(bound)
        assert dF0_dbetas(beta_s) == sign
        assert zb_ratio(beta_s) == (1.0 - sign) ** 2 / 4.0
        assert za_ratio(beta_s) == (1.0 + sign) ** 2 / 4.0
        res = first_order_free_energy(beta_s, 0.1)
        assert res.f0 == res.free_energy == abs(beta_s)

    @pytest.mark.parametrize("beta_s", [8.0, 9.99, 10.0, -10.0, 12.0])
    def test_both_sides_of_frozen_cutoff(self, beta_s):
        # F0 - |beta_s| = e^{-4 |beta_s|}/4 + ... is 3.2e-15 at 8 and
        # below half an ulp from about 9.5 on
        assert abs(baxter_free_energy(beta_s)
                   - mp_free_energy(beta_s)) <= 1e-15
        assert abs(baxter_series(beta_s, 2000)[0]
                   - mp_free_energy(beta_s)) <= 1e-15
        assert abs(zb_ratio(beta_s) - mp_zb_ratio(beta_s)) <= 1e-15


class TestDerivative:
    def test_odd_and_zero_at_origin(self):
        assert dF0_dbetas(0.0) == 0.0
        assert dF0_dbetas(0.5) == pytest.approx(
            -dF0_dbetas(-0.5), abs=1e-12)

    def test_frozen_value(self):
        assert dF0_dbetas(0.5) == pytest.approx(
            0.8686652547100346, abs=1e-12)

    def test_matches_finite_difference(self):
        h = 1e-5
        fd = (baxter_free_energy(0.5 + h)
              - baxter_free_energy(0.5 - h)) / (2.0 * h)
        assert dF0_dbetas(0.5) == pytest.approx(fd, abs=1e-8)

    def test_saturates_at_one(self):
        assert dF0_dbetas(4.0) == pytest.approx(1.0, abs=1e-3)


class TestConstrainedRatios:
    def test_zb_at_origin_exact(self):
        assert zb_ratio(0.0) == pytest.approx(0.25, abs=1e-12)

    def test_frozen_values(self):
        assert zb_ratio(0.5) == pytest.approx(
            0.004312203830095016, abs=1e-12)
        assert za_ratio(0.5) == pytest.approx(
            0.8729774585401282, abs=1e-12)

    def test_field_reversal_relation(self):
        assert za_ratio(0.3) == pytest.approx(
            zb_ratio(-0.3), abs=1e-14)

    def test_bounded_probabilities(self):
        for bs in (0.0, 0.25, 1.0):
            for ratio in (za_ratio(bs), zb_ratio(bs)):
                assert 0.0 < ratio < 1.0


class TestFirstOrder:
    @pytest.mark.parametrize("beta_s", [0.0, 0.25, 0.5, 1.0])
    def test_identity(self, beta_s):
        lhs = -(1.0 - za_ratio(beta_s) - zb_ratio(beta_s))
        d = dF0_dbetas(beta_s)
        assert lhs == pytest.approx(0.5 * (d * d - 1.0), abs=1e-9)

    def test_result_structure(self):
        res = first_order_free_energy(0.5, 0.01)
        assert isinstance(res, FirstOrderResult)
        assert res.coefficient_constrained == pytest.approx(
            res.coefficient_derivative, abs=1e-9)
        assert res.free_energy == pytest.approx(
            res.f0 + 0.01 * res.coefficient_derivative, rel=1e-14)

    def test_coefficient_at_origin(self):
        # za = zb = 1/4 and dF0 = 0 make the coefficient exactly -1/2
        res = first_order_free_energy(0.0, 0.0)
        assert res.coefficient_derivative == pytest.approx(-0.5, abs=1e-9)
