"""Exact rational series machinery."""

import math
from fractions import Fraction as Q

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    differentiate,
    paper_b2_series,
    paper_singular_betas_series,
    paper_singular_t_series,
    pi_rational_float,
    t_of_betas,
    u_p_singular,
)

from vertex_expand.errors import VertexExpandError
from vertex_expand.series import (
    LogSeries,
    PiRational,
    RationalSeries,
    b2_series,
    bernoulli_numbers,
    singular_betas_series,
    singular_t_series,
    stirling_correction,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def horner(series, x):
    """The truncated series summed at a float x."""
    acc = 0.0
    for c in reversed(series.coeffs):
        acc = acc * x + float(c)
    return acc


def series_st(max_order=5):
    return st.builds(
        RationalSeries,
        st.lists(rationals, min_size=1, max_size=max_order + 1))


class TestPiRational:
    def test_product_and_float(self):
        x = PiRational(Q(-8), 1)
        sq = x * x
        assert sq == PiRational(Q(64), 2)
        assert pi_rational_float(sq) == pytest.approx(64.0 / math.pi ** 2,
                                                      rel=1e-15)

    def test_str_and_json(self):
        assert str(PiRational(Q(3, 2))) == "3/2"
        assert str(PiRational(Q(-8), 1)) == "(-8)/pi"
        assert PiRational(Q(8), 2).as_json() == {
            "rational": "8", "pi_power": 2}

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PiRational(Q(1), -1)


class TestRationalSeries:
    def test_getitem_bounds(self):
        s = RationalSeries([1, 2, 3])
        assert s[2] == 3
        with pytest.raises(IndexError):
            s[3]

    def test_truncation_tracks_min_order(self):
        a = RationalSeries([1, 1, 1], 2)
        b = RationalSeries([1, 1], 1)
        assert (a + b).order == 1
        assert (a * b).order == 1

    def test_compose_requires_zero_constant(self):
        a = RationalSeries([1, 1], 1)
        with pytest.raises(VertexExpandError, match="must vanish at 0"):
            a.compose(RationalSeries([1, 1], 1))

    def test_exp_requires_zero_constant(self):
        with pytest.raises(VertexExpandError, match="zero constant term"):
            RationalSeries([1], 0).exp()

    def test_reciprocal_of_zero_constant(self):
        with pytest.raises(VertexExpandError, match="constant term is zero"):
            RationalSeries([0, 1], 1).reciprocal()

    def test_exp_log_roundtrip(self):
        # exp(ln(1+x)) = 1 + x
        ln1p = RationalSeries([Q(0)] + [Q((-1) ** (j + 1), j)
                                        for j in range(1, 9)], 8)
        assert ln1p.exp() == RationalSeries([1, 1], 8)

    def test_compose_valuation_keeps_high_orders(self):
        # outer tracked to x^2 only, but inner = y^2 means the composition
        # is reliable through y^5.
        outer = RationalSeries([0, 1, 1], 2)
        inner = RationalSeries.monomial(2, 1, 8)
        assert outer.compose(inner).order == 5

    @given(series_st(), series_st(), series_st())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        k = min(a.order, b.order, c.order)
        lhs = (a + b) * c
        rhs = a * c + b * c
        assert lhs.coeffs[:k + 1] == rhs.coeffs[:k + 1]

    @given(series_st(), series_st())
    @settings(max_examples=60, deadline=None)
    def test_product_rule(self, a, b):
        lhs = differentiate(a * b)
        rhs = differentiate(a) * b + a * differentiate(b)
        # degree min(order) of the product is truncated away, so only
        # strictly lower derivative degrees are comparable
        k = min(a.order, b.order) - 1
        if k >= 0:
            assert lhs.coeffs[:k + 1] == rhs.coeffs[:k + 1]

    @given(series_st())
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_inverts(self, a):
        if a.coeffs[0] == 0:
            with pytest.raises(VertexExpandError,
                               match="constant term is zero"):
                a.reciprocal()
        else:
            assert a * a.reciprocal() == RationalSeries([1], a.order)

    @given(series_st(3), series_st(3))
    @settings(max_examples=40, deadline=None)
    def test_chain_rule(self, f, g):
        g = RationalSeries((Q(0),) + g.coeffs[1:], g.order)
        lhs = differentiate(f.compose(g))
        rhs = differentiate(f).compose(g) * differentiate(g)
        k = min(lhs.order, rhs.order)
        assert lhs.coeffs[:k + 1] == rhs.coeffs[:k + 1]


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli_numbers(5) == [
            Q(1, 6), Q(-1, 30), Q(1, 42), Q(-1, 30), Q(5, 66)]

    def test_cap(self):
        with pytest.raises(ValueError):
            bernoulli_numbers(33)


class TestStirlingBracket:
    def test_frozen_coefficients(self):
        assert list(stirling_correction(3).coeffs) == [
            Q(1), Q(-1, 4), Q(1, 32), Q(1, 128)]

    def test_matches_central_binomial(self):
        # [(2n)!/(4^n n!^2)]^2 pi n -> bracket(1/n) asymptotically
        n = 400
        c = math.comb(2 * n, n) / 4.0 ** n
        exact = c * c * math.pi * n
        approx = horner(stirling_correction(5), 1.0 / n)
        assert abs(exact - approx) < 1e-13


class TestSingularSeries:
    def test_u_p_recurrence_structure(self):
        assert u_p_singular(1).singular == RationalSeries([-1], 0)
        assert u_p_singular(2).singular == RationalSeries([0, 1], 1)
        assert u_p_singular(3).singular == RationalSeries([0, 0, -Q(1, 2)], 2)
        with pytest.raises(ValueError):
            u_p_singular(0)

    def test_t_map(self):
        ts = t_of_betas(8)
        assert ts[2] == 4 and ts[4] == Q(-8, 3) and ts[6] == Q(128, 45)
        # numeric agreement with 2 ln cosh 2x
        x = 0.05
        assert horner(ts, x) == pytest.approx(
            2.0 * math.log(math.cosh(2.0 * x)), rel=1e-12)
        with pytest.raises(ValueError):
            t_of_betas(7)

    def test_singular_t_series_frozen(self):
        fst = singular_t_series(4)
        assert fst.scale == PiRational(Q(-1, 4), 1)
        assert fst.log_label == "ln t"
        assert list(fst.singular.coeffs) == [
            Q(0), Q(1), Q(1, 8), Q(1, 192), Q(-1, 3072)]

    def test_singular_betas_series_frozen(self):
        sng = singular_betas_series(8)
        assert sng.scale == PiRational(Q(-2), 1)
        assert sng.log_label == "ln|beta_s|"
        assert [sng.singular[d] for d in (2, 4, 6, 8)] == [
            Q(1), Q(-1, 6), Q(23, 180), Q(-593, 5040)]
        assert all(sng.singular[d] == 0 for d in (0, 1, 3, 5, 7))

    def test_b2_series_frozen(self):
        b2 = b2_series(6)
        assert b2.scale == PiRational(Q(8), 2)
        assert b2.log_label == "ln^2|beta_s|"
        assert [b2.singular[d] for d in (2, 4, 6)] == [
            Q(1), Q(-2, 3), Q(79, 90)]

    def test_b2_is_derivative_square_of_sng(self):
        g = singular_betas_series(8).singular
        gp = differentiate(g)
        sq = gp * gp
        b2 = b2_series(6)
        for d in range(b2.singular.order + 1):
            assert b2.coefficient(d) == PiRational(2 * sq[d], 2)

    def test_log_series_coefficient_folds_scale(self):
        sng = singular_betas_series(4)
        assert sng.coefficient(2) == PiRational(Q(-2), 1)
        assert sng.coefficient(4) == PiRational(Q(1, 3), 1)


class TestAgainstPaperAssembly:
    """The a_n^2 generating series against the paper's Stirling assembly
    (``tests/references.py``), exactly, at every order the latter reaches."""

    @pytest.mark.parametrize("order", range(9))
    def test_t_series(self, order):
        assert singular_t_series(order) == paper_singular_t_series(order)

    @pytest.mark.parametrize("order", range(0, 9, 2))
    def test_betas_series(self, order):
        assert singular_betas_series(order) == paper_singular_betas_series(order)

    @pytest.mark.parametrize("order", range(0, 7, 2))
    def test_b2_series(self, order):
        assert b2_series(order) == paper_b2_series(order)


class TestAgainstClosedForm:
    """Past the paper's orders: Taylor coefficients of the closed forms
    g'(x) = tau (2/pi) K(tau^2) and g'^2/4, tau = tanh 2x, from mpmath's
    numerical differentiation at 40 digits."""

    @staticmethod
    def assert_close(exact, approx):
        for d, (q, c) in enumerate(zip(exact, approx)):
            ref = mpmath.mpf(q.numerator) / q.denominator
            assert abs(c - ref) <= 1e-25 * (abs(ref) if q else 1), d

    @staticmethod
    def slope(x):
        tau = mpmath.tanh(2 * x)
        return tau * 2 / mpmath.pi * mpmath.ellipk(tau ** 2)

    def test_betas_series_to_order_12(self):
        with mpmath.workdps(40):
            taylor = mpmath.taylor(self.slope, 0, 11)
            g = singular_betas_series(12).singular
            assert g[0] == 0
            self.assert_close(g.coeffs[1:],
                              [c / (d + 1) for d, c in enumerate(taylor)])

    def test_b2_series_to_order_10(self):
        with mpmath.workdps(40):
            taylor = mpmath.taylor(lambda x: self.slope(x) ** 2 / 4, 0, 10)
            self.assert_close(b2_series(10).singular.coeffs, taylor)
