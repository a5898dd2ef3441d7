"""Renormalization exponent and the first-order amplitude cross-check."""

import json
import math
from fractions import Fraction as Q

import pytest
from references import pi_rational_float

from vertex_expand.coulomb import (
    KT_BETA_EPS,
    VerificationReport,
    exponent_u_expansion,
    exponent_u_slope,
    j_of_betaeps,
    singular_exponent,
    verify_first_order,
)
from vertex_expand.errors import BadInput
from vertex_expand.model import FREE_FERMION_BETA_EPS
from vertex_expand.series import PiRational


class TestCoupling:
    def test_free_fermion_point(self):
        assert j_of_betaeps(FREE_FERMION_BETA_EPS) == pytest.approx(
            math.pi / 4, abs=1e-15)

    def test_kt_threshold(self):
        assert KT_BETA_EPS == 0.5 * math.log(2.0 - math.sqrt(2.0))
        assert j_of_betaeps(KT_BETA_EPS) == pytest.approx(
            math.pi / 8, abs=1e-14)

    def test_uncoupled_limit(self):
        assert j_of_betaeps(0.0) == pytest.approx(math.pi / 6, abs=1e-15)

    def test_domain(self):
        with pytest.raises(BadInput, match="above ln 2"):
            j_of_betaeps(1.0)
        # exp(2 beta_eps) would overflow
        with pytest.raises(BadInput, match="above ln 2"):
            j_of_betaeps(1e300)
        # boundary of the domain itself is fine
        assert j_of_betaeps(0.5 * math.log(4.0)) == pytest.approx(
            math.pi / 2, abs=1e-12)


class TestExponent:
    def test_exact_at_free_fermion(self):
        assert singular_exponent(FREE_FERMION_BETA_EPS) == 2.0

    def test_diverges_at_and_below_kt(self):
        assert math.isinf(singular_exponent(KT_BETA_EPS))
        assert math.isinf(singular_exponent(KT_BETA_EPS - 0.5))

    def test_finite_above_kt(self):
        assert singular_exponent(0.0) == pytest.approx(4.0, abs=1e-13)

    def test_monotone_decreasing(self):
        grid = [KT_BETA_EPS + 0.05 * k for k in range(1, 12)]
        vals = [singular_exponent(b) for b in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestExpansion:
    def test_frozen_coefficients(self):
        exp = exponent_u_expansion(3)
        assert exp[0] == {0: Q(2)}
        assert exp[1] == {1: Q(-8)}
        assert exp[2] == {2: Q(64), 1: Q(-8)}
        assert exp[3] == {3: Q(-512), 2: Q(128), 1: Q(-32, 3)}

    def test_slope_exact(self):
        assert exponent_u_slope() == PiRational(Q(-8), 1)

    def test_matches_finite_difference(self):
        h = 1e-6
        fd = (singular_exponent(FREE_FERMION_BETA_EPS + h)
              - singular_exponent(FREE_FERMION_BETA_EPS - h)) / (2.0 * h)
        assert fd == pytest.approx(pi_rational_float(exponent_u_slope()),
                                   abs=1e-5)

    def test_expansion_evaluates_to_exponent(self):
        u = 0.01
        exp = exponent_u_expansion(4)
        val = sum(
            sum(float(q) / math.pi ** p for p, q in coeff.items()) * u ** d
            for d, coeff in enumerate(exp))
        assert val == pytest.approx(
            singular_exponent(FREE_FERMION_BETA_EPS + u), abs=1e-7)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            exponent_u_expansion(5)


class TestAmplitudeCrossCheck:
    def test_exact_equality(self):
        report = verify_first_order()
        assert isinstance(report, VerificationReport)
        assert report.equal
        assert report.predicted == PiRational(Q(8), 2)
        assert report.computed == PiRational(Q(8), 2)

    def test_report_json_deterministic(self):
        a = verify_first_order().as_json()
        b = verify_first_order().as_json()
        assert a == b
        payload = json.loads(a)
        assert payload["equal"] is True
        assert payload["predicted"] == {"rational": "8", "pi_power": 2}
