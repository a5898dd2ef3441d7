"""Infinite-lattice thermodynamics of the staggered model at the solvable point.

The reduced free energy per vertex is

    F0(beta_s) = (1/8 pi^2) int int ln[2 cosh(2 beta_s)
                                      + 2 cos(t1) cos(t2)] dt1 dt2

over [0, 2 pi]^2.  Writing 2 cos t1 cos t2 = cos(t1 + t2) + cos(t1 - t2)
and using <ln(x + cos b)>_b = arccosh x - ln 2 leaves one angle:

    F0 = (1/2) <arccosh(2 cosh 2 beta_s + cos u)>_u - (1/2) ln 2.

The mean is taken by the midpoint rule over u in [0, pi] (the integrand is
even about u = 0 and u = pi), doubling nodes until two levels agree.  For
beta_s != 0 the integrand is periodic and analytic, so the rule converges
geometrically; at beta_s = 0 it has a kink at u = pi, and the closed form
F0(0) = 2G/pi - (1/2) ln 2 (G Catalan's constant) is used instead.  For
|beta_s| >= 10, F0 is |beta_s| to double precision.

The field derivative and the b-vertex ratio need the square-lattice
Green's function <1/(a + cos t1 cos t2)> = 2 K(1/a) / (pi a), with
a = cosh 2 beta_s and K the complete elliptic integral of the first kind of
modulus k = sech 2 beta_s.  Its complementary parameter 1 - k^2 is
tanh^2 2 beta_s exactly, which scipy's ``ellipkm1`` takes directly, so
there is no cancellation near the critical point beta_s = 0.  In terms of
K, dF0/d beta_s = (2/pi) tanh(2 beta_s) K and Z_b/Z_0 =
(1/4)(1 - dF0/d beta_s)^2, so the O(U) coefficient of the free energy in
the coupling shift U, -(1 - Z_a/Z_0 - Z_b/Z_0), equals
((dF0/d beta_s)^2 - 1)/2 up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IdentityMismatch, ToleranceNotMet
from .series import stirling_correction

_STIRLING_ORDER = 8

#: F0(0) = 2G/pi - ln(2)/2 correctly rounded; evaluating the expression in
#: floating point gives 0.23654821778166496, one ulp high.
_F0_CRITICAL = 0.2365482177816649

#: F0 = |beta_s| + e^{-4 |beta_s|}/4 + ..., and from here on the correction
#: is below half an ulp of |beta_s|, so F0 is |beta_s| correctly rounded;
#: cosh 2 beta_s, which overflows from |beta_s| ~ 355, is never formed there.
_FROZEN_BETAS = 10.0


@dataclass(frozen=True)
class QuadratureSpec:
    """1-D midpoint rule on [0, pi] with node doubling from ``nodes`` up to
    ``max_nodes`` until two levels agree within ``tolerance`` (relative
    above 1)."""

    nodes: int = 64
    tolerance: float = 1e-10
    max_nodes: int = 1 << 20

    def __post_init__(self):
        if self.nodes < 16 or self.nodes & (self.nodes - 1):
            raise ValueError("nodes must be a power of two >= 16")
        if self.max_nodes < self.nodes:
            raise ValueError("max_nodes below starting nodes")


def baxter_free_energy(beta_s: float, spec: QuadratureSpec | None = None) -> float:
    """F0 from the closed form at beta_s = 0, |beta_s| for |beta_s| >= 10,
    elsewhere by the midpoint rule for
    (1/2) <arccosh(2 cosh 2 beta_s + cos u)>_u - (1/2) ln 2."""
    spec = spec or QuadratureSpec()
    if beta_s == 0.0:
        return _F0_CRITICAL
    if abs(beta_s) >= _FROZEN_BETAS:
        return abs(float(beta_s))
    x = 2.0 * math.cosh(2.0 * beta_s)
    n = spec.nodes
    prev = None
    while n <= spec.max_nodes:
        u = (np.arange(n) + 0.5) * (math.pi / n)
        # n ln 2 joins the exact sum; halving by n is exact, so fsum is the
        # only rounding
        terms = np.arccosh(x + np.cos(u)).tolist()
        v = math.fsum(terms + [-n * math.log(2.0)]) / (2 * n)
        if prev is not None and abs(v - prev) <= spec.tolerance * max(1.0, abs(v)):
            return v
        prev = v
        n *= 2
    raise ToleranceNotMet(f"midpoint rule not converged at {n // 2} nodes")


def _elliptic_k(beta_s: float) -> float:
    """K(sech 2 beta_s) for beta_s != 0, from its complementary parameter
    tanh^2 2 beta_s; where that underflows, K = ln(4 / |tanh 2 beta_s|) to
    double precision."""
    t = math.tanh(2.0 * beta_s)
    if t * t > 0.0:
        from scipy.special import ellipkm1
        return float(ellipkm1(t * t))
    return math.log(4.0) - math.log(abs(t))


def dF0_dbetas(beta_s: float, spec: QuadratureSpec | None = None) -> float:
    """dF0/d(beta_s) = (2/pi) tanh(2 beta_s) K(sech 2 beta_s): odd in
    beta_s and exactly 0 at beta_s = 0.  The closed form needs no nodes;
    ``spec`` is accepted for a uniform signature."""
    if beta_s == 0.0:
        return 0.0
    return 2.0 / math.pi * math.tanh(2.0 * beta_s) * _elliptic_k(beta_s)


def zb_ratio(beta_s: float, spec: QuadratureSpec | None = None) -> float:
    """Z_b/Z_0 = (1/4) <(e^{-2 beta_s} + cos cos)/(cosh 2 beta_s + cos cos)>^2
    = (1/4) [1 + (e^{-2 beta_s} - cosh 2 beta_s) 2 G]^2 with the Green's
    function G = K(sech 2 beta_s) / (pi cosh 2 beta_s).  Since
    (e^{-2 beta_s} - cosh 2 beta_s) / cosh 2 beta_s = -tanh 2 beta_s this is
    (1/4) (1 - dF0/d beta_s)^2, which forms no cosh and so cannot overflow;
    exactly 1/4 at beta_s = 0.  ``spec`` is accepted for a uniform
    signature."""
    inner = 0.5 * (1.0 - dF0_dbetas(beta_s))
    return inner * inner


def za_ratio(beta_s: float, spec: QuadratureSpec | None = None) -> float:
    """Z_a/Z_0 via the field-reversal symmetry Z_a(beta_s) = Z_b(-beta_s)."""
    return zb_ratio(-beta_s, spec)


def baxter_series(beta_s: float, n_max: int) -> tuple[float, float]:
    """F0 from the exact log-expansion sum; returns (value, error bound).

    F0 = ln(2 cosh 2 beta_s)/2
         - (1/2) sum_n [(2n)!/(4^n n!^2)]^2 / (2n cosh^{2n}(2 beta_s)).

    The head is summed termwise to ``n_max`` with ``math.fsum``; the tail uses the
    asymptotic bracket of the summand (term ~ n^{-2} e^{-n t} bracket(1/n)
    / 4 pi with t = 2 ln cosh 2 beta_s), each 1/n^q piece reducing to a
    Hurwitz zeta (t = 0) or Lerch transcendent (t > 0) tail.  The reported
    bound is the magnitude of the last bracket correction, the usual
    smallest-term estimate for an asymptotic series.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if abs(beta_s) >= _FROZEN_BETAS:
        # the sum is |beta_s| + e^{-4 |beta_s|}/4 + ..., the correction far
        # below the rounding allowance
        return abs(float(beta_s)), 1e-15 * abs(beta_s)
    ch = math.cosh(2.0 * beta_s)
    z = 1.0 / (ch * ch)           # e^{-t}
    terms = [0.5 * math.log(2.0 * ch)]
    c = 0.5                        # (2n)!/(4^n n!^2) at n = 1
    zpow = z
    for n in range(1, n_max + 1):
        terms.append(-c * c * zpow / (4.0 * n))
        c *= (2 * n + 1) / (2 * n + 2)
        zpow *= z
    head = math.fsum(terms)

    bracket = [float(q) for q in stirling_correction(_STIRLING_ORDER).coeffs]
    a0 = n_max + 1
    orders = range(2, 2 + len(bracket))
    if z >= 1.0:
        from scipy.special import zeta as hurwitz_zeta
        tails = [float(hurwitz_zeta(s, a0)) for s in orders]
    else:
        import mpmath
        tails = [float(mpmath.lerchphi(z, s, a0)) * z ** a0 for s in orders]
    tail = 0.0
    last = 0.0
    for coef, t_q in zip(bracket, tails):
        last = -coef * t_q / (4.0 * math.pi)
        tail += last
    return head + tail, abs(last) + 1e-15 * abs(head)


@dataclass(frozen=True)
class FirstOrderResult:
    f0: float
    coefficient_constrained: float   # -(Z0 - Za - Zb)/Z0
    coefficient_derivative: float    # ((dF0/dbs)^2 - 1)/2
    free_energy: float


def first_order_free_energy(beta_s: float, u: float,
                            spec: QuadratureSpec | None = None) -> FirstOrderResult:
    """F = F0 + c1 * U to first order, with the O(U) coefficient computed
    both from the constrained ratios and from the field derivative.

    The two forms must agree; IdentityMismatch flags disagreement beyond
    ten times the quadrature tolerance.
    """
    spec = spec or QuadratureSpec()
    f0 = baxter_free_energy(beta_s, spec)
    c_cons = -(1.0 - za_ratio(beta_s, spec) - zb_ratio(beta_s, spec))
    d = dF0_dbetas(beta_s, spec)
    c_der = 0.5 * (d * d - 1.0)
    if abs(c_cons - c_der) > 10.0 * spec.tolerance:
        raise IdentityMismatch(
            f"O(U) coefficient mismatch: {c_cons} vs {c_der}")
    return FirstOrderResult(f0, c_cons, c_der, f0 + c_der * u)
