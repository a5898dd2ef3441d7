"""Renormalization prediction for the leading free-energy singularity.

The predicted singular behavior in a small staggered field is
(beta_s)^e with e = 2/(2 - pi/(4 j)) and j = arccos(1 - exp(2 beta_eps)/2)/2.
This module evaluates j and the exponent, expands the exponent exactly about
the solvable point beta_eps = ln(2)/2 + U, and mechanically cross-checks the
predicted first-order amplitude of (beta_s)^2 ln^2|beta_s| against the exact
amplitude series computed independently from the free-fermion expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

from . import FREE_FERMION_BETA_EPS
from .errors import BadInput
from .series import PiRational, Q, RationalSeries, b2_series, check_order

#: coupling below which the exponent formula diverges (KT regime)
KT_BETA_EPS = 0.5 * math.log(2.0 - math.sqrt(2.0))

#: highest U-order of ``exponent_u_expansion``
EXPANSION_ORDER_CAP = 4


def j_of_betaeps(beta_eps: float) -> float:
    """j = arccos(1 - exp(2 beta_eps)/2) / 2, in [0, pi/2]; the arccos
    needs beta_eps <= ln 2, checked before exp can overflow."""
    if beta_eps > math.log(2.0):
        raise BadInput(
            f"beta_eps={beta_eps!r} is above ln 2, beyond the arccos domain")
    return 0.5 * math.acos(max(1.0 - 0.5 * math.exp(2.0 * beta_eps), -1.0))


def singular_exponent(beta_eps: float) -> float:
    """Predicted leading exponent 2/(2 - pi/(4 j)); +inf in the KT regime.

    Divergence is decided by the closed-form threshold
    beta_eps <= ln(2 - sqrt 2)/2 (where j = pi/8), so the boundary point
    itself is tagged divergent rather than left to rounding.
    """
    if beta_eps <= KT_BETA_EPS:
        return math.inf
    denom = 2.0 - math.pi / (4.0 * j_of_betaeps(beta_eps))
    if denom <= 0.0:
        return math.inf
    return 2.0 / denom


# --- exact expansion of the exponent about the solvable point ----------------
#
# Coefficients live in the ring Q[1/pi]: each series coefficient is a map
# {pi_power: rational} meaning sum_k q_k pi^{-k}.

def _j_shift_series(order: int) -> RationalSeries:
    """j(ln2/2 + U) - pi/4 as an exact rational series in U.

    dj/dU = exp(U) (2 - exp(2U))^{-1/2}, whose Taylor coefficients are
    rational; integrating term by term gives the shift.
    """
    k = order
    exp_u = RationalSeries([Q(1, math.factorial(d)) for d in range(k + 1)], k)
    y = RationalSeries([Q(0)] + [Q(2 ** d, math.factorial(d))
                                 for d in range(1, k + 1)], k)  # e^{2U} - 1
    inv_sqrt = RationalSeries(
        [comb(2 * d, d) * Q(1, 4 ** d) for d in range(k + 1)], k)  # (1-y)^{-1/2}
    deriv = exp_u * inv_sqrt.compose(y)
    return RationalSeries(
        [Q(0)] + [deriv[d] / (d + 1) for d in range(k)], k)


def exponent_u_expansion(order: int = 2) -> list[dict]:
    """Exact U-series of the exponent at beta_eps = ln(2)/2 + U.

    Returns one {pi_power: Fraction} coefficient map per U-degree:
    2 - (8/pi) U + ...; the linear coefficient is exactly -8/pi.  With
    r = j - pi/4 and x = 4 r / pi the exponent is
    2/(2 - 1/(1 + x)) = 1 + 1/(1 + 2x) = 2 + sum_{k >= 1} (-8/pi)^k r^k, so
    the U^d coefficient is {k: (-8)^k [U^d] r^k}, with k <= d since r
    vanishes at U = 0.
    """
    check_order(order, EXPANSION_ORDER_CAP, "coulomb")
    r = _j_shift_series(order)
    powers = [RationalSeries.monomial(0, 1, order)]
    for _ in range(order):
        powers.append(powers[-1] * r)
    return [{0: Q(2)}] + [
        {k: (-8) ** k * powers[k][d] for k in range(1, d + 1) if powers[k][d]}
        for d in range(1, order + 1)]


def exponent_u_slope() -> PiRational:
    """The exact linear coefficient of the exponent expansion: -8/pi.  At
    order 1 the U^1 map is {1: -8 r_1} with r_1 = 1, by construction."""
    return PiRational(exponent_u_expansion(1)[1][1], 1)


@dataclass(frozen=True)
class VerificationReport:
    predicted: PiRational
    computed: PiRational
    equal: bool


def verify_first_order() -> VerificationReport:
    """Cross-check the predicted (beta_s)^2 ln^2|beta_s| amplitude at O(U).

    Prediction side: (beta_s)^{e(U)} = (beta_s)^2 exp((e(U) - 2) ln|beta_s|)
    contributes (slope^2/2) U^2 ln^2 at degree (beta_s)^2; the meromorphic
    amplitude's pole 1/(4U) turns this into (slope^2/8) U = (8/pi^2) U.
    Computation side: the leading coefficient of the exact amplitude series
    from the free-fermion expansion.  Both are exact; verify reports equality.
    """
    slope = exponent_u_slope()
    half_square = slope * slope
    predicted = PiRational(half_square.rational / 8, half_square.pi_power)
    computed = b2_series(2).coefficient(2)
    return VerificationReport(predicted, computed, predicted == computed)
