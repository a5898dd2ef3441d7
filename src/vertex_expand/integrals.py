"""Infinite-lattice thermodynamics of the staggered model at the solvable point.

The reduced free energy per vertex is

    F0(beta_s) = (1/8 pi^2) int int ln[2 cosh(2 beta_s)
                                      + 2 cos(t1) cos(t2)] dt1 dt2

over [0, 2 pi]^2, and dF0/d beta_s = (2/pi) tau K with tau = tanh 2 beta_s
and K the complete elliptic integral of the first kind of modulus
k = sech 2 beta_s (k^2 + tau^2 = 1).  Both are sums over the free-fermion
coefficients a_n = C(2n, n)/4^n, on one side or the other of
tau^2 = k^2 = 1/2 (|beta_s| = ln(1 + sqrt 2)/2):

* for tau^2 <= 1/2, the expansion of K about k = 1 (DLMF 19.12.1),
  K = sum_n a_n^2 tau^2n [ln(4/tau) - 2 h_n] with
  h_n = sum_{j <= n} 1/((2j - 1) 2j), and its integral over
  d beta_s = d tau / (2 (1 - tau^2)),

      F0 = F0(0) + (1/pi) sum_p tau^q [S2_p/q - S1_p ln(tau)/q + S1_p/q^2],

  q = 2p + 2, S1_p = sum_{n <= p} a_n^2, S2_p = sum_{n <= p} a_n^2
  (ln 4 - 2 h_n), F0(0) = 2G/pi - (1/2) ln 2 (G Catalan's constant).  The
  logarithm is explicit, so nothing cancels as beta_s -> 0;
* for k^2 < 1/2, K = (pi/2) sum_n a_n^2 k^2n and, as in ``baxter_series``,
  F0 = |beta_s| + (1/2) ln(1 + e^{-4|beta_s|})
  - (1/4) sum_{n >= 1} a_n^2 k^2n / n, with k^2 formed from e^{-4|beta_s|}
  and never from cosh, which overflows.

Either ratio is at most 1/2, so 64 terms truncate below 2^-64; each sum is
taken by ``math.fsum``.  The b-vertex ratio needs the square-lattice Green's
function <1/(a + cos t1 cos t2)> = 2 K / (pi a), a = cosh 2 beta_s, which
makes Z_b/Z_0 = (1/4)(1 - dF0/d beta_s)^2.  So the O(U) coefficient of the
free energy in the coupling shift U, -(1 - Z_a/Z_0 - Z_b/Z_0), equals
((dF0/d beta_s)^2 - 1)/2 up to rounding.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, chain, count, islice

from .errors import BadInput

_STIRLING_ORDER = 8

#: most head terms ``baxter_series`` sums
HEAD_TERMS_CAP = 1_000_000

#: F0(0) = 2G/pi - ln(2)/2 correctly rounded; evaluating the expression in
#: floating point gives 0.23654821778166496, one ulp high.
_F0_CRITICAL = 0.2365482177816649

#: F0 = |beta_s| + e^{-4 |beta_s|}/4 + ..., and from here on the correction
#: is below half an ulp of |beta_s|, so ``baxter_series`` returns |beta_s|
#: and never forms cosh 2 beta_s, which overflows from |beta_s| ~ 355.
_FROZEN_BETAS = 10.0

#: terms of either series: its ratio, tau^2 or k^2, is at most 1/2
_TERMS = 64


def _central_squares() -> Iterator[float]:
    """a_n^2 for n = 0, 1, ..., a_n = C(2n, n)/4^n = a_{n-1} (2n - 1)/(2n)."""
    a = 1.0
    for n in count():
        yield a * a
        a *= (2 * n + 1) / (2 * n + 2)


def _powers(x: float) -> Iterator[float]:
    """1, x, x^2, ..."""
    p = 1.0
    while True:
        yield p
        p *= x


def _sech_terms(z: float, n_max: int) -> Iterator[float]:
    """-a_n^2 z^n / (4n) for n = 1 .. n_max."""
    return (-a2 * p / (4.0 * n) for n, a2, p in zip(
        range(1, n_max + 1), islice(_central_squares(), 1, None),
        islice(_powers(z), 1, None)))


_A2 = list(islice(_central_squares(), _TERMS))
#: ln 4 - 2 h_n
_D = list(accumulate((2.0 / ((2 * n - 1) * (2 * n)) for n in range(1, _TERMS)),
                     operator.sub, initial=math.log(4.0)))
_S1 = [math.fsum(_A2[:p + 1]) for p in range(_TERMS)]
_S2 = [math.fsum(a2 * d for a2, d in zip(_A2[:p + 1], _D))
       for p in range(_TERMS)]
#: F0 - F0(0) = sum_p tau^q (_F0_A[p] - _F0_B[p] ln tau) with q = 2p + 2
_F0_A = [(s2 / q + s1 / (q * q)) / math.pi
         for q, s1, s2 in zip(range(2, 2 * _TERMS + 1, 2), _S1, _S2)]
_F0_B = [s1 / (q * math.pi) for q, s1 in zip(range(2, 2 * _TERMS + 1, 2), _S1)]


def _sech_squared(beta_s: float) -> tuple[float, float]:
    """(k^2, e) with e = e^{-4|beta_s|} and k^2 = sech^2 2 beta_s
    = 4e/(1 + e)^2."""
    e = math.exp(-4.0 * abs(beta_s))
    return 4.0 * e / ((1.0 + e) * (1.0 + e)), e


def baxter_free_energy(beta_s: float) -> float:
    """F0 from the log-series in tau = tanh 2 beta_s for tau^2 <= 1/2 and
    from the series in k^2 = sech^2 2 beta_s above; exactly F0(0) at
    beta_s = 0 and |beta_s| from about |beta_s| = 9.5 on."""
    if beta_s == 0.0:
        return _F0_CRITICAL
    beta_s = abs(float(beta_s))
    tau = math.tanh(2.0 * beta_s)
    t2 = tau * tau
    if t2 <= 0.5:
        log_tau = math.log(tau)
        return math.fsum([_F0_CRITICAL] + [
            t2 * p * (a - b * log_tau)
            for a, b, p in zip(_F0_A, _F0_B, _powers(t2))])
    k2, e = _sech_squared(beta_s)
    return math.fsum(chain([beta_s, 0.5 * math.log1p(e)],
                           _sech_terms(k2, _TERMS - 1)))


def _elliptic_k(beta_s: float) -> float:
    """K(sech 2 beta_s) for beta_s != 0: the log-series in tau for
    tau^2 <= 1/2, (pi/2) sum a_n^2 k^2n above."""
    tau = math.tanh(2.0 * abs(beta_s))
    t2 = tau * tau
    if t2 <= 0.5:
        log_tau = math.log(tau)
        return math.fsum(a2 * p * (d - log_tau)
                         for a2, d, p in zip(_A2, _D, _powers(t2)))
    k2, _ = _sech_squared(beta_s)
    return 0.5 * math.pi * math.fsum(
        a2 * p for a2, p in zip(_A2, _powers(k2)))


def dF0_dbetas(beta_s: float) -> float:
    """dF0/d(beta_s) = (2/pi) tanh(2 beta_s) K(sech 2 beta_s): odd in
    beta_s and exactly 0 at beta_s = 0."""
    if beta_s == 0.0:
        return 0.0
    return 2.0 / math.pi * math.tanh(2.0 * beta_s) * _elliptic_k(beta_s)


def zb_ratio(beta_s: float) -> float:
    """Z_b/Z_0 = (1/4) <(e^{-2 beta_s} + cos cos)/(cosh 2 beta_s + cos cos)>^2
    = (1/4) [1 + (e^{-2 beta_s} - cosh 2 beta_s) 2 G]^2 with the Green's
    function G = K(sech 2 beta_s) / (pi cosh 2 beta_s).  Since
    (e^{-2 beta_s} - cosh 2 beta_s) / cosh 2 beta_s = -tanh 2 beta_s this is
    (1/4) (1 - dF0/d beta_s)^2, which forms no cosh and so cannot overflow;
    exactly 1/4 at beta_s = 0."""
    inner = 0.5 * (1.0 - dF0_dbetas(beta_s))
    return inner * inner


def za_ratio(beta_s: float) -> float:
    """Z_a/Z_0 via the field-reversal symmetry Z_a(beta_s) = Z_b(-beta_s)."""
    return zb_ratio(-beta_s)


def baxter_series(beta_s: float, n_max: int) -> tuple[float, float]:
    """F0 from the exact log-expansion sum; returns (value, error bound).

    F0 = ln(2 cosh 2 beta_s)/2
         - (1/2) sum_n [(2n)!/(4^n n!^2)]^2 / (2n cosh^{2n}(2 beta_s)).

    The head, ``n_max`` terms with 1 <= n_max <= HEAD_TERMS_CAP, is summed
    termwise with ``math.fsum``; the tail uses the asymptotic bracket of
    the summand (term ~ n^{-2} z^n bracket(1/n) / 4 pi with
    z = sech^2 2 beta_s = e^{-t}), each 1/n^q piece a Lerch
    transcendent tail z^a Phi(z, q, a) from a = n_max + 1 (the Hurwitz zeta
    at z = 1).  Where z^a underflows to 0.0 every tail piece is exactly
    0.0, so the tail is skipped and mpmath is loaded only where z^a is
    nonzero.  The bound is twice the last bracket correction (at
    n_max = 1 the bracket misses a_2^2 by 1.5 times its last term) plus the
    rounding: an ulp of the head, and the ulps of cosh 2 beta_s and z, which
    move F0 by K/pi per unit of relative error, K = K(sech 2 beta_s)
    ~ ln(1/|beta_s|).  A nan field gives (nan, nan).
    """
    if not 1 <= n_max <= HEAD_TERMS_CAP:
        raise BadInput(f"head terms n_max must be in [1, {HEAD_TERMS_CAP}], "
                       f"not {n_max}")
    if math.isnan(beta_s):
        return math.nan, math.nan
    if abs(beta_s) >= _FROZEN_BETAS:
        # the sum is |beta_s| + e^{-4 |beta_s|}/4 + ..., the correction far
        # below the rounding allowance
        return abs(float(beta_s)), 1e-15 * abs(beta_s)
    ch = math.cosh(2.0 * beta_s)
    z = 1.0 / (ch * ch)           # e^{-t}
    head = math.fsum(chain([0.5 * math.log(2.0 * ch)], _sech_terms(z, n_max)))
    # below |beta_s| ~ 7e-9 cosh rounds to 1 and z is off by under tau^2
    ulp = math.ulp(1.0)
    t2 = math.tanh(2.0 * beta_s) ** 2
    shift = min(ulp, t2) * _elliptic_k(beta_s) / math.pi if t2 else 0.0
    a0 = n_max + 1
    if z ** a0 == 0.0:
        # each tail piece is a multiple of z^a0, so each is +-0.0
        return head, ulp * abs(head) + shift

    import mpmath
    from .series import stirling_correction
    tail = [-float(c) * (float(mpmath.lerchphi(z, s, a0)) * z ** a0)
            / (4.0 * math.pi) for s, c in enumerate(
                stirling_correction(_STIRLING_ORDER).coeffs, 2)]
    return head + sum(tail), 2.0 * abs(tail[-1]) + ulp * abs(head) + shift


@dataclass(frozen=True)
class FirstOrderResult:
    f0: float
    coefficient_constrained: float   # -(Z0 - Za - Zb)/Z0
    coefficient_derivative: float    # ((dF0/dbs)^2 - 1)/2
    free_energy: float


def first_order_free_energy(beta_s: float, u: float) -> FirstOrderResult:
    """F = F0 + c1 * U to first order, with the O(U) coefficient computed
    both from the constrained ratios and from the field derivative.  They
    are one formula, since Za/Z0 and Zb/Z0 are (1/4)(1 +- dF0/d beta_s)^2,
    and differ by rounding alone."""
    f0 = baxter_free_energy(beta_s)
    c_cons = -(1.0 - za_ratio(beta_s) - zb_ratio(beta_s)) + 0.0  # never -0.0
    d = dF0_dbetas(beta_s)
    c_der = 0.5 * (d * d - 1.0)
    return FirstOrderResult(f0, c_cons, c_der, f0 + c_der * u)
