"""Exact rational power-series arithmetic.

Everything in this module is exact: coefficients are `fractions.Fraction`,
truncation orders are tracked through every operation (min-order rule), and
re-running any pipeline is bit-identical.  The module culminates in the
singular (logarithm-carrying) part of the staggered-model free energy at the
solvable point, expanded in t = 2 ln cosh(2*beta_s) and in beta_s, and in
the amplitude series multiplying U * ln^2|beta_s| at first order in the
coupling shift U.  All three come, at any order, from the free-fermion
coefficients a_n^2 = (C(2n, n)/4^n)^2 of the elliptic integral's expansion
about k = 1 (DLMF 19.12.1), through A(y) = sum a_n^2 y^n and its integral
G(y) = int_0^y A/(1 - y) evaluated at tau^2 = tanh^2(2*beta_s).  The
paper's own assembly of the same coefficients (Stirling's series, the
singular parts of sum_n e^{-n t}/n^p, then t(beta_s)) is kept as an
independent reference in tests/references.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial

from .errors import BadInput, CompositionAtNonzero, DivisionByZeroSeries

Q = Fraction

#: highest order of ``stirling_correction``
STIRLING_ORDER_CAP = 16


@dataclass(frozen=True)
class PiRational:
    """An exact number of the form rational / pi**pi_power."""

    rational: Fraction
    pi_power: int = 0

    def __post_init__(self):
        if self.pi_power < 0:
            raise ValueError("pi_power must be >= 0")

    def __mul__(self, other: "PiRational") -> "PiRational":
        return PiRational(self.rational * other.rational,
                          self.pi_power + other.pi_power)

    def scaled(self, q) -> "PiRational":
        return PiRational(self.rational * Fraction(q), self.pi_power)

    def as_json(self) -> dict:
        return {"rational": str(self.rational), "pi_power": self.pi_power}

    def __str__(self):
        if self.pi_power == 0:
            return str(self.rational)
        pi = "pi" if self.pi_power == 1 else f"pi^{self.pi_power}"
        return f"({self.rational})/{pi}"


class RationalSeries:
    """Truncated power series with exact rational coefficients.

    ``coeffs[d]`` is the coefficient of degree d; degrees 0..order are
    meaningful, anything beyond is unknown (truncated away).
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [Fraction(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = coeffs[:order + 1]
        coeffs += [Q(0)] * (order + 1 - len(coeffs))
        self.coeffs = tuple(coeffs)
        self.order = order

    @classmethod
    def monomial(cls, degree: int, coeff=1, order: int | None = None) -> "RationalSeries":
        if order is None:
            order = degree
        c = [Q(0)] * (order + 1)
        if degree <= order:
            c[degree] = Fraction(coeff)
        return cls(c, order)

    def __getitem__(self, degree: int) -> Fraction:
        if degree < 0 or degree > self.order:
            raise IndexError(f"degree {degree} outside tracked range 0..{self.order}")
        return self.coeffs[degree]

    def __eq__(self, other):
        return (isinstance(other, RationalSeries)
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.order))

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        k = min(self.order, other.order)
        return RationalSeries(
            [self.coeffs[d] + other.coeffs[d] for d in range(k + 1)], k)

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        return self + other.scaled(-1)

    def scaled(self, q) -> "RationalSeries":
        q = Fraction(q)
        return RationalSeries([c * q for c in self.coeffs], self.order)

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        k = min(self.order, other.order)
        out = [Q(0)] * (k + 1)
        for i, a in enumerate(self.coeffs[:k + 1]):
            if a == 0:
                continue
            for j in range(k + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return RationalSeries(out, k)

    def compose(self, inner: "RationalSeries") -> "RationalSeries":
        """self(inner(x)), requiring inner(0) = 0."""
        if inner.coeffs[0] != 0:
            raise CompositionAtNonzero("inner series must vanish at 0")
        val = next((d for d, c in enumerate(inner.coeffs) if c != 0),
                   inner.order + 1)
        # Unknown outer coefficients (degree > self.order) first matter at
        # degree val*(self.order+1) of the composition.
        k = min(inner.order, val * (self.order + 1) - 1)
        result = RationalSeries([self.coeffs[self.order]], k)
        inner_k = RationalSeries(inner.coeffs[:k + 1], k)
        for d in range(self.order - 1, -1, -1):
            result = result * inner_k + RationalSeries.monomial(0, self.coeffs[d], k)
        return result

    def reciprocal(self) -> "RationalSeries":
        a0 = self.coeffs[0]
        if a0 == 0:
            raise DivisionByZeroSeries("constant term is zero")
        k = self.order
        out = [Q(0)] * (k + 1)
        out[0] = 1 / a0
        for d in range(1, k + 1):
            out[d] = -sum(self.coeffs[j] * out[d - j] for j in range(1, d + 1)) / a0
        return RationalSeries(out, k)

    def exp(self) -> "RationalSeries":
        """exp(self), requiring self(0) = 0.  Uses (e^g)' = g' e^g."""
        if self.coeffs[0] != 0:
            raise CompositionAtNonzero("exp of a series needs zero constant term")
        k = self.order
        out = [Q(0)] * (k + 1)
        out[0] = Q(1)
        for n in range(1, k + 1):
            out[n] = sum(Q(j) * self.coeffs[j] * out[n - j]
                         for j in range(1, n + 1)) / n
        return RationalSeries(out, k)

    def __repr__(self):
        return f"RationalSeries({[str(c) for c in self.coeffs]}, order={self.order})"


@dataclass(frozen=True)
class LogSeries:
    """scale * singular(x) * log-factor.

    Only the singular (logarithm-carrying) part of a quantity is represented;
    regular parts are deliberately absent.  ``log_label`` documents which
    logarithm the series multiplies ("ln t", "ln|beta_s|", or
    "ln^2|beta_s|" for the squared-log amplitude).
    """

    singular: RationalSeries
    scale: PiRational
    log_label: str = "ln t"

    def coefficient(self, degree: int) -> PiRational:
        """Exact full coefficient (scale folded in) at the given degree."""
        return self.scale.scaled(self.singular[degree])


def bernoulli_numbers(k_max: int) -> list[Fraction]:
    """[B_2, B_4, ..., B_{2*k_max}] by the defining recurrence
    sum_j C(n+1, j) B_j = 0."""
    if k_max > 32:
        raise ValueError("k_max capped at 32")
    n_top = 2 * k_max
    B = [Q(1)]
    for n in range(1, n_top + 1):
        s = sum(comb(n + 1, j) * B[j] for j in range(n))
        B.append(-s / Q(n + 1))
    return [B[2 * k] for k in range(1, k_max + 1)]


def stirling_correction(K: int) -> RationalSeries:
    """The bracket [(2n)!/(4^n n!^2)]^2 * pi * n as an exact series in 1/n.

    Taking logs of the central-binomial ratio and applying the factorial
    asymptotic series n! ~ n^n e^{-n} sqrt(2 pi n) exp(sum B_{2k}/(2k(2k-1))
    n^{1-2k}) leaves exp(2 S(2n) - 4 S(n)) with S the Bernoulli tail, i.e. a
    pure 1/n-series.  The result is asymptotic (coefficients eventually
    grow), which is fine for the fixed truncations used here.
    """
    if not 0 <= K <= STIRLING_ORDER_CAP:
        raise BadInput(f"order {K} outside [0, {STIRLING_ORDER_CAP}] for "
                       "the Stirling bracket")
    B2k = bernoulli_numbers((K + 1) // 2 + 1)
    g = [Q(0)] * (K + 1)
    for k in range(1, len(B2k) + 1):
        p = 2 * k - 1
        if p <= K:
            g[p] = B2k[k - 1] / Q(2 * k * (2 * k - 1)) * (Q(2) ** (2 - 2 * k) - 4)
    return RationalSeries(g, K).exp()


def _central_squares(K: int) -> RationalSeries:
    """A(y) = sum_n a_n^2 y^n with a_n = C(2n, n)/4^n, so that the elliptic
    integral is K(m) = (pi/2) A(m)."""
    return RationalSeries([Q(comb(2 * n, n), 4 ** n) ** 2
                           for n in range(K + 1)], K)


def _central_square_integral(K: int) -> RationalSeries:
    """G(y) = sum_p S1_p y^(p+1)/(p+1) with S1_p = sum_{n<=p} a_n^2, the
    integral of A(y)/(1 - y) from 0."""
    sums = accumulate(_central_squares(K).coeffs[:K])
    return RationalSeries([Q(0)] + [s / (p + 1) for p, s in enumerate(sums)], K)


def _tanh2_squared(K: int) -> RationalSeries:
    """tau^2 = tanh^2(2x) = 1 - sech^2(2x) as a series in x = beta_s."""
    cosh = RationalSeries([Q(2 ** d, factorial(d)) if d % 2 == 0 else 0
                           for d in range(K + 1)], K)
    sech = cosh.reciprocal()
    return RationalSeries.monomial(0, 1, K) - sech * sech


def singular_t_series(K: int) -> LogSeries:
    """Singular free energy at the solvable point as a series in
    t = 2 ln cosh(2 beta_s).

    e^{-t} = sech^2(2 beta_s), so 1 - e^{-t} = tau^2 and the bracket is
    G(1 - e^{-t}) (see :func:`singular_betas_series`).  Result:
    -(1/4 pi) (t + t^2/8 + t^3/192 - t^4/3072 + ...) ln t.
    """
    one_minus_exp = RationalSeries(
        [Q(0)] + [Q((-1) ** (d + 1), factorial(d)) for d in range(1, K + 1)], K)
    bracket = _central_square_integral(K).compose(one_minus_exp)
    return LogSeries(bracket, PiRational(Q(-1, 4), 1), "ln t")


def singular_betas_series(K: int) -> LogSeries:
    """Singular free energy expanded in x = beta_s (ln|beta_s| convention).

    About k' = tau = tanh(2x) the elliptic integral is
    K = sum_n a_n^2 tau^(2n) [ln(4/tau) - 2 h_n] (DLMF 19.12.1), and
    dF0/dx = (2/pi) tau K.  Its ln-carrying part -(2/pi) g'(x) ln|x| has
    g'(x) = tau A(tau^2); since d(tau^2)/dx = 4 tau (1 - tau^2), that makes
    g = G(tau^2)/4.  Result:
    -(2/pi) (x^2 - x^4/6 + 23 x^6/180 - 593 x^8/5040 + ...) ln|x|.
    """
    bracket = _central_square_integral(K // 2).compose(_tanh2_squared(K))
    return LogSeries(bracket.scaled(Q(1, 4)), PiRational(Q(-2), 1), "ln|beta_s|")


def b2_series(K: int) -> LogSeries:
    """Amplitude series of U * ln^2|beta_s| in the first-order free energy.

    The first-order formula F = F0 + (1/2)[(dF0/d beta_s)^2 - 1] U turns the
    singular slope -(2/pi) g'(x) ln|x| into (2/pi^2) g'(x)^2 ln^2|x| U,
    with g the bracket of :func:`singular_betas_series`, so the bracket is
    g'^2/4 = tau^2 A(tau^2)^2/4.  Result:
    (8/pi^2) (x^2 - 2 x^4/3 + 79 x^6/90 - 377 x^8/315 + ...).
    """
    tau2 = _tanh2_squared(K)
    a = _central_squares(K // 2).compose(tau2)
    return LogSeries((tau2 * a * a).scaled(Q(1, 4)), PiRational(Q(8), 2),
                     "ln^2|beta_s|")
