"""Exact rational power-series arithmetic.

Everything in this module is exact: coefficients are `fractions.Fraction`,
truncation orders are tracked through every operation (min-order rule), and
re-running any pipeline is bit-identical.  The module culminates in the
singular (logarithm-carrying) part of the staggered-model free energy at the
solvable point, expanded first in t = 2 ln cosh(2*beta_s) and then in beta_s,
and in the amplitude series multiplying U * ln^2|beta_s| at first order in
the coupling shift U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import CompositionAtNonzero, DivisionByZeroSeries

Q = Fraction


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

    def to_float(self) -> float:
        return float(self.rational) / math.pi ** self.pi_power

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
    def zero(cls, order: int) -> "RationalSeries":
        return cls([], order)

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

    def differentiate(self) -> "RationalSeries":
        if self.order == 0:
            return RationalSeries([], 0)
        return RationalSeries(
            [d * self.coeffs[d] for d in range(1, self.order + 1)],
            self.order - 1)

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

    def as_json(self) -> list:
        return [str(c) for c in self.coeffs]

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

    def as_json(self) -> dict:
        return {"scale": self.scale.as_json(),
                "bracket": self.singular.as_json(),
                "log_factor": self.log_label}


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
    if K > 16:
        raise ValueError("K capped at 16")
    B2k = bernoulli_numbers((K + 1) // 2 + 1)
    g = [Q(0)] * (K + 1)
    for k in range(1, len(B2k) + 1):
        p = 2 * k - 1
        if p <= K:
            g[p] = B2k[k - 1] / Q(2 * k * (2 * k - 1)) * (Q(2) ** (2 - 2 * k) - 4)
    return RationalSeries(g, K).exp()


def u_p_singular(p: int) -> LogSeries:
    """Singular part of sum_n exp(-n t)/n^p at t = 0.

    The p = 1 sum is -ln(1 - e^{-t}), whose non-analytic part is -ln t;
    integrating the recurrence d/dt (order p+1) = -(order p) gives
    (-1)^p t^{p-1}/(p-1)! * ln t.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    coeff = Q((-1) ** p, factorial(p - 1))
    return LogSeries(RationalSeries.monomial(p - 1, coeff), PiRational(Q(1)), "ln t")


def singular_t_series(K: int) -> LogSeries:
    """Singular free energy at the solvable point as a t-series.

    Assembled mechanically: the free energy's log-expansion is
    -(1/4 pi) sum_n n^{-2} e^{-n t} * bracket(1/n) with bracket from
    :func:`stirling_correction`; each 1/n^{2+q} sum contributes its
    singular part via :func:`u_p_singular`.  Result:
    -(1/4 pi) (t + t^2/8 + t^3/192 - t^4/3072 + ...) ln t.
    """
    if K > 8:
        raise ValueError("K capped at 8")
    bracket = stirling_correction(max(K - 1, 0))
    acc = RationalSeries.zero(K)
    for q in range(K):
        up = u_p_singular(q + 2)
        term = RationalSeries.monomial(q + 1, bracket[q] * up.singular[q + 1], K)
        acc = acc + term
    return LogSeries(acc, PiRational(Q(-1, 4), 1), "ln t")


def t_of_betas(K: int) -> RationalSeries:
    """t = 2 ln cosh(2 x) as an exact series in x = beta_s."""
    if K > 16 or K % 2 != 0:
        raise ValueError("K must be even and <= 16")
    # cosh(2x) - 1, then ln(1+y) composed with it.
    ch = [Q(0)] * (K + 1)
    for m in range(1, K // 2 + 1):
        ch[2 * m] = Q(2 ** (2 * m), factorial(2 * m))
    ln1p = RationalSeries(
        [Q(0)] + [Q((-1) ** (j + 1), j) for j in range(1, K + 1)], K)
    return ln1p.compose(RationalSeries(ch, K)).scaled(2)


def singular_betas_series(K: int) -> LogSeries:
    """Singular free energy expanded in beta_s (ln|beta_s| convention).

    Substitutes t(beta_s) into the t-series and replaces ln t by
    2 ln|beta_s|, dropping the regular remainder ln(t / beta_s^2) exactly as
    the t-form drops its own regular part.  Result:
    -(2/pi) (x^2 - x^4/6 + 23 x^6/180 - 593 x^8/5040 + ...) ln|x|.
    """
    if K > 8:
        raise ValueError("K capped at 8")
    ts = singular_t_series(K // 2)
    composed = ts.singular.compose(t_of_betas(K))
    # scale picks up the factor 2 from ln t -> 2 ln|x|; bracket normalized
    # to leading coefficient 1 at x^2, which folds a further 1/4 from t ~ 4x^2.
    bracket = composed.scaled(Q(1, 4))
    scale = ts.scale.scaled(2 * 4)
    return LogSeries(bracket, scale, "ln|beta_s|")


def b2_series(K: int) -> LogSeries:
    """Amplitude series of U * ln^2|beta_s| in the first-order free energy.

    The first-order formula F = F0 + (1/2)[(dF0/d beta_s)^2 - 1] U turns the
    singular slope -(2/pi) g'(x) ln|x| into (2/pi^2) g'(x)^2 ln^2|x| U,
    with g the bracket of :func:`singular_betas_series`.  Result:
    (8/pi^2) (x^2 - 2 x^4/3 + 79 x^6/90 + ...).
    """
    if K > 8:
        raise ValueError("K capped at 8")
    g = singular_betas_series(K + 2).singular
    gp = g.differentiate()
    sq = gp * gp
    # leading term is 4 x^2; normalize bracket to x^2 and fold the 4 into
    # the (2/pi^2) prefactor.
    bracket = RationalSeries([c / 4 for c in sq.coeffs[:K + 1]], K)
    return LogSeries(bracket, PiRational(Q(8), 2), "ln^2|beta_s|")
