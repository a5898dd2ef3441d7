"""Checks of the program's outputs against references and required
properties.  Each returns a list of problems; an empty list is a pass.

Tolerances are fixed here, ahead of any run:

* QUAD_TOL: the quadratures refine to 1e-10 between levels; a value must
  lie within ten times that of the mpmath reference.
* EXACT_TOL: finite-lattice ratios against exhaustive enumeration, which
  both come from sums of at most a few thousand positive terms.
* BULK_TOL: vertex probabilities at the centre of a 13x13 lattice at
  beta_s >= 0.3 against the infinite-lattice ratios; the measured gap is
  1.3e-5 at beta_s = 0.3 and shrinks as beta_s grows.
"""

from __future__ import annotations

import math

QUAD_TOL = 1e-9
IDENTITY_TOL = 1e-8
PARITY_TOL = 1e-14
SERIES_TOL = 1e-12
EXACT_TOL = 1e-10
PROB_SUM_TOL = 1e-9
PROB_SLACK = 1e-12
BULK_TOL = 5e-5
AITKEN_TOL = 1e-3


def close(label: str, got: float, want: float, tol: float) -> list[str]:
    """|got - want| <= tol."""
    err = abs(float(got) - float(want))
    if not err <= tol:
        return [f"{label}: {got!r} vs reference {float(want)!r} "
                f"(|diff| {err:.3e} > {tol:.0e})"]
    return []


def rel_close(label: str, got: float, want: float, tol: float) -> list[str]:
    """|got - want| <= tol * |want|."""
    err = abs(float(got) - float(want)) / abs(float(want))
    if not err <= tol:
        return [f"{label}: {got!r} vs {float(want)!r} (rel {err:.3e} > {tol:.0e})"]
    return []


def probability(label: str, p: float) -> list[str]:
    if not -PROB_SLACK <= p <= 1.0 + PROB_SLACK:
        return [f"{label}: {p!r} outside [0, 1]"]
    return []


def probabilities(label: str, probs: dict) -> list[str]:
    """Six vertex-state probabilities: each in [0, 1], summing to 1."""
    out = []
    for state, p in sorted(probs.items()):
        out += probability(f"{label} P({state})", p)
    out += close(f"{label} sum", math.fsum(probs.values()), 1.0, PROB_SUM_TOL)
    return out


def first_order_identity(label: str, za: float, zb: float, d: float) -> list[str]:
    """-(1 - Za - Zb) = ((dF0)^2 - 1)/2: two routes to the O(U) coefficient."""
    return close(f"{label} first-order identity", -(1.0 - za - zb),
                 0.5 * (d * d - 1.0), IDENTITY_TOL)


def parity(label: str, plus: float, minus: float, odd: bool) -> list[str]:
    """F0 is even and dF0 odd in beta_s."""
    return close(f"{label} {'odd' if odd else 'even'} in beta_s",
                 plus, -minus if odd else minus, PARITY_TOL)


def within_bound(value: float, bound: float, want) -> bool:
    """The series' own claim: the reference lies within its error bound."""
    return abs(float(value) - float(want)) <= bound


def ascending(label: str, masks) -> list[str]:
    if any(b <= a for a, b in zip(masks, masks[1:])):
        return [f"{label}: masks not strictly ascending"]
    return []


def transfer_sequence(label: str, values: dict, gaps: dict, want) -> list[str]:
    """Transfer-matrix free energies over N approach F0, their Aitken limit
    from the three largest N is within AITKEN_TOL, and each gap is in (0, 1)."""
    out = []
    ns = sorted(values)
    errs = [abs(values[n] - float(want)) for n in ns]
    for n, a, b in zip(ns[1:], errs, errs[1:]):
        if b > a + 1e-12:
            out.append(f"{label}: N={n} moves away from F0 ({b:.3e} > {a:.3e})")
    for n in ns:
        if not 0.0 < gaps[n] < 1.0:
            out.append(f"{label}: N={n} gap {gaps[n]!r} outside (0, 1)")
    limit = aitken([values[n] for n in ns[-3:]])
    out += close(f"{label} Aitken limit", limit, want, AITKEN_TOL)
    return out


def aitken(values) -> float:
    """Aitken delta-squared limit of three successive terms."""
    v0, v1, v2 = values
    d1, d2 = v1 - v0, v2 - v1
    if d2 == d1:
        return v2
    return v2 - d2 * d2 / (d2 - d1)
