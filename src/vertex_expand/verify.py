"""Self-contained verification suites behind the ``verify`` CLI subcommand.

Each check returns (name, passed, detail); suites aggregate them.  The
checks mirror the package's cross-validation contracts: Pfaffian counting
against brute-force matching sums, the six-vertex/dimer mapping (each
enumerated configuration's weight against the matching sum with its line
set ``mask ^ ground_state_mask`` pinned on the external edges), agreement
of the free-energy representations (quadrature, series, a 12-row
transfer-matrix torus and finite-lattice Pfaffians), a 32x32 centre site
against Za/Z0 and Zb/Z0, exact series reproduction, and the amplitude
cross-check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import coulomb, series

Check = tuple[str, bool, str]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# --- kasteleyn suite ---------------------------------------------------------

def suite_kasteleyn() -> list[Check]:
    from . import dimer, model
    checks: list[Check] = []
    for rows, cols in [(1, 1), (2, 2), (2, 3), (3, 3)]:
        for beta_s in (-0.5, 0.0, 0.3):
            params = model.ModelParams(beta_s=beta_s, rows=rows, cols=cols)
            lat = dimer.build_decorated(params)
            kast = dimer.kasteleyn_orientation(lat)
            z_pf = math.exp(dimer.partition_dimer(kast))
            z_match = dimer.enumerate_matchings(lat)
            rel = abs(z_pf - z_match) / z_match
            checks.append((
                f"pfaffian-vs-matchings {rows}x{cols} beta_s={beta_s}",
                rel < 1e-14, f"rel={rel:.3e}"))

    # C/u = e^400: only B scaled by the matching duals keeps log Z exact
    params = model.ModelParams(beta_s=-400.0, rows=3, cols=4)
    log_pf = dimer.partition_dimer(
        dimer.kasteleyn_orientation(dimer.build_decorated(params)))
    log_enum = model.enumerate_partition(params).log_z
    diff = abs(log_pf - log_enum)
    checks.append(("pfaffian-vs-enumeration 3x4 beta_s=-400",
                   diff < 1e-11 * max(1.0, abs(log_enum)),
                   f"diff={diff:.3e}"))

    # 3x3 has two rows of vertical free edges, so it sees their order
    for rows, cols in [(2, 2), (2, 3), (3, 3)]:
        params = model.ModelParams(beta_s=0.3, rows=rows, cols=cols)
        lat = dimer.build_decorated(params)
        result = model.enumerate_partition(params)
        ground = model.ground_state_mask(params)
        # bit b of a mask is the arrow on external edge 4 rows cols + b
        external = range(4 * rows * cols, len(lat.i))
        worst = 0.0
        for mask, weight in zip(result.masks, result.weights):
            lines = int(mask) ^ ground
            completion = dimer.enumerate_matchings(
                lat, tuple(e for b, e in enumerate(external) if lines >> b & 1),
                tuple(e for b, e in enumerate(external)
                      if not lines >> b & 1))
            worst = max(worst, abs(completion - weight) / weight)
        kast = dimer.kasteleyn_orientation(lat)
        z_err = abs(math.exp(dimer.partition_dimer(kast)) - result.z) / result.z
        checks.append((
            f"mapping-equivalence {rows}x{cols}",
            worst < 1e-12 and z_err < 1e-12,
            f"per-config={worst:.3e} Z={z_err:.3e}"))

    params = model.ModelParams(beta_s=0.3, rows=2, cols=2)
    lat = dimer.build_decorated(params)
    kast = dimer.kasteleyn_orientation(lat)
    z0 = dimer.enumerate_matchings(lat)
    probe_edges = [0, 5, 16, 17, 18]
    worst = 0.0
    for r in (1, 2):
        for combo in itertools.combinations(probe_edges, r):
            for pattern in itertools.product((True, False), repeat=r):
                cons = [dimer.EdgeConstraint(e, o)
                        for e, o in zip(combo, pattern)]
                ratio = dimer.constrained_ratio(kast, cons)
                direct = dimer.enumerate_matchings(
                    lat,
                    tuple(e for e, o in zip(combo, pattern) if o),
                    tuple(e for e, o in zip(combo, pattern) if not o)) / z0
                worst = max(worst, abs(ratio - direct))
    checks.append(("constrained-orders-1-2 2x2", worst < 1e-15,
                   f"worst={worst:.3e}"))

    cons = ([dimer.EdgeConstraint(e, True) for e in probe_edges[:2]]
            + [dimer.EdgeConstraint(e, False) for e in probe_edges[2:]])
    ratio = dimer.constrained_ratio(kast, cons)
    direct = dimer.enumerate_matchings(
        lat, tuple(probe_edges[:2]), tuple(probe_edges[2:])) / z0
    checks.append(("constrained-5-edge-inclusion-exclusion 2x2",
                   abs(ratio - direct) < 1e-15,
                   f"err={abs(ratio - direct):.3e}"))
    return checks


# --- identity suite ----------------------------------------------------------

def _extrapolated_pfaffian(beta_s: float) -> float:
    """Infinite-lattice free energy from fixed-boundary L x L Pfaffians.

    log Z / L^2 = a + b/L + c/L^2 (bulk, edge and corner terms) up to
    corrections that decay exponentially in L off the critical point; the
    quadratic in 1/L through L = 24, 28, 32 is
    a = 18 y_24 - 49 y_28 + 32 y_32 at 1/L = 0.
    """
    from . import dimer, model
    y24, y28, y32 = (
        dimer.partition_dimer(dimer.kasteleyn_orientation(
            dimer.build_decorated(model.ModelParams(
                beta_s=beta_s, rows=size, cols=size)))) / size ** 2
        for size in (24, 28, 32))
    return math.fsum((18.0 * y24, -49.0 * y28, 32.0 * y32))


def suite_identity() -> list[Check]:
    from . import dimer, integrals, model
    checks: list[Check] = []
    # the Lerch tail is a second mechanism only below tau^2 = 1/2
    for beta_s in (0.0, 0.1):
        quad = integrals.baxter_free_energy(beta_s)
        ser, _ = integrals.baxter_series(beta_s, 2000)
        diff = abs(quad - ser)
        checks.append((f"free-energy quad-vs-series beta_s={beta_s}",
                       diff < 1e-15, f"diff={diff:.3e}"))

    def transfer(u: float) -> float:
        """f at beta_s = 0.5 on a 12-row torus, 1e-7 from the infinite
        lattice's."""
        return model.transfer_matrix_free_energy(model.ModelParams(
            beta_s=0.5, rows=12, cols=12,
            beta_eps=model.FREE_FERMION_BETA_EPS + u,
            boundary=model.Boundary.PERIODIC)).free_energy

    diff = abs(integrals.baxter_free_energy(0.5) - transfer(0.0))
    checks.append(("free-energy quad-vs-transfer beta_s=0.5",
                   diff < 1e-6, f"diff={diff:.3e}"))

    for beta_s in (0.3, 0.5, 1.0):
        quad = integrals.baxter_free_energy(beta_s)
        diff = abs(quad - _extrapolated_pfaffian(beta_s))
        checks.append((f"free-energy quad-vs-pfaffian beta_s={beta_s}",
                       diff < 1e-10, f"diff={diff:.3e}"))

    # an even lattice's centre is on sublattice A: Za is state 6, Zb 5
    for beta_s in (0.5, 1.0):
        kast = dimer.kasteleyn_orientation(dimer.build_decorated(
            model.ModelParams(beta_s=beta_s, rows=32, cols=32)))
        diff_a = abs(dimer.vertex_constrained_ratio(kast, (16, 16), 6)
                     - integrals.za_ratio(beta_s))
        diff_b = abs(dimer.vertex_constrained_ratio(kast, (16, 16), 5)
                     - integrals.zb_ratio(beta_s))
        checks.append((f"vertex-ratios 32x32-vs-integrals beta_s={beta_s}",
                       max(diff_a, diff_b) < 1e-13,
                       f"za={diff_a:.3e} zb={diff_b:.3e}"))

    du = 0.01
    slope = (transfer(du) - transfer(-du)) / (2.0 * du)
    analytic = integrals.first_order_free_energy(0.5, 0.0)
    diff = abs(slope - analytic.coefficient_derivative)
    checks.append(("dF/dU transfer-vs-analytic beta_s=0.5",
                   diff < 1e-4, f"diff={diff:.3e}"))
    return checks


# --- series suite ------------------------------------------------------------

def suite_series() -> list[Check]:
    checks: list[Check] = []
    stirling = series.stirling_correction(3)
    expected = [Fraction(1), Fraction(-1, 4), Fraction(1, 32), Fraction(1, 128)]
    checks.append(("stirling-bracket",
                   list(stirling.coeffs) == expected,
                   str([str(c) for c in stirling.coeffs])))

    fst = series.singular_t_series(4)
    ok = (fst.scale == series.PiRational(Fraction(-1, 4), 1)
          and [fst.singular[d] for d in range(1, 5)]
          == [Fraction(1), Fraction(1, 8), Fraction(1, 192), Fraction(-1, 3072)])
    checks.append(("singular-t-series", ok,
                   f"{fst.scale} {[str(c) for c in fst.singular.coeffs]}"))

    sng = series.singular_betas_series(8)
    ok = (sng.scale == series.PiRational(Fraction(-2), 1)
          and [sng.singular[d] for d in (2, 4, 6, 8)]
          == [Fraction(1), Fraction(-1, 6), Fraction(23, 180),
              Fraction(-593, 5040)])
    checks.append(("singular-betas-series", ok,
                   f"{sng.scale} {[str(c) for c in sng.singular.coeffs]}"))

    b2 = series.b2_series(6)
    ok = (b2.scale == series.PiRational(Fraction(8), 2)
          and [b2.singular[d] for d in (2, 4, 6)]
          == [Fraction(1), Fraction(-2, 3), Fraction(79, 90)])
    checks.append(("b2-series", ok,
                   f"{b2.scale} {[str(c) for c in b2.singular.coeffs]}"))
    return checks


# --- coulomb suite -----------------------------------------------------------

def suite_coulomb() -> list[Check]:
    checks: list[Check] = []
    e_ff = coulomb.singular_exponent(coulomb.FREE_FERMION_BETA_EPS)
    checks.append(("exponent-at-free-fermion", e_ff == 2.0, _fmt(e_ff)))

    checks.append(("exponent-divergence-at-kt",
                   math.isinf(coulomb.singular_exponent(coulomb.KT_BETA_EPS)),
                   f"threshold={_fmt(coulomb.KT_BETA_EPS)}"))
    j_kt = coulomb.j_of_betaeps(coulomb.KT_BETA_EPS)
    checks.append(("kt-threshold-closed-form",
                   abs(j_kt - math.pi / 8) < 1e-12, _fmt(j_kt)))

    slope = coulomb.exponent_u_slope()
    checks.append(("exponent-u-slope",
                   slope == series.PiRational(Fraction(-8), 1), str(slope)))

    report = coulomb.verify_first_order()
    checks.append(("ln2-amplitude-prediction-vs-computed", report.equal,
                   f"{report.predicted} vs {report.computed}"))
    return checks


SUITES = {
    "kasteleyn": suite_kasteleyn,
    "identity": suite_identity,
    "series": suite_series,
    "coulomb": suite_coulomb,
}


def run_suites(names) -> tuple[bool, list[str]]:
    """Run the named suites; returns (all_passed, report lines)."""
    lines = []
    all_ok = True
    for name in names:
        for check, passed, detail in SUITES[name]():
            all_ok &= passed
            lines.append(
                f"{'PASS' if passed else 'FAIL'} [{name}] {check}: {detail}")
    lines.append(f"{'OK' if all_ok else 'FAILED'}")
    return all_ok, lines
