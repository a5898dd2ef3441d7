"""Acceptance gate: end-to-end checks, one reported line per criterion."""

import itertools
import math
import subprocess
import sys

import pytest
from references import pinned_matchings

from vertex_expand import dimer, integrals, model, verify
from vertex_expand.coulomb import (
    KT_BETA_EPS,
    exponent_u_slope,
    singular_exponent,
    verify_first_order,
)
from vertex_expand.series import (
    PiRational,
    Q,
    b2_series,
    singular_betas_series,
    singular_t_series,
    stirling_correction,
)


def transfer_12(u=0.0):
    """f at beta_s = 0.5 on the 12-row torus ``verify`` reads."""
    return model.transfer_matrix_free_energy(model.ModelParams(
        beta_s=0.5, rows=12, cols=12,
        beta_eps=model.FREE_FERMION_BETA_EPS + u,
        boundary=model.Boundary.PERIODIC)).free_energy


def report(capsys, number, label, passed):
    with capsys.disabled():
        print(f"\ncriterion {number} ({label}): "
              f"{'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({label}) failed"


def test_criterion_1_pfaffian_counting(capsys):
    worst = 0.0
    for rows, cols in [(1, 1), (2, 2), (2, 3), (3, 3)]:
        for beta_s in (-0.5, 0.0, 0.3):
            params = model.ModelParams(beta_s=beta_s, rows=rows, cols=cols)
            lat = dimer.build_decorated(params)
            kast = dimer.kasteleyn_orientation(lat)
            z_pf = math.exp(dimer.partition_dimer(kast))
            z_direct = dimer.enumerate_matchings(lat)
            worst = max(worst, abs(z_pf - z_direct) / z_direct)
    report(capsys, 1, "pfaffian vs matching enumeration", worst < 1e-10)


def test_criterion_2_mapping_equivalence(capsys):
    worst = 0.0
    for rows, cols in [(2, 2), (2, 3)]:
        params = model.ModelParams(beta_s=0.3, rows=rows, cols=cols)
        lat = dimer.build_decorated(params)
        result = model.enumerate_partition(params)
        ground = model.ground_state_mask(params)
        for mask, weight in zip(result.masks, result.weights):
            completion = pinned_matchings(lat, int(mask) ^ ground)
            worst = max(worst, abs(completion - weight) / weight)
        kast = dimer.kasteleyn_orientation(lat)
        z_pf = math.exp(dimer.partition_dimer(kast))
        worst = max(worst, abs(z_pf - result.z) / result.z)
    report(capsys, 2, "vertex-to-dimer mapping equivalence", worst < 1e-12)


def test_criterion_3_free_energy_representations(capsys):
    ok = True
    for beta_s in (0.0, 0.1, 0.5, 1.0):
        quad = integrals.baxter_free_energy(beta_s)
        ser, _ = integrals.baxter_series(beta_s, 2000)
        ok &= abs(quad - ser) < 1e-10
    quad = integrals.baxter_free_energy(0.5)
    ok &= abs(quad - transfer_12()) < 1e-3
    report(capsys, 3, "quadrature, series, and transfer free energies", ok)


def test_criterion_4_first_order_identity(capsys):
    ok = True
    for beta_s in (0.0, 0.25, 0.5, 1.0):
        za = integrals.za_ratio(beta_s)
        zb = integrals.zb_ratio(beta_s)
        d = integrals.dF0_dbetas(beta_s)
        ok &= abs(-(1.0 - za - zb) - 0.5 * (d * d - 1.0)) < 1e-8
    ok &= abs(integrals.zb_ratio(0.0) - 0.25) < 1e-10
    du = 0.01
    slope = (transfer_12(du) - transfer_12(-du)) / (2.0 * du)
    analytic = integrals.first_order_free_energy(0.5, 0.0)
    ok &= abs(slope - analytic.coefficient_derivative) < 1e-2
    report(capsys, 4, "first-order coefficient identity", ok)


def test_criterion_5_constrained_partitions(capsys):
    params = model.ModelParams(beta_s=0.3, rows=2, cols=2)
    lat = dimer.build_decorated(params)
    kast = dimer.kasteleyn_orientation(lat)
    z0 = dimer.enumerate_matchings(lat)
    probe = [0, 5, 16, 17, 18]
    worst = 0.0
    for r in (1, 2):
        for combo in itertools.combinations(probe, r):
            for occ in itertools.product((True, False), repeat=r):
                cons = [dimer.EdgeConstraint(e, o)
                        for e, o in zip(combo, occ)]
                direct = dimer.enumerate_matchings(
                    lat,
                    tuple(e for e, o in zip(combo, occ) if o),
                    tuple(e for e, o in zip(combo, occ) if not o)) / z0
                worst = max(worst,
                            abs(dimer.constrained_ratio(kast, cons) - direct))
    cons = ([dimer.EdgeConstraint(e, True) for e in probe[:2]]
            + [dimer.EdgeConstraint(e, False) for e in probe[2:]])
    direct = dimer.enumerate_matchings(lat, (0, 5), (16, 17, 18)) / z0
    worst = max(worst, abs(dimer.constrained_ratio(kast, cons) - direct))
    report(capsys, 5, "constrained partition functions", worst < 1e-10)


def test_criterion_6_exact_series(capsys):
    ok = list(stirling_correction(3).coeffs) == [
        Q(1), Q(-1, 4), Q(1, 32), Q(1, 128)]
    fst = singular_t_series(4)
    ok &= (fst.scale == PiRational(Q(-1, 4), 1)
           and list(fst.singular.coeffs)
           == [Q(0), Q(1), Q(1, 8), Q(1, 192), Q(-1, 3072)])
    sng = singular_betas_series(8)
    ok &= (sng.scale == PiRational(Q(-2), 1)
           and [sng.singular[d] for d in (2, 4, 6, 8)]
           == [Q(1), Q(-1, 6), Q(23, 180), Q(-593, 5040)])
    b2 = b2_series(6)
    ok &= (b2.scale == PiRational(Q(8), 2)
           and [b2.singular[d] for d in (2, 4, 6)]
           == [Q(1), Q(-2, 3), Q(79, 90)])
    report(capsys, 6, "exact singular series", bool(ok))


def test_criterion_7_renormalization_exponent(capsys):
    ok = singular_exponent(model.FREE_FERMION_BETA_EPS) == 2.0
    ok &= math.isinf(singular_exponent(KT_BETA_EPS))
    ok &= KT_BETA_EPS == 0.5 * math.log(2.0 - math.sqrt(2.0))
    ok &= exponent_u_slope() == PiRational(Q(-8), 1)
    report_fo = verify_first_order()
    ok &= report_fo.equal and report_fo.predicted == PiRational(Q(8), 2)
    report(capsys, 7, "renormalization exponent and amplitude", bool(ok))


def test_criterion_8_cli_verification(capsys):
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "vertex_expand.cli",
             "verify", "--suite", "all"],
            capture_output=True, text=True)
        runs.append(proc)
    ok = (runs[0].returncode == 0 and runs[1].returncode == 0
          and runs[0].stdout == runs[1].stdout
          and runs[0].stdout.strip().endswith("OK"))
    report(capsys, 8, "CLI verification suite deterministic", ok)


def test_criterion_9_finite_lattice_free_energy(capsys):
    quad = integrals.baxter_free_energy(0.3)
    finite = verify._extrapolated_pfaffian(0.3)
    report(capsys, 9, "finite-lattice pfaffian free energy",
           abs(quad - finite) < 1e-10)
