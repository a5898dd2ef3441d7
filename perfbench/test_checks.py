"""Tests of the benchmark's checks and references on tiny inputs.

    python3 -m pytest -q perfbench/test_checks.py

Each check must pass on the program's own output and fail on the same
output pushed just past its tolerance; the references must agree with
closed forms and with each other.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import checks
import refs
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vertex_expand import dimer, integrals, model, verify  # noqa: E402


# --- references --------------------------------------------------------------

def test_zb_reference_matches_elliptic_closed_form():
    # <(a^2 - cos^2)^(-1/2)> = (2/pi) K(1/a^2)/a
    for beta_s in (0.002, 0.3, -0.7):
        with mpmath.workdps(refs.DPS):
            bs = mpmath.mpf(beta_s)
            a = mpmath.cosh(2 * bs)
            mean = 2 / mpmath.pi / a * mpmath.ellipk(1 / a ** 2)
            want = (1 - (a - mpmath.exp(-2 * bs)) * mean) ** 2 / 4
        assert abs(refs.zb_ratio(beta_s) - want) < 1e-18


def test_free_energy_reference_limits_and_derivative():
    assert abs(refs.free_energy(1e-7) - refs.catalan_free_energy()) < 1e-12
    h = 1e-6
    slope = (refs.free_energy(0.3 + h) - refs.free_energy(0.3 - h)) / (2 * h)
    assert abs(slope - refs.free_energy_derivative(0.3)) < 1e-10


def test_ice_and_matching_enumerations_agree():
    # the six-vertex/dimer mapping, between the two independent enumerations
    configs = refs.ice_configurations(3, 3, 0.37, periodic=False)
    n_nodes, edges = refs.decorated_edges(3, 3, 0.37)
    z_ice = math.fsum(c.weight for c in configs)
    assert len(configs) == 7
    assert abs(refs.matching_sum(n_nodes, edges) / z_ice - 1.0) < 1e-13
    # an external edge carries a line exactly where the arrow is reversed
    east_of_centre = 4 * 9 + 1 * 2 + 1          # h external east of (1, 1)
    ratio = refs.matching_sum(n_nodes, edges, occupied=[east_of_centre]) / \
        refs.matching_sum(n_nodes, edges)
    assert abs(ratio - refs.line_pattern_ratio(configs, [(("h", 1, 2), True)])) < 1e-13


def test_torus_enumeration_count():
    assert len(refs.ice_configurations(2, 4, 0.2, periodic=True)) == 114


# --- checks pass on the program's output and fail just past tolerance --------

def test_quadrature_value_check():
    value = integrals.baxter_free_energy(0.5)
    want = refs.free_energy(0.5)
    assert checks.close("F0", value, want, checks.QUAD_TOL) == []
    assert checks.close("F0", value + 10 * checks.QUAD_TOL, want, checks.QUAD_TOL)


def test_probability_checks():
    kast = dimer.kasteleyn_orientation(
        dimer.build_decorated(model.ModelParams(beta_s=0.4, rows=5, cols=5)))
    probs = {s: dimer.vertex_constrained_ratio(kast, (2, 1), s) for s in range(1, 7)}
    want = refs.vertex_probabilities(
        refs.ice_configurations(5, 5, 0.4, periodic=False), (2, 1))
    assert checks.probabilities("site", probs) == []
    assert all(checks.close("P", probs[s], want[s], checks.EXACT_TOL) == []
               for s in probs)
    assert checks.probabilities("site", {s: p * 1.001 for s, p in probs.items()})
    assert checks.probabilities("site", {**probs, 1: -1e-9, 2: probs[2] + 1e-9})
    assert checks.close("P", probs[6] + 2 * checks.EXACT_TOL, want[6],
                        checks.EXACT_TOL)


def test_partition_function_check():
    params = model.ModelParams(beta_s=-0.2, rows=3, cols=3)
    z = model.enumerate_partition(params).z
    z_ref = math.fsum(c.weight for c in refs.ice_configurations(3, 3, -0.2, False))
    assert checks.rel_close("Z", z, z_ref, checks.EXACT_TOL) == []
    assert checks.rel_close("Z", z * (1 + 1e-8), z_ref, checks.EXACT_TOL)


def test_first_order_identity_and_parity_checks():
    za, zb = integrals.za_ratio(0.25), integrals.zb_ratio(0.25)
    d = integrals.dF0_dbetas(0.25)
    assert checks.first_order_identity("0.25", za, zb, d) == []
    assert checks.first_order_identity("0.25", za + 10 * checks.IDENTITY_TOL, zb, d)
    d_minus = integrals.dF0_dbetas(-0.25)
    assert checks.parity("dF0", d, d_minus, odd=True) == []
    assert checks.parity("dF0", d, d_minus + 10 * checks.PARITY_TOL, odd=True)


def test_series_bound_check():
    value, bound = integrals.baxter_series(0.5, 2000)
    want = refs.free_energy(0.5)
    assert checks.within_bound(value, bound, want)
    assert not checks.within_bound(value + 2 * bound, bound, want)
    assert checks.close("series", value + 10 * checks.SERIES_TOL, want,
                        checks.SERIES_TOL)


def test_enumeration_order_check():
    masks = list(model.enumerate_partition(
        model.ModelParams(beta_s=0.1, rows=3, cols=3)).masks)
    assert checks.ascending("3x3", masks) == []
    assert checks.ascending("3x3", masks[:2][::-1] + masks[2:])


def test_transfer_sequence_check():
    values, gaps = {}, {}
    for n in (4, 6, 8):
        res = model.transfer_matrix_free_energy(model.ModelParams(
            beta_s=0.7, rows=n, cols=n, boundary=model.Boundary.PERIODIC))
        values[n], gaps[n] = res.free_energy, res.gap
    want = refs.free_energy(0.7)
    assert checks.transfer_sequence("tm", values, gaps, want) == []
    assert checks.transfer_sequence(
        "tm", {n: v + 10 * checks.AITKEN_TOL for n, v in values.items()}, gaps, want)
    assert checks.transfer_sequence("tm", values, {**gaps, 8: 1.0}, want)


def test_cli_output_checks():
    cli = workloads.CliCold(0)
    ref = {0.5: refs.free_energy(0.5)}
    good = f"beta_s,method,provenance,quantity,value\n0.5,quad,quadrature,free_energy,{workloads.F0_HALF_17}\n"
    assert cli._check_output("free-energy", good, ref) == []
    assert cli._check_output("free-energy", good.replace("858", "86"), ref)
    rec = {"scale": {"rational": "-2", "pi_power": 1}, "order": 8,
           "coefficients": {"2": "1", "4": "-1/6", "6": "23/180", "8": "-593/5040"}}
    assert workloads._series_problems("sng", rec, workloads.SNG) == []
    rec["coefficients"]["6"] = "23/181"
    assert workloads._series_problems("sng", rec, workloads.SNG)
    assert cli._check_output("verify-all", "PASS x\nFAILED\n", ref)


# --- the benchmark's own contract --------------------------------------------

def test_every_declared_layer_metric_is_produced():
    # a traced run reports the union of every workload's layer metrics, the
    # in-process cli/verify pass, the import probe and the overhead
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    produced = {"import.package_s", "trace.overhead_s", "cli.main_s"}
    produced |= {f"verify.suite_{name}_s" for name in verify.SUITES}
    for cls in workloads.WORKLOADS.values():
        produced |= set(cls(3).layer_metrics(Tracer(), {}))
    assert produced == declared


@pytest.mark.parametrize("workload", ["site-stats", "thermo-sweep"])
def test_inputs_follow_the_seed(workload):
    cls = workloads.WORKLOADS[workload]
    a, b, c = cls(5), cls(5), cls(6)
    assert vars(a) == vars(b)
    assert vars(a) != vars(c)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
