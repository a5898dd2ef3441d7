"""Command-line interface: output contracts and exit codes."""

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from references import mp_free_energy

import vertex_expand
from vertex_expand import coulomb, dimer, integrals, model, series, verify
from vertex_expand.cli import (EXIT_CLOSED_PIPE, ORACLE_TOL, build_parser, emit,
                               main)
from vertex_expand.coulomb import KT_BETA_EPS
from vertex_expand.errors import BadInput

# F0(0.5) correctly rounded to a double.  Reference: mpmath at 40 digits of
# (1/2)<arccosh(2 cosh 1 + cos u)>_u - (1/2) ln 2 = 0.53331044624567856784...,
# confirmed by a direct 2-D mpmath.quad of the defining double integral.
F0_HALF = 0.5333104462456786


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def child_env():
    """The environment of a child interpreter that imports this checkout."""
    src = str(Path(vertex_expand.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


class TestFreeEnergy:
    def test_quadrature_json(self, capsys):
        code, out, _ = run(capsys, "free-energy", "--beta-s", "0.5")
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["quantity"] == "free_energy"
        assert rec["value"] == pytest.approx(F0_HALF, abs=1e-12)

    def test_methods_agree(self, capsys):
        _, out_q, _ = run(capsys, "free-energy", "--beta-s", "0.5")
        _, out_s, _ = run(capsys, "free-energy", "--beta-s", "0.5",
                          "--method", "series")
        vq = json_lines(out_q)[0]["value"]
        vs = json_lines(out_s)[0]["value"]
        assert vq == pytest.approx(vs, abs=1e-12)

    def test_finite_method_provenance(self, capsys):
        code, out, _ = run(capsys, "free-energy", "--beta-s", "0.5",
                           "--method", "finite", "--size", "6")
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["provenance"] == "transfer-matrix"
        assert rec["value"] == pytest.approx(0.5334268968760706, abs=1e-12)

    def test_frozen_field_asymptote(self, capsys):
        code, out, _ = run(capsys, "free-energy", "--beta-s", "5")
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["value"] - 5.0 == pytest.approx(0.0, abs=1e-4)

    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "free-energy", "--sweep", "0:0.4:0.2",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + 3 points
        assert lines[0].split(",")[0] == "beta_s"

    def test_sweep_through_critical_point(self, capsys):
        code, out, _ = run(capsys, "free-energy", "--sweep", "0:0.01:0.001")
        assert code == 0
        recs = json_lines(out)
        assert len(recs) == 11
        for rec in recs:
            assert abs(rec["value"] - mp_free_energy(rec["beta_s"])) <= 1e-10

    @pytest.mark.parametrize("option", [["--method", "finite", "--size", "0"],
                                        ["--method", "finite", "--size", "7"],
                                        ["--method", "series", "--terms", "0"],
                                        ["--method", "series",
                                         "--terms", "100000000"],
                                        ["--method", "finite", "--size", "18"]])
    def test_bad_size_or_terms_is_usage_error(self, capsys, option):
        code, out, err = run(capsys, "free-energy", "--beta-s", "0.5", *option)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_terms_at_cap_is_accepted(self, capsys):
        code, out, _ = run(capsys, "free-energy", "--method", "series",
                           "--terms", str(integrals.HEAD_TERMS_CAP),
                           "--beta-s", "0.5")
        assert code == 0
        assert json_lines(out)[0]["value"] == pytest.approx(F0_HALF, rel=1e-14,
                                                            abs=0.0)

    @pytest.mark.parametrize("sweep, count", [
        ("0:1:0.35", 3), ("0:0.7:0.1", 8), ("0.1:1.0:0.1", 10),
        ("0:1:0.1", 11), ("-0.4:0.4:0.2", 5), ("0:50:25", 3),
        ("-0.5:0.5:0.5", 3), ("0.001:1:0.001", 1000)])
    def test_sweep_stops_at_stop(self, capsys, sweep, count):
        # a stop point that the division misses by a rounding is kept;
        # no point passes stop by more than a rounding
        code, out, _ = run(capsys, "free-energy", "--sweep", sweep, "--format",
                           "csv")
        assert code == 0
        start, stop, _ = (float(x) for x in sweep.split(":"))
        points = [float(line.split(",")[0])
                  for line in out.strip().splitlines()[1:]]
        assert len(points) == count
        assert points[-1] <= stop + 1e-15 * max(abs(start), abs(stop))

    def test_bad_sweep_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "free-energy", "--sweep", "1:0:-1")
        assert code == 2

    @pytest.mark.parametrize("sweep", ["0:1e9:1e-9", "0:10000:1", "0:inf:1",
                                       "nan:1:0.1", "0:1:nan", "0:1"])
    def test_unbounded_or_non_finite_sweep_is_usage_error(self, capsys, sweep):
        code, out, err = run(capsys, "free-energy", "--sweep", sweep)
        assert code == 2
        assert out == ""
        assert "--sweep" in err

    def test_sweep_at_point_bound_is_accepted(self, capsys):
        code, _, _ = run(capsys, "free-energy", "--sweep", "0:9999:1",
                         "--quiet")
        assert code == 0

    @pytest.mark.parametrize("option", [["--beta-s", "nan"],
                                        ["--beta-s", "inf"],
                                        ["--beta-s", "-inf"]])
    def test_non_finite_or_non_positive_input_is_usage_error(self, capsys,
                                                             option):
        code, out, err = run(capsys, "free-energy", *option)
        assert code == 2
        assert out == ""
        assert option[0] in err

    def test_tiny_field_matches_mpmath(self, capsys):
        code, out, _ = run(capsys, "free-energy", "--beta-s", "1e-7")
        assert code == 0
        assert abs(json_lines(out)[0]["value"] - mp_free_energy(1e-7)) <= 1e-16

    @pytest.mark.parametrize("beta_s", ["355", "-400", "1e300"])
    def test_large_field_is_frozen(self, capsys, beta_s):
        for method in ("quad", "series"):
            code, out, _ = run(capsys, "free-energy", "--beta-s", beta_s,
                               "--method", method)
            assert code == 0
            assert json_lines(out)[0]["value"] == abs(float(beta_s))

    def test_quiet_suppresses_output(self, capsys):
        code, out, _ = run(capsys, "free-energy", "--beta-s", "0.1", "--quiet")
        assert code == 0
        assert out == ""

    @pytest.mark.parametrize("option", [["--beta-s", "50"],
                                        ["--beta-s", "-50"],
                                        ["--sweep", "0:50:25"]])
    def test_large_finite_field_is_frozen(self, capsys, option):
        # the weights are formed relative to the largest one, so the
        # transfer matrix answers at any finite field, though e^(16 |beta_s|)
        # overflows; f is |beta_s| there, to rounding
        code, out, _ = run(capsys, "free-energy", "--method", "finite",
                           "--size", "8", *option)
        assert code == 0
        for rec in json_lines(out):
            if rec["beta_s"] != 0.0:
                assert rec["value"] == pytest.approx(abs(rec["beta_s"]),
                                                     abs=1e-12)
        code, out, _ = run(capsys, "free-energy", "--method", "finite",
                           "--size", "8", "--beta-s", "44")
        assert code == 0
        assert json_lines(out)[0]["value"] == pytest.approx(44.0, abs=1e-12)


class TestPartition:
    def test_both_oracles_agree(self, capsys):
        code, out, _ = run(capsys, "partition", "--rows", "2", "--cols", "3",
                           "--beta-s", "0.3")
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["log_z_enumerate"] == pytest.approx(
            rec["log_z_pfaffian"], abs=1e-12)

    @pytest.mark.parametrize("shift,exit_code", [(1e-6, 3), (1e-10, 0)])
    def test_oracle_disagreement(self, capsys, monkeypatch, shift,
                                 exit_code):
        # the record prints either way; past ORACLE_TOL it is an error
        assert 1e-10 < ORACLE_TOL < 1e-6
        original = dimer.partition_dimer
        monkeypatch.setattr(dimer, "partition_dimer",
                            lambda kast: original(kast) + shift)
        code, out, err = run(capsys, "partition", "--rows", "2", "--cols",
                             "2", "--beta-s", "0.3")
        assert code == exit_code
        (rec,) = json_lines(out)
        assert rec["abs_diff"] == pytest.approx(shift, rel=1e-3)
        assert err == ("error: oracle disagreement\n" if exit_code else "")

    def test_pfaffian_needs_fixed_boundary(self, capsys):
        code, _, err = run(capsys, "partition", "--rows", "2", "--cols", "2",
                           "--boundary", "periodic", "--oracle", "pfaffian")
        assert code == 2
        assert "fixed" in err

    @pytest.mark.parametrize("size", [["--rows", "0", "--cols", "3"],
                                      ["--rows", "3", "--cols", "2",
                                       "--boundary", "periodic"]])
    def test_bad_lattice_is_usage_error(self, capsys, size):
        code, out, _ = run(capsys, "partition", *size)
        assert code == 2
        assert out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta_s,log_z", [
        ("1500", 6000.0),                   # weight e^750
        ("-1500", -2.0 * math.log(2.0)),
        ("1e300", 4e300)])
    def test_field_past_the_double_weights_is_answered(self, capsys, beta_s,
                                                       log_z):
        # the lattice holds its log weights; only log Z must be a double
        code, out, err = run(capsys, "partition", "--rows", "2", "--cols",
                             "2", "--beta-s", beta_s, "--oracle", "pfaffian")
        assert (code, err) == (0, "")
        (rec,) = json_lines(out)
        assert rec["log_z_pfaffian"] == log_z

    def test_log_z_past_a_double_is_usage_error(self, capsys):
        code, out, err = run(capsys, "partition", "--rows", "2", "--cols",
                             "2", "--beta-s", "1.7e308", "--oracle",
                             "pfaffian")
        assert code == 2
        assert out == ""
        assert "log Z = inf" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("option,log_z", [
        (["--cols", "2", "--beta-s", "400"], 1600.0),
        (["--cols", "2", "--beta-s", "-200", "--boundary", "periodic",
          "--oracle", "enumerate"], 800.0),
        # each weight is finite, but their sum Z overflows
        (["--cols", "4", "--beta-s", "177.4", "--boundary", "periodic",
          "--oracle", "enumerate"], 8 * 177.4)])
    def test_field_past_the_range_of_the_weights_is_answered(
            self, capsys, option, log_z):
        # Z = e^(rows cols |beta_s|) overflows, but neither oracle needs it:
        # the enumerated log Z is max-shifted and log det K sums log pivots
        code, out, err = run(capsys, "partition", "--rows", "2", *option)
        assert (code, err) == (0, "")
        (rec,) = json_lines(out)
        assert rec["log_z_enumerate"] == pytest.approx(log_z, rel=1e-15)
        assert rec.get("log_z_pfaffian", log_z) == log_z

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("size,beta_s,log_z", [
        (["--rows", "1", "--cols", "2"], "-700", -1400.0),
        # enumerate_by_backtracking over the 1322 configurations of 5x5
        (["--rows", "5", "--cols", "5"], "-480", 3355.84111691664),
        (["--rows", "2", "--cols", "2"], "-1419", -2.0 * math.log(2.0)),
        (["--rows", "3", "--cols", "4"], "-400", -3.0 * math.log(2.0))])
    def test_large_negative_field_is_answered(self, capsys, size, beta_s,
                                              log_z):
        # B scaled by the matching duals keeps its LU exact where the
        # weights C and u lie hundreds of orders of magnitude apart
        code, out, err = run(capsys, "partition", *size, "--beta-s", beta_s,
                             "--oracle", "pfaffian")
        assert (code, err) == (0, "")
        (rec,) = json_lines(out)
        assert rec["log_z_pfaffian"] == pytest.approx(
            log_z, rel=1e-14, abs=1e-13)

    @pytest.mark.parametrize("option", [
        ["--beta-s", "177.4"],       # Z = e^709.6, just below DBL_MAX
        ["--beta-s", "-400", "--oracle", "enumerate"],
        ["--beta-s", "1418", "--oracle", "pfaffian"]])
    def test_field_below_the_overflow_is_accepted(self, capsys, option):
        # on the fixed boundary at beta_s < 0 the favoured reversed ground
        # state is forbidden, so the enumerated weights stay small
        code, out, _ = run(capsys, "partition", "--rows", "2", "--cols", "2",
                           *option)
        assert code == 0
        (rec,) = json_lines(out)
        assert all(math.isfinite(rec[key]) for key in
                   ("log_z_enumerate", "log_z_pfaffian") if key in rec)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("size,beta_s,log_z", [
        (["--rows", "4", "--cols", "4"], "-200", 795.8411169166405),
        (["--rows", "1", "--cols", "1"], "-750", -750.0)])
    def test_enumeration_past_the_range_of_z(self, capsys, size, beta_s,
                                             log_z):
        # Z itself overflows (4x4) or underflows (1x1); log Z does not
        code, out, err = run(capsys, "partition", *size, "--beta-s", beta_s)
        assert (code, err) == (0, "")
        assert "Infinity" not in out and "NaN" not in out
        (rec,) = json_lines(out)
        assert rec["log_z_enumerate"] == log_z
        assert rec["log_z_pfaffian"] == pytest.approx(log_z, abs=1e-12)

    def test_tol_is_not_an_option(self, capsys):
        code, out, err = run(capsys, "partition", "--rows", "2", "--cols",
                             "2", "--tol", "1e-3")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --tol" in err

    @pytest.mark.parametrize("size", [
        ["--rows", "4", "--cols", "4"],            # 24 free edges
        ["--rows", "2", "--cols", "6", "--boundary", "periodic",
         "--oracle", "enumerate"]])
    def test_enumeration_at_edge_bound_is_accepted(self, capsys, size):
        code, out, _ = run(capsys, "partition", *size)
        assert code == 0
        assert math.isfinite(json_lines(out)[0]["log_z_enumerate"])

    @pytest.mark.parametrize("size", [
        ["--rows", "5", "--cols", "5"],            # 40 free edges
        ["--rows", "4", "--cols", "4", "--boundary", "periodic",
         "--oracle", "enumerate"],                 # 32
        ["--rows", "2", "--cols", "9", "--oracle", "enumerate"]])  # 25
    def test_enumeration_past_edge_bound_is_usage_error(self, capsys, size):
        code, out, err = run(capsys, "partition", *size)
        assert code == 2
        assert out == ""
        assert "enumeration bound" in err

    def test_pfaffian_alone_is_not_bounded_by_enumeration(self, capsys):
        code, _, _ = run(capsys, "partition", "--rows", "5", "--cols", "5",
                         "--oracle", "pfaffian")
        assert code == 0

    def test_enumerate_periodic_ok(self, capsys):
        code, out, _ = run(capsys, "partition", "--rows", "2", "--cols", "4",
                           "--beta-s", "0.5", "--boundary", "periodic",
                           "--oracle", "enumerate")
        assert code == 0
        (rec,) = json_lines(out)
        assert "log_z_pfaffian" not in rec


class TestConstrained:
    def test_site_probabilities(self, capsys):
        code, out, _ = run(capsys, "constrained", "--rows", "3", "--cols", "3",
                           "--beta-s", "0.3", "--site", "1", "1")
        assert code == 0
        recs = json_lines(out)
        total = [r for r in recs
                 if r["quantity"] == "vertex_state_probability_sum"]
        assert total[0]["value"] == pytest.approx(1.0, abs=1e-10)

    def test_without_selection_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "constrained", "--rows", "3", "--cols", "3")
        assert code == 2

    def test_non_interior_site_is_usage_error(self, capsys):
        # rows=2 has no interior site
        code, _, err = run(capsys, "constrained", "--rows", "2", "--cols", "3",
                           "--site", "1", "1")
        assert code == 2
        assert "interior" in err

    @pytest.mark.parametrize("edge", ["--edge=9999:1", "--edge=-1:1",
                                      "--edge=48:1"])
    def test_edge_index_out_of_range_is_usage_error(self, capsys, edge):
        # 3x3 has 48 edges: indices run from 0 to 47
        code, out, err = run(capsys, "constrained", "--rows", "3",
                             "--cols", "3", edge)
        assert code == 2
        assert out == ""
        assert "outside [0, 48)" in err

    def test_edge_occupation_not_0_or_1_is_usage_error(self, capsys):
        code, out, _ = run(capsys, "constrained", "--rows", "3", "--cols", "3",
                           "--edge", "3:2")
        assert code == 2
        assert out == ""

    def test_corner_site_is_usage_error(self, capsys):
        code, out, err = run(capsys, "constrained", "--rows", "3",
                             "--cols", "3", "--site", "0", "0")
        assert code == 2
        assert out == ""
        assert "interior" in err

    @pytest.mark.parametrize("size", [["--rows", "0", "--cols", "3"],
                                      ["--rows", "3", "--cols", "-1"]])
    def test_empty_lattice_is_usage_error(self, capsys, size):
        code, out, _ = run(capsys, "constrained", *size, "--edge", "0:1")
        assert code == 2
        assert out == ""


    def test_repeated_edge_is_usage_error(self, capsys):
        code, out, err = run(capsys, "constrained", "--rows", "3", "--cols",
                             "3", "--edge", "0:1", "--edge", "0:0")
        assert code == 2
        assert out == ""
        assert "twice" in err

    @pytest.mark.parametrize("option,ratios", [
        # an mpmath-weighted sum over the 1322 ice configurations of 5x5
        # gives P(5) = 1 and the other states below 1e-695
        (["--site", "2", "2", "--beta-s", "-400"], [0, 0, 0, 0, 1, 0]),
        # the weights e^(+-750) are past a double; their logs are not
        (["--site", "2", "2", "--beta-s", "-1500"], [0, 0, 0, 0, 1, 0]),
        (["--site", "2", "2", "--beta-s", "1500"], [0, 0, 0, 0, 0, 1]),
        # both frozen corner cities are line-free, and one of the two
        # completions of each diamond holds its B-L edge
        (["--edge", "3:1", "--edge", "7:1", "--beta-s", "720"], [0.25]),
        # one of the two completions of the diamond, each u^2
        (["--edge", "40:0", "--beta-s", "1419"], [0.5]),
        # a sum over the ice configurations of 5x5, each city's diamond
        # completing its lines, gives 0.25 at beta_s = -20 and -90 alike
        (["--edge", "3:1", "--edge", "5:0", "--beta-s", "-300"], [0.25]),
        (["--edge", "3:1", "--edge", "5:0", "--beta-s", "-355"], [0.25])])
    def test_frozen_field_is_answered(self, capsys, option, ratios):
        code, out, _ = run(capsys, "constrained", "--rows", "5", "--cols",
                           "5", *option)
        assert code == 0
        assert [rec["ratio"] for rec in json_lines(out) if "ratio" in rec] == (
            pytest.approx(ratios, rel=1e-14, abs=0.0))

    def test_inverse_below_the_overflow_is_accepted(self, capsys):
        code, out, _ = run(capsys, "constrained", "--rows", "5", "--cols", "5",
                           "--beta-s", "-250", "--edge", "3:1", "--edge", "5:0")
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["ratio"] == pytest.approx(0.25, rel=1e-14, abs=0.0)
        assert math.isfinite(rec["log_z"])
        code, out, _ = run(capsys, "partition", "--rows", "5", "--cols", "5",
                           "--beta-s", "-250", "--oracle", "pfaffian")
        assert code == 0
        log_z = json_lines(out)[0]["log_z_pfaffian"]
        assert rec["log_z"] == pytest.approx(log_z + math.log(rec["ratio"]),
                                             abs=1e-12)

    def test_site_field_below_the_overflow_is_accepted(self, capsys):
        # at beta_s > 0 the site sums multiply only external weights below 1
        code, out, _ = run(capsys, "constrained", "--rows", "5", "--cols", "5",
                           "--site", "2", "2", "--beta-s", "1419")
        assert code == 0
        assert json_lines(out)[-1]["value"] == 1.0

    @pytest.mark.parametrize("shape,edges", [
        (["3", "3"], ["--edge", "0:1", "--edge", "1:1"]),  # share node T
        (["3", "3"], ["--edge", "0:1", "--edge", "3:1", "--edge", "40:0"]),
        # only a global count rules this set out, not forced moves
        *[(["4", "6", "--beta-s", beta_s],
           ["--edge", "2:0", "--edge", "56:0", "--edge", "29:1",
            "--edge", "113:1", "--edge", "47:1"]) for beta_s in ("0", "-1")]])
    def test_unsatisfiable_edges_are_usage_error(self, capsys, shape, edges):
        code, out, err = run(capsys, "constrained", "--rows", shape[0],
                             "--cols", *shape[1:], *edges)
        assert code == 2
        assert out == ""
        assert "no matching satisfies the --edge constraints" in err

    @pytest.mark.parametrize("beta_s", ["1.1", "0", "0.3", "-0.7"])
    def test_constraints_that_cancel_are_usage_error(self, capsys, beta_s):
        # in a lone city the L-T dimer forces R-B, so P(0) - P(0 and 2)
        # cancels; its rounding residue is no ratio
        code, out, err = run(capsys, "constrained", "--rows", "1", "--cols",
                             "1", "--beta-s", beta_s, "--edge", "0:1",
                             "--edge", "2:0")
        assert code == 2
        assert out == ""
        assert "no matching satisfies the --edge constraints" in err

    def test_tiny_state_ratio_is_printed(self, capsys):
        # a dense mpmath determinant at 400 digits gives state 4
        # 1.0829108327072486e-34, which the fast determinant rounded below 0
        code, out, _ = run(capsys, "constrained", "--rows", "4", "--cols",
                           "6", "--beta-s", "-10", "--site", "2", "4")
        assert code == 0
        ratios = [rec["ratio"] for rec in json_lines(out) if "ratio" in rec]
        assert len(ratios) == 6 and min(ratios) > 0.0
        assert ratios[3] == pytest.approx(1.0829108327072486e-34, rel=1e-12,
                                          abs=0.0)

    def test_underflowing_ratio_prints_its_log(self, capsys):
        # 2x2 at beta_s = -400: matchings hold internal edge 8, but their
        # share of Z is below e^-745; an mpmath sum over them gives
        # ln r = -1599.30685281944006, so log Z^cons = -1600 - ln 2
        code, out, _ = run(capsys, "constrained", "--rows", "2", "--cols",
                           "2", "--beta-s", "-400", "--edge", "8:1")
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["ratio"] == 0.0
        assert rec["log_z"] == pytest.approx(-1600.69314718055995, rel=1e-12,
                                             abs=0.0)

    def test_too_many_edges_is_usage_error(self, capsys):
        edges = [f"--edge={i}:1" for i in range(6)]
        code, out, err = run(capsys, "constrained", "--rows", "3", "--cols",
                             "3", *edges)
        assert code == 2
        assert out == ""
        assert "at most 5" in err

    @pytest.mark.parametrize("boundary", ["fixed", "periodic"])
    def test_boundary_is_only_a_partition_option(self, capsys, boundary):
        code, out, err = run(capsys, "constrained", "--rows", "3", "--cols",
                             "3", "--site", "1", "1", "--boundary", boundary)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --boundary" in err


class TestPerturb:
    def test_non_finite_coupling_is_usage_error(self, capsys):
        code, out, err = run(capsys, "perturb", "--u", "nan")
        assert code == 2
        assert out == ""
        assert "--u" in err

    def test_large_field(self, capsys):
        code, out, _ = run(capsys, "perturb", "--beta-s", "-400", "--u", "0.1")
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["f0"] == rec["free_energy"] == 400.0

    @pytest.mark.parametrize("beta_s", ["-400", "-20", "20", "400"])
    def test_frozen_coefficient_is_positive_zero(self, capsys, beta_s):
        # 1 - Za/Z0 - Zb/Z0 is 1 - 1 - 0 at a frozen field
        code, out, _ = run(capsys, "perturb", "--beta-s", beta_s, "--u", "0.1")
        assert code == 0
        assert '"coefficient_constrained": 0.0,' in out
        assert "-0.0" not in out


EXTREME_FIELDS = [sign + value for value in ("1e-300", "50", "400", "800",
                                             "1419.3", "1500", "1e300",
                                             "1.7e308")
                  for sign in ("", "-")]

EXTREME_COMMANDS = {
    "quad": ["free-energy"],
    "series": ["free-energy", "--method", "series", "--terms", "1"],
    "finite": ["free-energy", "--method", "finite", "--size", "4"],
    "perturb": ["perturb", "--u", "{beta_s}"],
    **{oracle: ["partition", "--rows", "2", "--cols", "2", "--oracle", oracle]
       for oracle in ("enumerate", "pfaffian", "both")},
    "periodic": ["partition", "--rows", "2", "--cols", "2", "--boundary",
                 "periodic", "--oracle", "enumerate"],
    "site": ["constrained", "--rows", "3", "--cols", "3", "--site", "1", "1"],
    "occupied": ["constrained", "--rows", "3", "--cols", "3", "--edge", "3:1"],
    "empty": ["constrained", "--rows", "3", "--cols", "3", "--edge", "40:0"],
}


def strict_json_lines(out):
    def reject(name):
        raise AssertionError(f"non-JSON constant {name}")
    return [json.loads(line, parse_constant=reject)
            for line in out.splitlines()]


class TestExtremeFields:
    """Every command answers or exits 2 at any finite field: a path that
    would form a non-finite number says so, and nothing else reaches the
    user (no traceback, no warning, no exit 3)."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta_s", EXTREME_FIELDS)
    @pytest.mark.parametrize("command", EXTREME_COMMANDS)
    def test_exits_0_or_2(self, capsys, command, beta_s):
        argv = [a.format(beta_s=beta_s) for a in EXTREME_COMMANDS[command]]
        code, out, err = run(capsys, *argv, "--beta-s", beta_s)
        assert code in (0, 2), err
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            return
        recs = strict_json_lines(out)
        field = float(beta_s)
        if abs(field) < 50.0:
            return
        # frozen: f is |beta_s| and log Z of the 2x2 lattice 4 |beta_s|, but
        # at beta_s < 0 the fixed boundary forbids the reversed ground state
        # and its best configuration, four vertices in states 1-4, has
        # log Z = -4 beta_eps = -2 ln 2
        for rec in recs:
            if rec["quantity"] == "free_energy":
                assert rec["value"] == pytest.approx(abs(field), rel=1e-15)
            elif rec["quantity"] == "first_order_free_energy":
                assert rec["f0"] == rec["free_energy"] == abs(field)
            elif rec["quantity"] == "log_partition":
                frozen = (4.0 * abs(field) if command == "periodic"
                          or field > 0.0 else -2.0 * math.log(2.0))
                for key in ("log_z_enumerate", "log_z_pfaffian"):
                    if key in rec:
                        assert rec[key] == pytest.approx(frozen, rel=1e-15,
                                                         abs=1e-12)
            elif rec["quantity"] == "vertex_state_probability_sum":
                assert rec["value"] == pytest.approx(1.0, abs=1e-12)


class TestSeriesAndCoulomb:
    def test_series_exact_fractions(self, capsys):
        code, out, _ = run(capsys, "series", "--target", "sng", "--order", "8")
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["coefficients"]["8"] == "-593/5040"
        assert rec["scale"] == {"rational": "-2", "pi_power": 1}

    def test_b2_past_the_paper_order(self, capsys):
        code, out, _ = run(capsys, "series", "--target", "b2", "--order", "8")
        assert code == 0
        assert '"8": "-377/315"' in out

    @pytest.mark.parametrize("target,order", [("sng", 99), ("sng", 7),
                                              ("sng", 66), ("b2", 7),
                                              ("b2", 66), ("fst", -1),
                                              ("fst", 33), ("stirling", 17)])
    def test_order_outside_cap_is_usage_error(self, capsys, target, order):
        code, out, err = run(capsys, "series", "--target", target,
                             "--order", str(order))
        assert code == 2
        assert out == ""
        assert err.startswith("error: order")

    # the caps, and the paper's orders below them
    @pytest.mark.parametrize("target,order", [("stirling", 16), ("fst", 8),
                                              ("fst", 32), ("sng", 8),
                                              ("sng", 64), ("b2", 6),
                                              ("b2", 8), ("b2", 64)])
    def test_order_at_cap_is_accepted(self, capsys, target, order):
        code, out, _ = run(capsys, "series", "--target", target,
                           "--order", str(order))
        assert code == 0
        assert json_lines(out)[0]["order"] == order

    def test_t_map_target_is_gone(self, capsys):
        code, out, err = run(capsys, "series", "--target", "t-map",
                             "--order", "4")
        assert code == 2
        assert out == ""
        assert "invalid choice: 't-map'" in err

    @pytest.mark.parametrize("order", ["-1", "5"])
    def test_coulomb_order_outside_cap_is_usage_error(self, capsys, order):
        code, out, _ = run(capsys, "coulomb", "--beta-eps", "0.3",
                           "--expand", order)
        assert code == 2
        assert out == ""

    def test_coulomb_expansion(self, capsys):
        code, out, _ = run(capsys, "coulomb", "--expand", "2")
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["coefficients"][1] == {"1": "-8"}

    def test_coulomb_non_finite_beta_eps_is_usage_error(self, capsys):
        code, out, err = run(capsys, "coulomb", "--beta-eps", "nan")
        assert code == 2
        assert out == ""
        assert "--beta-eps" in err

    @pytest.mark.parametrize("beta_eps", ["-0.3", repr(KT_BETA_EPS)])
    def test_divergent_exponent_is_null(self, capsys, beta_eps):
        code, out, _ = run(capsys, "coulomb", "--beta-eps", beta_eps)
        assert code == 0
        assert '"exponent": null' in out
        assert json_lines(out)[0]["exponent"] is None

    def test_exponent_at_ln2(self, capsys):
        code, out, _ = run(capsys, "coulomb", "--beta-eps",
                           repr(math.log(2.0)))
        assert code == 0
        assert '"exponent": 1.3333333333333333' in out

    @pytest.mark.parametrize("beta_eps", ["0.7", "1e300"])
    def test_beta_eps_above_ln2_is_usage_error(self, capsys, beta_eps):
        code, out, err = run(capsys, "coulomb", "--beta-eps", beta_eps)
        assert code == 2
        assert out == ""
        assert "above ln 2" in err and "Traceback" not in err

    def test_coulomb_requires_a_request(self, capsys):
        code, _, _ = run(capsys, "coulomb")
        assert code == 2


#: the text before the ``:`` of each line of ``verify --suite all``, in order
VERIFY_NAMES = [
    *(f"PASS [kasteleyn] pfaffian-vs-matchings {rows}x{cols} beta_s={beta_s}"
      for rows, cols in [(1, 1), (2, 2), (2, 3), (3, 3)]
      for beta_s in (-0.5, 0.0, 0.3)),
    "PASS [kasteleyn] pfaffian-vs-enumeration 3x4 beta_s=-400",
    "PASS [kasteleyn] mapping-equivalence 2x2",
    "PASS [kasteleyn] mapping-equivalence 2x3",
    "PASS [kasteleyn] mapping-equivalence 3x3",
    "PASS [kasteleyn] constrained-orders-1-2 2x2",
    "PASS [kasteleyn] constrained-5-edge-inclusion-exclusion 2x2",
    "PASS [identity] free-energy quad-vs-series beta_s=0.0",
    "PASS [identity] free-energy quad-vs-series beta_s=0.1",
    "PASS [identity] free-energy quad-vs-transfer beta_s=0.5",
    "PASS [identity] free-energy quad-vs-pfaffian beta_s=0.3",
    "PASS [identity] free-energy quad-vs-pfaffian beta_s=0.5",
    "PASS [identity] free-energy quad-vs-pfaffian beta_s=1.0",
    "PASS [identity] vertex-ratios 32x32-vs-integrals beta_s=0.5",
    "PASS [identity] vertex-ratios 32x32-vs-integrals beta_s=1.0",
    "PASS [identity] dF/dU transfer-vs-analytic beta_s=0.5",
    "PASS [series] stirling-bracket",
    "PASS [series] singular-t-series",
    "PASS [series] singular-betas-series",
    "PASS [series] b2-series",
    "PASS [coulomb] exponent-at-free-fermion",
    "PASS [coulomb] exponent-divergence-at-kt",
    "PASS [coulomb] kt-threshold-closed-form",
    "PASS [coulomb] exponent-u-slope",
    "PASS [coulomb] ln2-amplitude-prediction-vs-computed"]


def failed_checks(out):
    """The text before the ``:`` of each FAIL line of ``verify``."""
    return [line.split(":")[0] for line in out.splitlines()
            if line.startswith("FAIL ")]


class TestVerify:
    def test_series_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "series")
        assert code == 0
        assert out.strip().splitlines()[-1] == "OK"
        assert all(line.startswith("PASS")
                   for line in out.strip().splitlines()[:-1])

    def test_coulomb_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "coulomb")
        assert code == 0

    def test_mutated_pfaffian_fails_kasteleyn_suite(self, capsys, monkeypatch):
        # a wrong determinant must be caught and attributed to the suite
        from vertex_expand import dimer
        original = dimer.partition_dimer
        monkeypatch.setattr(dimer, "partition_dimer",
                            lambda kast: original(kast) + 0.05)
        code, out, _ = run(capsys, "verify", "--suite", "kasteleyn")
        assert code == 1
        assert "FAIL [kasteleyn]" in out
        assert out.strip().splitlines()[-1] == "FAILED"

    def test_shifted_zb_ratio_fails_vertex_ratios(self, capsys, monkeypatch):
        # za_ratio reads zb_ratio through the module, so the centre site's
        # states 5 and 6 both disagree by 1e-12 relative
        original = integrals.zb_ratio
        monkeypatch.setattr(integrals, "zb_ratio",
                            lambda beta_s: original(beta_s) * (1 + 1e-12))
        code, out, _ = run(capsys, "verify", "--suite", "identity")
        assert code == 1
        assert failed_checks(out) == [
            "FAIL [identity] vertex-ratios 32x32-vs-integrals beta_s=0.5",
            "FAIL [identity] vertex-ratios 32x32-vs-integrals beta_s=1.0"]

    def test_shifted_pfaffian_limit_fails_quad_vs_pfaffian(self, capsys,
                                                           monkeypatch):
        original = verify._extrapolated_pfaffian
        monkeypatch.setattr(verify, "_extrapolated_pfaffian",
                            lambda beta_s: original(beta_s) + 1e-9)
        code, out, _ = run(capsys, "verify", "--suite", "identity")
        assert code == 1
        assert failed_checks(out) == [
            f"FAIL [identity] free-energy quad-vs-pfaffian beta_s={beta_s}"
            for beta_s in (0.3, 0.5, 1.0)]

    @pytest.mark.parametrize("shift, tilt, name", [
        # a constant cancels in the dF/dU difference
        (1e-5, 0.0, "free-energy quad-vs-transfer beta_s=0.5"),
        # f(U = 0) stays, and the slope moves by 1e-3
        (0.0, 1e-3, "dF/dU transfer-vs-analytic beta_s=0.5")])
    def test_moved_transfer_fails_its_line(self, capsys, monkeypatch, shift,
                                           tilt, name):
        # each move is 10x its line's bound
        original = model.transfer_matrix_free_energy

        def moved(params):
            result = original(params)
            u = params.beta_eps - model.FREE_FERMION_BETA_EPS
            return dataclasses.replace(
                result, free_energy=result.free_energy + shift + tilt * u)

        monkeypatch.setattr(model, "transfer_matrix_free_energy", moved)
        code, out, _ = run(capsys, "verify", "--suite", "identity")
        assert code == 1
        assert failed_checks(out) == [f"FAIL [identity] {name}"]

    def test_shifted_series_fails_quad_vs_series(self, capsys, monkeypatch):
        original = integrals.baxter_series

        def shifted(beta_s, n_max):
            value, bound = original(beta_s, n_max)
            return value + 1e-14, bound

        monkeypatch.setattr(integrals, "baxter_series", shifted)
        code, out, _ = run(capsys, "verify", "--suite", "identity")
        assert code == 1
        assert failed_checks(out) == [
            f"FAIL [identity] free-energy quad-vs-series beta_s={beta_s}"
            for beta_s in (0.0, 0.1)]

    def test_shifted_pfaffian_fails_pfaffian_vs_matchings(self, capsys,
                                                          monkeypatch):
        # log Z + 1e-13 is Z times 1 + 1e-13, 10x the relative bound; the
        # enumeration and mapping lines allow it
        original = dimer.partition_dimer
        monkeypatch.setattr(dimer, "partition_dimer",
                            lambda kast: original(kast) + 1e-13)
        code, out, _ = run(capsys, "verify", "--suite", "kasteleyn")
        assert code == 1
        assert failed_checks(out) == [
            name.replace("PASS", "FAIL", 1) for name in VERIFY_NAMES
            if "pfaffian-vs-matchings" in name]

    @pytest.mark.parametrize("orders, name", [
        ((1, 2), "constrained-orders-1-2 2x2"),
        ((5,), "constrained-5-edge-inclusion-exclusion 2x2")])
    def test_shifted_constrained_ratio_fails_its_line(self, capsys,
                                                      monkeypatch, orders,
                                                      name):
        # the ratios of constraint sets of these sizes move by 10x the bound
        original = dimer.constrained_ratio
        monkeypatch.setattr(
            dimer, "constrained_ratio",
            lambda kast, cons: original(kast, cons)
            + (1e-14 if len(cons) in orders else 0.0))
        code, out, _ = run(capsys, "verify", "--suite", "kasteleyn")
        assert code == 1
        assert failed_checks(out) == [f"FAIL [kasteleyn] {name}"]

    def test_all_prints_the_pinned_check_names(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == VERIFY_NAMES
        assert lines[-1] == "OK"

    def test_mutated_ground_mask_fails_mapping_check(self, capsys,
                                                     monkeypatch):
        # a line set one bit off breaks the ice rule, so every configuration
        # weighs 0 on the dimer side
        from vertex_expand import model
        original = model.ground_state_mask
        monkeypatch.setattr(model, "ground_state_mask",
                            lambda params: original(params) ^ 1)
        code, out, _ = run(capsys, "verify", "--suite", "kasteleyn")
        assert code == 1
        assert any(line.startswith("FAIL [kasteleyn] mapping-equivalence")
                   for line in out.splitlines())
        assert out.strip().splitlines()[-1] == "FAILED"

    def test_vertical_edges_out_of_order_fail_mapping_check(self, capsys,
                                                            monkeypatch):
        # the vertical free edges numbered column-major: 2x2 and 2x3 have
        # one row of them and cannot tell, 3x3 has two
        original = model._edge_layout

        def column_major(params):
            slots, fixed = original(params)
            n, m = params.rows, params.cols
            first = n * (m - 1)  # the vertical free edges come after these
            vertical = slots >= first
            row, col = divmod(slots[vertical] - first, m)
            slots[vertical] = first + col * (n - 1) + row
            return slots, fixed

        monkeypatch.setattr(model, "_edge_layout", column_major)
        code, out, _ = run(capsys, "verify", "--suite", "kasteleyn")
        assert code == 1
        assert any(line.startswith("FAIL [kasteleyn] mapping-equivalence 3x3")
                   for line in out.splitlines())

    def test_mutated_slope_fails_coulomb_suite(self, capsys, monkeypatch):
        # a wrong slope is reported by both checks that read it, with
        # every other check's line, and nothing goes to stderr
        monkeypatch.setattr(coulomb, "exponent_u_slope",
                            lambda: series.PiRational(Fraction(-7), 1))
        code, out, err = run(capsys, "verify", "--suite", "coulomb")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 6
        assert any(line.startswith(
            "FAIL [coulomb] ln2-amplitude-prediction-vs-computed")
            for line in lines)
        assert lines[-1] == "FAILED"
        assert err == ""

    def test_format_is_usage_error(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "series", "--format",
                           "csv")
        assert code == 2
        assert out == ""


#: commands whose stdout is the same under every OpenBLAS kernel and
#: thread count
KERNEL_COMMANDS = [
    ["verify", "--suite", "all"],
    ["constrained", "--rows", "4", "--cols", "6", "--beta-s", "-10",
     "--site", "2", "4"],
    ["constrained", "--rows", "5", "--cols", "5", "--beta-s", "0.3",
     "--edge", "40:1", "--edge", "41:0", "--edge", "55:1"],
    ["partition", "--rows", "128", "--cols", "128", "--beta-s", "-0.5",
     "--oracle", "pfaffian"],
    ["perturb", "--beta-s", "0.5", "--u", "0.01"],
    ["free-energy", "--sweep", "0:1:0.1"]]


def dynamic_openblas():
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, whose
    kernel ``OPENBLAS_CORETYPE`` chooses per process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dicts mode
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


class TestKernels:
    """The same bytes under every OpenBLAS kernel and thread count.

    Each setting runs ``KERNEL_COMMANDS`` through ``main`` in a child
    interpreter of its own.  Left out because their last digits move with
    the kernel today: ``constrained --rows 13 --cols 13 --beta-s 0.3
    --site 6 6``, whose state 6 differs under Sandybridge, and the centre
    site of a 64x64 lattice at beta_s = 0.3, whose state 5 lies
    1.388e-17 from Zb/Z0 by default and 2.429e-17 under Prescott."""

    @pytest.mark.skipif(platform.machine() != "x86_64",
                        reason="OPENBLAS_CORETYPE names x86_64 kernels")
    @pytest.mark.skipif(not dynamic_openblas(),
                        reason="numpy's BLAS is not an OpenBLAS built with "
                               "DYNAMIC_ARCH, so it has one kernel only")
    def test_commands_print_the_same_bytes(self):
        script = ("import json, sys\n"
                  "from vertex_expand.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    assert main(argv) == 0, argv\n")
        outputs = {}
        for coretype, threads in itertools.product(
                (None, "Prescott", "Sandybridge"), ("1", "2")):
            env = child_env()
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run(
                [sys.executable, "-c", script, json.dumps(KERNEL_COMMANDS)],
                capture_output=True, text=True, env=env, check=True)
            outputs.setdefault(done.stdout, []).append((coretype, threads))
        assert len(outputs) == 1, list(outputs.values())


#: the packages the exact-arithmetic commands must not load
HEAVY = ("numpy", "scipy", "mpmath")


def modules_loaded(argv, packages=HEAVY):
    """Names of the modules of ``packages`` in ``sys.modules`` after
    ``import vertex_expand.cli`` and, unless ``argv`` is None,
    ``main(argv)`` in a fresh interpreter."""
    script = ("import contextlib, io, json, sys\n"
              "from vertex_expand.cli import main\n"
              "argv = json.loads(sys.argv[1])\n"
              "if argv is not None:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert main(argv) == 0\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          capture_output=True, text=True, env=child_env(),
                          check=True)
    return {name for name in json.loads(done.stdout)
            if name.split(".")[0] in packages}


class TestImports:
    """Each command loads only the modules on the path it runs."""

    @pytest.mark.parametrize("argv", [
        None,
        ["series", "--target", "sng"],
        ["coulomb", "--expand", "2"],
        ["verify", "--suite", "series"],
        ["verify", "--suite", "coulomb"]])
    def test_exact_arithmetic_loads_no_numerics(self, argv):
        assert modules_loaded(argv) == set()

    @pytest.mark.parametrize("argv", [
        ["free-energy", "--beta-s", "0.5"],
        ["free-energy", "--sweep", "0:1:0.1"],
        ["perturb", "--beta-s", "0.5", "--u", "0.01"]])
    def test_thermodynamics_loads_no_numerics(self, argv):
        assert modules_loaded(argv) == set()

    @pytest.mark.parametrize("argv", [
        ["free-energy", "--beta-s", "0.5"],
        ["free-energy", "--method", "finite", "--size", "8"]])
    def test_free_energy_loads_no_scipy(self, argv):
        assert not {m for m in modules_loaded(argv)
                    if m.split(".")[0] == "scipy"}

    @pytest.mark.parametrize("argv", [
        ["partition", "--rows", "3", "--cols", "3"],
        ["constrained", "--rows", "5", "--cols", "5", "--site", "2", "2"],
        ["free-energy", "--method", "finite", "--size", "8"]])
    def test_lattice_commands_load_no_special_functions(self, argv):
        assert not {m for m in modules_loaded(argv)
                    if m.startswith(("scipy.special", "mpmath"))}

    @pytest.mark.parametrize("argv", [
        ["partition", "--rows", "3", "--cols", "3"],
        ["constrained", "--rows", "5", "--cols", "5", "--site", "2", "2"],
        ["free-energy", "--method", "finite", "--size", "8"]])
    def test_lattice_commands_load_no_exact_series(self, argv):
        assert not modules_loaded(argv, ("vertex_expand",)) & {
            "vertex_expand.series", "vertex_expand.coulomb"}

    @pytest.mark.parametrize("beta_s", ["0.5", "-0.5", "1", "-1"])
    def test_series_where_the_tail_underflows_loads_no_mpmath(self, beta_s):
        # z^2001 underflows to 0.0 from |beta_s| = 0.3147 on, so the Lerch
        # tails are skipped
        loaded = modules_loaded(["free-energy", "--method", "series",
                                 "--beta-s", beta_s],
                                HEAVY + ("vertex_expand",))
        assert not {m for m in loaded if m.split(".")[0] == "mpmath"}
        assert "vertex_expand.series" not in loaded

    def test_series_below_the_tail_underflow_loads_mpmath(self):
        loaded = modules_loaded(["free-energy", "--method", "series",
                                 "--beta-s", "0.1"])
        assert {m.split(".")[0] for m in loaded} == {"mpmath"}

    def test_series_at_critical_point_loads_only_mpmath(self):
        # the Lerch transcendent serves z = 1 too, with no Hurwitz zeta
        loaded = modules_loaded(["free-energy", "--method", "series",
                                 "--beta-s", "0"])
        assert {m.split(".")[0] for m in loaded} == {"mpmath"}

    def test_verify_loads_no_special_functions(self):
        assert not {m for m in modules_loaded(["verify", "--suite", "all"])
                    if m.startswith("scipy.special")}

    def test_cli_import_loads_no_command_module(self):
        assert modules_loaded(None, ("vertex_expand",)) == {
            "vertex_expand", "vertex_expand.cli", "vertex_expand.errors"}

    @pytest.mark.parametrize("argv", [
        ["free-energy", "--beta-s", "0.5"],
        ["free-energy", "--sweep", "0:1:0.1"],
        ["perturb", "--beta-s", "0.5", "--u", "0.01"]])
    def test_thermodynamics_loads_no_exact_series(self, argv):
        assert not modules_loaded(argv, ("vertex_expand",)) & {
            "vertex_expand.series", "vertex_expand.coulomb",
            "vertex_expand.verify"}

    @pytest.mark.parametrize("argv", [
        ["series", "--target", "sng"],
        ["coulomb", "--expand", "2"]])
    def test_exact_arithmetic_loads_no_verify_or_integrals(self, argv):
        assert not modules_loaded(argv, ("vertex_expand",)) & {
            "vertex_expand.verify", "vertex_expand.integrals"}

    def test_suite_choices_are_the_verify_suites(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        (suite,) = [action for action in sub.choices["verify"]._actions
                    if action.dest == "suite"]
        assert suite.choices == ("all",) + tuple(verify.SUITES)


class TestContracts:
    def test_unknown_command(self, capsys):
        assert run(capsys, "does-not-exist")[0] == 2

    def test_closed_pipe_exits_quietly(self):
        # 1000 records, about 120 kB: more than a pipe and the reader's
        # buffer hold, so the command is still printing when the reader goes
        proc = subprocess.Popen(
            [sys.executable, "-m", "vertex_expand.cli", "free-energy",
             "--sweep", "0.001:1:0.001"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        assert json.loads(proc.stdout.readline())["beta_s"] == 0.001
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_CLOSED_PIPE
        assert err == b""

    @pytest.mark.parametrize("argv,key,value", [
        (["free-energy", "--sweep", "-0.5:0.5:0.5"], "beta_s", -0.5),
        (["free-energy", "--beta-s", "-1e-3"], "beta_s", -1e-3),
        (["perturb", "--u", "-1e-2"], "u", -1e-2)])
    def test_negative_numbers_in_exponent_form(self, capsys, argv, key,
                                               value):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert json_lines(out)[0][key] == value

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2

    @pytest.mark.parametrize("argv", [
        ["free-energy", "--beta-s", "0.5", "--tol", "1e-14"],
        ["series", "--tol", "1"],
        ["perturb", "--tol", "1e-3"]])
    def test_tol_is_only_a_partition_option(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert out == ""

    def test_seed_is_not_an_option(self, capsys):
        code, out, _ = run(capsys, "free-energy", "--beta-s", "0.5",
                           "--seed", "1")
        assert code == 2
        assert out == ""

    def test_repeat_runs_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "perturb", "--beta-s", "0.5", "--u", "0.01")
        _, out2, _ = run(capsys, "perturb", "--beta-s", "0.5", "--u", "0.01")
        assert out1 == out2

    def test_float_precision_17_digits(self, capsys):
        _, out, _ = run(capsys, "free-energy", "--beta-s", "0.5",
                        "--format", "csv")
        (rec,) = csv.DictReader(io.StringIO(out))
        assert rec["value"] == f"{F0_HALF:.17g}"
        # JSON carries the shortest repr that reads back to the double
        _, out, _ = run(capsys, "free-energy", "--beta-s", "0.5")
        assert f'"value": {F0_HALF!r}' in out

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(sys.float_info.max)
    @example(-sys.float_info.max)
    def test_floats_print_as_json_dumps_and_17_digit_csv(self, value):
        for x in (value, np.float64(value)):
            rec = {"quantity": "x", "value": x}
            for fmt, want in (
                    ("json", json.dumps(rec, sort_keys=True) + "\n"),
                    ("csv", f"quantity,value\nx,{value:.17g}\n")):
                with contextlib.redirect_stdout(io.StringIO()) as buf:
                    emit([rec], fmt, False)
                assert buf.getvalue() == want
            back = json.loads(json.dumps(rec))["value"]
            assert math.copysign(1.0, back) == math.copysign(1.0, value)
            assert back == value

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_json_records_never_hold_non_json_floats(self, capsys, value):
        with pytest.raises(ValueError):
            emit([{"quantity": "ok", "value": 1.0},
                  {"quantity": "bad", "value": value}], "json", False)
        assert capsys.readouterr().out == ""


#: a 256x256 lattice, where factoring K takes seconds: its rules must be
#: decided before that
BIG = ["constrained", "--rows", "256", "--cols", "256"]

#: one command per input rule, named by the module that decides it
INPUT_RULES = {
    "model-dimensions": ["partition", "--rows", "0", "--cols", "3"],
    "model-periodic-parity": ["free-energy", "--method", "finite",
                              "--size", "7"],
    "model-enumeration-bound": ["partition", "--rows", "2", "--cols", "9",
                                "--oracle", "enumerate"],
    "model-transfer-rows": ["free-energy", "--method", "finite",
                            "--size", "18"],
    "dimer-fixed-boundary": ["partition", "--rows", "2", "--cols", "2",
                             "--boundary", "periodic", "--oracle",
                             "pfaffian"],
    "dimer-city-bound": ["partition", "--rows", "512", "--cols", "513",
                         "--oracle", "pfaffian"],
    "dimer-city-bound-constrained": ["constrained", "--rows", "513",
                                     "--cols", "512", "--site", "1", "1"],
    **{f"huge-{oracle}": ["partition", "--rows", "100000", "--cols",
                          "100000", "--oracle", oracle]
       for oracle in ("enumerate", "pfaffian", "both")},
    "huge-constrained": ["constrained", "--rows", "100000", "--cols",
                         "100000", "--site", "1", "1"],
    "dimer-interior-site": [*BIG, "--site", "0", "128"],
    "dimer-edge-range": [*BIG, "--edge", "392704:1"],   # 392704 edges
    "dimer-repeated-edge": [*BIG, "--edge", "7:1", "--edge", "7:0"],
    "dimer-constraint-count": [*BIG, *(f"--edge={e}:1" for e in range(6))],
    "integrals-head-terms": ["free-energy", "--method", "series",
                             "--terms", "0"],
    "integrals-head-terms-cap": ["free-energy", "--method", "series",
                                 "--terms",
                                 str(integrals.HEAD_TERMS_CAP + 1)],
    "series-stirling-order": ["series", "--target", "stirling",
                              "--order", "17"],
    "coulomb-expansion-order": ["coulomb", "--expand", "5"],
    "cli-selection": ["constrained", "--rows", "3", "--cols", "3"],
}


def _lattice_33():
    return dimer.build_decorated(model.ModelParams(0.0, 3, 3))


#: each library rule, broken by a direct call
LIBRARY_RULES = {
    "dimensions": lambda: model.ModelParams(0.0, 0, 3),
    "periodic-parity": lambda: model.ModelParams(
        0.0, 3, 2, boundary=model.Boundary.PERIODIC),
    "enumeration-bound": lambda: model.enumerate_partition(
        model.ModelParams(0.0, 100000, 100000)),
    "transfer-rows": lambda: model.transfer_matrix_free_energy(
        model.ModelParams(0.0, 18, 18, boundary=model.Boundary.PERIODIC)),
    "transfer-boundary": lambda: model.transfer_matrix_free_energy(
        model.ModelParams(0.0, 2, 2)),
    "transfer-partition-boundary": lambda: model.transfer_partition(
        model.ModelParams(0.0, 2, 2)),
    "vertex-state": lambda: dimer.vertex_constrained_ratio(
        dimer.kasteleyn_orientation(_lattice_33()), (1, 1), 7),
    "vertex-state-zero": lambda: dimer.vertex_constrained_ratio(
        dimer.kasteleyn_orientation(_lattice_33()), (1, 1), 0),
    "free-fermion-point": lambda: dimer.build_decorated(
        model.ModelParams(0.0, 2, 2, beta_eps=0.3)),
    "fixed-boundary": lambda: dimer.build_decorated(
        model.ModelParams(0.0, 2, 2, boundary=model.Boundary.PERIODIC)),
    "city-bound": lambda: dimer.build_decorated(
        model.ModelParams(0.0, 512, 513)),
    "interior-site": lambda: dimer.incident_external_edges(
        _lattice_33(), (0, 1)),
    "edge-range": lambda: dimer.check_constraints(
        _lattice_33(), [dimer.EdgeConstraint(48, True)]),
    "repeated-edge": lambda: dimer.check_constraints(
        _lattice_33(), [dimer.EdgeConstraint(7, True),
                        dimer.EdgeConstraint(7, False)]),
    "constraint-count": lambda: dimer.check_constraints(
        _lattice_33(), [dimer.EdgeConstraint(e, True) for e in range(6)]),
    "head-terms": lambda: integrals.baxter_series(0.5, 0),
    "head-terms-cap": lambda: integrals.baxter_series(
        0.5, integrals.HEAD_TERMS_CAP + 1),
    "stirling-order": lambda: series.stirling_correction(
        series.STIRLING_ORDER_CAP + 1),
    "t-order": lambda: series.singular_t_series(
        series.T_SERIES_ORDER_CAP + 1),
    "t-order-negative": lambda: series.singular_t_series(-1),
    "betas-parity": lambda: series.singular_betas_series(7),
    "betas-order": lambda: series.singular_betas_series(
        series.BETAS_SERIES_ORDER_CAP + 2),
    "b2-parity": lambda: series.b2_series(7),
    "b2-order": lambda: series.b2_series(series.BETAS_SERIES_ORDER_CAP + 2),
    "expansion-order": lambda: coulomb.exponent_u_expansion(
        coulomb.EXPANSION_ORDER_CAP + 1),
    "beta-eps-domain": lambda: coulomb.j_of_betaeps(0.7),
}


class TestInputRules:
    """Each input rule is decided once, and bad input exits 2 with one
    ``error:`` line, before any costly computation."""

    @pytest.mark.parametrize("argv", INPUT_RULES.values(), ids=INPUT_RULES)
    def test_rule_is_usage_error(self, argv):
        done = subprocess.run(
            [sys.executable, "-m", "vertex_expand.cli", *argv],
            capture_output=True, text=True, env=child_env(), timeout=10)
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("call", LIBRARY_RULES.values(),
                             ids=LIBRARY_RULES)
    def test_library_rule_raises_bad_input(self, call):
        with pytest.raises(BadInput):
            call()
