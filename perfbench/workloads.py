"""The four workloads: seeded inputs, one round of ops, checks, layer metrics.

A workload's ``round(span)`` runs its whole op list once and returns the
ops' results keyed by op; every round of one run attempts the same ops.
``check(results)`` compares one round's results with references computed
apart from the program and returns (problems, failed ops).  An op fails
when it raises (or, for a command, exits non-zero), or when it misses its
reference in one of the places listed in KNOWN_FAULTS; a miss anywhere else
is a problem and makes the run incorrect.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, NamedTuple

import checks
import refs

ROOT = Path(__file__).resolve().parent.parent

#: where a miss of the reference is counted as a failed op, not a problem
KNOWN_FAULTS = {
    "near-band": "integrals._refine raises ToleranceNotMet or accepts a "
                 "wrong Richardson limit at 0 < |beta_s| <= 0.004",
    "series-bound": "baxter_series reports an error bound smaller than its "
                    "rounding error",
}
NEAR_BAND = 0.004
BAND_SPLIT = 0.02


class Result(NamedTuple):
    value: Any
    error: str | None


def call(span, name: str, fn, *args, **attrs) -> Result:
    """One op inside a span; an exception is the op's failure, not the run's."""
    with span(name, **attrs):
        try:
            return Result(fn(*args), None)
        except Exception as exc:  # counted as a failed op; the round goes on
            return Result(None, f"{type(exc).__name__}: {exc}")


def forget(result: Result) -> Result:
    """The outcome of an op whose value the checks do not need.  Keeping a
    lattice or its factorization from every round would make the peak
    resident set grow with the number of rounds."""
    return Result(None, result.error)


def plain(value):
    """JSON-able form of an op's value, for the result digest."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return [plain(v) for v in value]
    if hasattr(value, "masks"):          # model.EnumerationResult
        return [repr(value.z), len(value.masks)]
    if hasattr(value, "gap"):            # model.TransferResult
        return [repr(value.free_energy), repr(value.gap)]
    if hasattr(value, "returncode"):     # Process
        return [value.returncode, value.stdout]
    return None


class Workload:
    """Interface of a workload; each subclass draws its inputs from a seed."""

    name = ""

    def round(self, span) -> dict:
        """Run the op list once; results keyed by op."""
        raise NotImplementedError

    def references(self) -> dict:
        """Reference values for the checks, computed apart from the program."""
        raise NotImplementedError

    def check(self, results: dict, ref: dict) -> tuple[list[str], list[str]]:
        """(problems, failed ops) of one round."""
        raise NotImplementedError

    def layer_metrics(self, tracer, results: dict) -> dict:
        """Per-layer metrics from the spans of the traced rounds."""
        raise NotImplementedError


# --- site-stats --------------------------------------------------------------

class SiteStats(Workload):
    """Vertex-state probabilities and edge-pattern ratios on L x L lattices.

    ``tiny`` (3x3) is checked against the benchmark's own matching sums,
    ``small`` (5x5) against its own ice enumeration (1322 configurations;
    7x7 has 7.5 million), ``large`` (13x13) at the centre against the
    infinite-lattice Za/Z0 and Zb/Z0.
    """

    name = "site-stats"
    SIZES = {"tiny": 3, "small": 5, "mid": 9, "large": 13}
    SITES = {"tiny": 1, "small": 3, "mid": 2}
    PATTERNS = {"tiny": (1, 3, 5), "small": (3, 5), "mid": (4,), "large": (5,)}

    def __init__(self, seed: int):
        from vertex_expand import dimer, model
        self.dimer, self.model = dimer, model
        rng = random.Random(seed)
        self.lattices = {}
        for label, size in self.SIZES.items():
            beta_s = rng.uniform(0.3, 0.6)
            interior = [(r, c) for r in range(1, size - 1)
                        for c in range(1, size - 1)]
            if label == "large":
                sites = [(size // 2, size // 2)]
            else:
                sites = rng.sample(interior, self.SITES[label])
            patterns = [self._pattern(rng, size, k, label == "tiny")
                        for k in self.PATTERNS[label]]
            self.lattices[label] = (size, beta_s, sites, patterns)

    @staticmethod
    def _pattern(rng, size, k, any_edge):
        """k distinct edges with mixed occupation.  On the tiny lattice the
        edges are any of the decorated lattice's edge indices; elsewhere
        they are lattice edges ('h'|'v', r, c) between two vertices."""
        if any_edge:
            n_edges = 4 * size * size + 2 * size * (size - 1)
            edges = rng.sample(range(n_edges), k)
        else:
            keys = ([("h", r, c) for r in range(size) for c in range(1, size)]
                    + [("v", r, c) for r in range(1, size) for c in range(size)])
            edges = rng.sample(keys, k)
        occupied = [rng.random() < 0.5 for _ in edges]
        if k > 1:
            occupied[0], occupied[1] = True, False
        return list(zip(edges, occupied))

    def _constraints(self, lat, pattern):
        out = []
        for edge, occ in pattern:
            if isinstance(edge, tuple):
                kind, r, c = edge
                edge = (lat.external_h(r, c - 1) if kind == "h"
                        else lat.external_v(r - 1, c))
            out.append(self.dimer.EdgeConstraint(edge, occ))
        return out

    def round(self, span) -> dict:
        dimer = self.dimer
        results = {}
        for label, (size, beta_s, sites, patterns) in self.lattices.items():
            params = self.model.ModelParams(beta_s=beta_s, rows=size, cols=size)
            with span("dimer.lattice", size=label):
                lat = call(span, "dimer.build_decorated",
                           dimer.build_decorated, params)
                kast = call(span, "dimer.kasteleyn_orientation",
                            dimer.kasteleyn_orientation, lat.value)
                results[(label, "build")] = forget(lat)
                results[(label, "orient")] = forget(kast)
                lat, kast = lat.value, kast.value
                results[(label, "logz")] = call(
                    span, "dimer.partition_dimer", dimer.partition_dimer, kast)
                for site in sites:
                    with span("dimer.site", size=label):
                        for state in range(1, 7):
                            results[(label, site, state)] = call(
                                span, "dimer.vertex_constrained_ratio",
                                dimer.vertex_constrained_ratio, kast, site, state)
                for i, pattern in enumerate(patterns):
                    results[(label, "pattern", i)] = call(
                        span, "dimer.constrained_ratio",
                        lambda: dimer.constrained_ratio(
                            kast, self._constraints(lat, pattern)))
        return results

    def references(self) -> dict:
        ref = {}
        for label in ("tiny", "small"):
            size, beta_s, _, _ = self.lattices[label]
            ref[label] = refs.ice_configurations(size, size, beta_s, False)
        size, beta_s, _, _ = self.lattices["tiny"]
        n_nodes, edges = refs.decorated_edges(size, size, beta_s)
        z0 = refs.matching_sum(n_nodes, edges)
        ref["tiny-patterns"] = [
            refs.matching_sum(n_nodes, edges, [e for e, o in p if o],
                              [e for e, o in p if not o]) / z0
            for p in self.lattices["tiny"][3]]
        beta_s = self.lattices["large"][1]
        ref["bulk"] = (refs.za_ratio(beta_s), refs.zb_ratio(beta_s))
        return ref

    def check(self, results, ref) -> tuple[list[str], list[str]]:
        problems, failed = [], []
        for key, res in results.items():
            if res.error:
                failed.append(f"{self.name} {key}: {res.error}")
        for label, (size, beta_s, sites, patterns) in self.lattices.items():
            tag = f"{label} {size}x{size} beta_s={beta_s!r}"
            logz = results[(label, "logz")]
            if label in ("tiny", "small") and not logz.error:
                z = math.fsum(c.weight for c in ref[label])
                problems += checks.close(f"{tag} log Z", logz.value,
                                         math.log(z), checks.EXACT_TOL)
            for site in sites:
                got = {s: results[(label, site, s)] for s in range(1, 7)}
                if any(r.error for r in got.values()):
                    continue
                probs = {s: r.value for s, r in got.items()}
                problems += checks.probabilities(f"{tag} site {site}", probs)
                if label in ("tiny", "small"):
                    want = refs.vertex_probabilities(ref[label], site)
                    for s in probs:
                        problems += checks.close(f"{tag} site {site} P({s})",
                                                 probs[s], want[s],
                                                 checks.EXACT_TOL)
                if label == "large":
                    za, zb = ref["bulk"]
                    problems += checks.close(f"{tag} centre P(6) vs Za/Z0",
                                             probs[6], za, checks.BULK_TOL)
                    problems += checks.close(f"{tag} centre P(5) vs Zb/Z0",
                                             probs[5], zb, checks.BULK_TOL)
            for i, pattern in enumerate(patterns):
                res = results[(label, "pattern", i)]
                if res.error:
                    continue
                ptag = f"{tag} pattern {pattern}"
                problems += checks.probability(ptag, res.value)
                if label == "tiny":
                    problems += checks.close(ptag, res.value,
                                             ref["tiny-patterns"][i],
                                             checks.EXACT_TOL)
                elif label == "small":
                    problems += checks.close(
                        ptag, res.value,
                        refs.line_pattern_ratio(ref["small"], pattern),
                        checks.EXACT_TOL)
        return problems, failed

    def layer_metrics(self, tracer, results) -> dict:
        out = {f"dimer.{fn}_s": tracer.median_round_total(f"dimer.{fn}")
               for fn in ("build_decorated", "kasteleyn_orientation",
                          "partition_dimer", "vertex_constrained_ratio",
                          "constrained_ratio")}
        for label in ("small", "mid", "large"):
            out[f"dimer.site_s.{label}"] = tracer.median_span(
                "dimer.site", size=label)
        return out


# --- thermo-sweep ------------------------------------------------------------

class ThermoSweep(Workload):
    """F0, dF0/dbeta_s, Za/Z0 and Zb/Z0 over a beta_s grid dense near 0.

    The near band (0 < |beta_s| <= 0.004) and the points up to 0.015 are
    fixed; the seed jitters the far points by up to 10%.  baxter_series runs
    at the fixed points the identity suite uses, 0, +-0.1, +-0.5, +-1.
    """

    name = "thermo-sweep"
    NEAR = (0.001, 0.002, 0.004)
    MID = (0.006, 0.01, 0.015)
    FAR = (0.03, 0.05, 0.08, 0.12, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0, 1.25, 1.5)
    SERIES = (0.0, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0)
    SERIES_TERMS = 2000
    FUNCTIONS = ("baxter_free_energy", "dF0_dbetas", "za_ratio", "zb_ratio")

    def __init__(self, seed: int):
        from vertex_expand import integrals
        self.integrals = integrals
        rng = random.Random(seed)
        far = [b * (1.0 + rng.uniform(-0.1, 0.1)) for b in self.FAR]
        mags = list(self.NEAR) + list(self.MID) + far
        self.points = [0.0] + [s * b for b in mags for s in (1.0, -1.0)]

    def round(self, span) -> dict:
        results = {}
        for beta_s in self.points:
            band = "near" if abs(beta_s) < BAND_SPLIT else "far"
            for fn in self.FUNCTIONS:
                results[(fn, beta_s)] = call(
                    span, f"integrals.{fn}", getattr(self.integrals, fn),
                    beta_s, band=band)
        for beta_s in self.SERIES:
            results[("baxter_series", beta_s)] = call(
                span, "integrals.baxter_series", self.integrals.baxter_series,
                beta_s, self.SERIES_TERMS)
        return results

    def references(self) -> dict:
        ref = {}
        for beta_s in sorted({abs(b) for b in self.points + list(self.SERIES)}):
            f0 = refs.free_energy(beta_s)
            d = refs.free_energy_derivative(beta_s)
            zb_plus, zb_minus = refs.zb_ratio(beta_s), refs.zb_ratio(-beta_s)
            for sign in (1.0, -1.0):
                b = sign * beta_s
                ref[("baxter_free_energy", b)] = f0
                ref[("dF0_dbetas", b)] = sign * d
                ref[("zb_ratio", b)] = zb_plus if sign > 0 else zb_minus
                ref[("za_ratio", b)] = zb_minus if sign > 0 else zb_plus
        ref["catalan"] = refs.catalan_free_energy()
        return ref

    def check(self, results, ref) -> tuple[list[str], list[str]]:
        problems, failed = [], []
        good = {}
        for (fn, beta_s), res in results.items():
            label = f"{fn}({beta_s!r})"
            if res.error:
                failed.append(f"{label}: {res.error}")
                continue
            if fn == "baxter_series":
                value, bound = res.value
                want = ref[("baxter_free_energy", beta_s)]
                if not checks.within_bound(value, bound, want):
                    failed.append(
                        f"{label}: |diff| {abs(value - float(want)):.3e} "
                        f"exceeds its bound {bound:.3e} "
                        f"({KNOWN_FAULTS['series-bound']})")
                problems += checks.close(label, value, want, checks.SERIES_TOL)
                continue
            miss = checks.close(label, res.value, ref[(fn, beta_s)],
                                checks.QUAD_TOL)
            if miss and 0.0 < abs(beta_s) <= NEAR_BAND:
                failed.append(f"{miss[0]} ({KNOWN_FAULTS['near-band']})")
                continue
            problems += miss
            good[(fn, beta_s)] = res.value
        if 0.0 in self.points:
            for fn, want in (("baxter_free_energy", ref["catalan"]),
                             ("dF0_dbetas", 0.0), ("za_ratio", 0.25),
                             ("zb_ratio", 0.25)):
                if (fn, 0.0) in good:
                    problems += checks.close(f"{fn}(0) closed form",
                                             good[(fn, 0.0)], want,
                                             checks.QUAD_TOL)
        for beta_s in self.points:
            vals = [good.get((fn, beta_s)) for fn in self.FUNCTIONS]
            if None not in vals:
                _, d, za, zb = vals
                problems += checks.first_order_identity(
                    f"beta_s={beta_s!r}", za, zb, d)
            if beta_s > 0.0:
                for fn, odd in (("baxter_free_energy", False),
                                ("dF0_dbetas", True)):
                    plus, minus = good.get((fn, beta_s)), good.get((fn, -beta_s))
                    if plus is not None and minus is not None:
                        problems += checks.parity(f"{fn}({beta_s!r})",
                                                  plus, minus, odd)
        return problems, failed

    def layer_metrics(self, tracer, results) -> dict:
        names = tuple(f"integrals.{fn}" for fn in self.FUNCTIONS)
        out = {f"{name}_s": tracer.median_round_total(name) for name in names}
        out["integrals.near_band_s"] = tracer.median_round_total(names, band="near")
        out["integrals.far_band_s"] = tracer.median_round_total(names, band="far")
        out["integrals.baxter_series_s"] = tracer.median_round_total(
            "integrals.baxter_series")
        return out


# --- finite-oracles ----------------------------------------------------------

class FiniteOracles(Workload):
    """Exhaustive enumeration, Pfaffian and transfer-matrix oracles."""

    name = "finite-oracles"
    FIXED = ((3, 3), (3, 4), (4, 4))
    TORI = ((2, 4), (2, 6))
    TRANSFER_N = (4, 6, 8, 10, 12)

    def __init__(self, seed: int):
        from vertex_expand import dimer, model
        self.dimer, self.model = dimer, model
        rng = random.Random(seed)
        self.fixed = [(n, m, rng.uniform(-1.0, 1.0)) for n, m in self.FIXED]
        self.tori = [(n, m, rng.uniform(-1.0, 1.0)) for n, m in self.TORI]
        self.transfer_betas = (rng.uniform(0.2, 0.45), rng.uniform(0.55, 1.0))

    def round(self, span) -> dict:
        dimer, model = self.dimer, self.model
        periodic = model.Boundary.PERIODIC
        results = {}
        for n, m, beta_s in self.fixed:
            params = model.ModelParams(beta_s=beta_s, rows=n, cols=m)
            results[("enumerate", n, m)] = call(
                span, "model.enumerate_partition", model.enumerate_partition,
                params)
            lat = call(span, "dimer.build_decorated", dimer.build_decorated,
                       params)
            kast = call(span, "dimer.kasteleyn_orientation",
                        dimer.kasteleyn_orientation, lat.value)
            results[("build", n, m)] = forget(lat)
            results[("orient", n, m)] = forget(kast)
            results[("pfaffian", n, m)] = call(
                span, "dimer.partition_dimer", dimer.partition_dimer, kast.value)
        for n, m, beta_s in self.tori:
            params = model.ModelParams(beta_s=beta_s, rows=n, cols=m,
                                       boundary=periodic)
            results[("enumerate", n, m)] = call(
                span, "model.enumerate_partition", model.enumerate_partition,
                params)
            results[("transfer", n, m)] = call(
                span, "model.transfer_partition", model.transfer_partition,
                params)
        for beta_s in self.transfer_betas:
            for n in self.TRANSFER_N:
                params = model.ModelParams(beta_s=beta_s, rows=n, cols=n,
                                           boundary=periodic)
                results[("free-energy", beta_s, n)] = call(
                    span, "model.transfer_matrix_free_energy",
                    model.transfer_matrix_free_energy, params, N=n)
        return results

    def references(self) -> dict:
        ref = {}
        for lattices, periodic in ((self.fixed, False), (self.tori, True)):
            for n, m, beta_s in lattices:
                configs = refs.ice_configurations(n, m, beta_s, periodic)
                ref[(n, m)] = (len(configs),
                               math.fsum(c.weight for c in configs))
        for beta_s in self.transfer_betas:
            ref[beta_s] = refs.free_energy(beta_s)
        return ref

    def check(self, results, ref) -> tuple[list[str], list[str]]:
        problems, failed = [], []
        for key, res in results.items():
            if res.error:
                failed.append(f"{self.name} {key}: {res.error}")
        for n, m, beta_s in self.fixed + self.tori:
            tag = f"{n}x{m} beta_s={beta_s!r}"
            enum = results[("enumerate", n, m)]
            if enum.error:
                continue
            count, z = ref[(n, m)]
            e = enum.value
            if len(e.masks) != count:
                problems.append(f"{tag}: {len(e.masks)} configurations, "
                                f"backtracking finds {count}")
            problems += checks.rel_close(f"{tag} Z vs backtracking", e.z, z,
                                         checks.EXACT_TOL)
            problems += checks.ascending(tag, list(e.masks))
            other = results.get(("pfaffian", n, m)) or results[("transfer", n, m)]
            if not other.error:
                z_other = (math.exp(other.value) if ("pfaffian", n, m) in results
                           else other.value)
                problems += checks.rel_close(f"{tag} Z enumerate vs oracle",
                                             e.z, z_other, checks.EXACT_TOL)
        for beta_s in self.transfer_betas:
            got = {n: results[("free-energy", beta_s, n)]
                   for n in self.TRANSFER_N}
            if any(r.error for r in got.values()):
                continue
            problems += checks.transfer_sequence(
                f"transfer beta_s={beta_s!r}",
                {n: r.value.free_energy for n, r in got.items()},
                {n: r.value.gap for n, r in got.items()}, ref[beta_s])
        return problems, failed

    def layer_metrics(self, tracer, results) -> dict:
        configs = sum(len(r.value.masks) for k, r in results.items()
                      if k[0] == "enumerate" and not r.error)
        enum_s = tracer.median_round_total("model.enumerate_partition")
        out = {
            "model.enumerate_partition_s": enum_s,
            "model.enumerate_configs_per_s": configs / enum_s if enum_s else 0.0,
            "model.transfer_partition_s": tracer.median_round_total(
                "model.transfer_partition"),
            "dimer.partition_dimer_s": tracer.median_round_total(
                "dimer.partition_dimer"),
            "dimer.build_decorated_s": tracer.median_round_total(
                "dimer.build_decorated"),
            "dimer.kasteleyn_orientation_s": tracer.median_round_total(
                "dimer.kasteleyn_orientation"),
        }
        for n in (8, 10, 12):
            out[f"model.transfer_matrix_free_energy_s.N{n}"] = tracer.median_span(
                "model.transfer_matrix_free_energy", N=n)
        return out


# --- cli-cold ----------------------------------------------------------------

class Process(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_mb: float


def python_env() -> dict:
    """Environment for child interpreters: the checkout's src/ first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str]) -> Process:
    """Run one child to completion; returns its exit code, output, wall
    time and peak resident set (from wait4)."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=python_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # The commands write a few lines to stderr at most, so reading stdout to
    # its end first cannot stall the child on a full stderr pipe.
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Process(proc.returncode, out.decode(), err.decode(), seconds,
                   usage.ru_maxrss / 1024.0)


LN2_HALF = repr(0.5 * math.log(2.0))

COMMANDS = (
    ("free-energy", ["free-energy", "--beta-s", "0.5", "--format", "csv"]),
    ("free-energy-sweep", ["free-energy", "--sweep", "0.1:1.0:0.1"]),
    ("free-energy-series", ["free-energy", "--method", "series",
                            "--beta-s", "0.5"]),
    ("free-energy-finite", ["free-energy", "--method", "finite", "--size", "8",
                            "--beta-s", "0.5"]),
    ("perturb", ["perturb", "--beta-s", "0.5", "--u", "0.01"]),
    ("partition", ["partition", "--rows", "3", "--cols", "3",
                   "--beta-s", "0.3"]),
    ("constrained", ["constrained", "--rows", "5", "--cols", "5",
                     "--beta-s", "0.3", "--site", "2", "2"]),
    ("series-sng", ["series", "--target", "sng", "--order", "8"]),
    ("series-b2", ["series", "--target", "b2", "--order", "6"]),
    ("series-b2-order8", ["series", "--target", "b2", "--order", "8"]),
    ("coulomb", ["coulomb", "--beta-eps", LN2_HALF, "--expand", "2"]),
    ("verify-series", ["verify", "--suite", "series"]),
    ("verify-all", ["verify", "--suite", "all"]),
)

#: F0(0.5) from mpmath (0.53331044624567856784...) to 17 significant digits
F0_HALF_17 = "0.53331044624567858"
SNG = (Fraction(-2), 1, {2: Fraction(1), 4: Fraction(-1, 6),
                         6: Fraction(23, 180), 8: Fraction(-593, 5040)})
B2 = (Fraction(8), 2, {2: Fraction(1), 4: Fraction(-2, 3), 6: Fraction(79, 90)})


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _series_problems(label, rec, expected) -> list[str]:
    scale, pi_power, coeffs = expected
    out = []
    if (Fraction(rec["scale"]["rational"]) != scale
            or rec["scale"]["pi_power"] != pi_power):
        out.append(f"{label}: scale {rec['scale']} is not {scale}/pi^{pi_power}")
    for order, want in coeffs.items():
        if order <= rec["order"] and Fraction(rec["coefficients"][str(order)]) != want:
            out.append(f"{label}: coefficient {order} is "
                       f"{rec['coefficients'][str(order)]}, not {want}")
    return out


class CliCold(Workload):
    """A fixed list of commands, each in a fresh interpreter."""

    name = "cli-cold"

    def __init__(self, seed: int):
        """The command list is fixed; the seed draws nothing."""

    def round(self, span) -> dict:
        results = {}
        for label, argv in COMMANDS:
            results[label] = call(
                span, "cli.process", run_process,
                [sys.executable, "-m", "vertex_expand.cli", *argv],
                command=label)
        return results

    def references(self) -> dict:
        ref = {b: refs.free_energy(b) for b in
               [0.5] + [round(0.1 * i, 10) for i in range(1, 11)]}
        ref["d0.5"] = refs.free_energy_derivative(0.5)
        ref["za0.5"], ref["zb0.5"] = refs.za_ratio(0.5), refs.zb_ratio(0.5)
        ref["ice3"] = refs.ice_configurations(3, 3, 0.3, False)
        ref["ice5"] = refs.ice_configurations(5, 5, 0.3, False)
        ref["exponent"] = refs.singular_exponent(float(LN2_HALF))
        return ref

    def check(self, results, ref) -> tuple[list[str], list[str]]:
        problems, failed = [], []
        for label, res in results.items():
            if res.error:
                failed.append(f"{label}: {res.error}")
                continue
            proc = res.value
            if proc.returncode != 0:
                failed.append(f"{label}: exit {proc.returncode}: "
                              f"{proc.stderr.strip()}")
                continue
            problems += self._output_problems(label, proc.stdout, ref)
        return problems, failed

    def _output_problems(self, label, stdout, ref) -> list[str]:
        try:
            return self._check_output(label, stdout, ref)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{label}: output does not parse: {exc!r}"]

    def _check_output(self, label, stdout, ref) -> list[str]:
        if label == "free-energy":
            header, row = stdout.strip().splitlines()
            value = dict(zip(header.split(","), row.split(",")))["value"]
            if value != F0_HALF_17:
                return [f"{label}: prints {value}, not {F0_HALF_17}"]
            return []
        if label.startswith("verify"):
            if stdout.strip().splitlines()[-1] != "OK":
                return [f"{label}: last line is not OK"]
            return []
        recs = _records(stdout)
        out = []
        if label == "free-energy-sweep":
            if len(recs) != 10:
                out.append(f"{label}: {len(recs)} records, not 10")
            for rec in recs:
                out += checks.close(f"{label} F0({rec['beta_s']})", rec["value"],
                                    ref[round(rec["beta_s"], 10)],
                                    checks.QUAD_TOL)
        elif label == "free-energy-series":
            out += checks.close(label, recs[0]["value"], ref[0.5],
                                checks.SERIES_TOL)
        elif label == "free-energy-finite":
            out += checks.close(label, recs[0]["value"], ref[0.5],
                                checks.AITKEN_TOL)
            if not 0.0 < recs[0]["spectral_gap"] < 1.0:
                out.append(f"{label}: gap outside (0, 1)")
        elif label == "perturb":
            rec = recs[0]
            d = float(ref["d0.5"])
            za, zb = float(ref["za0.5"]), float(ref["zb0.5"])
            out += checks.close(f"{label} f0", rec["f0"], ref[0.5], checks.QUAD_TOL)
            out += checks.close(f"{label} derivative coefficient",
                                rec["coefficient_derivative"],
                                0.5 * (d * d - 1.0), checks.IDENTITY_TOL)
            out += checks.close(f"{label} constrained coefficient",
                                rec["coefficient_constrained"],
                                -(1.0 - za - zb), checks.IDENTITY_TOL)
        elif label == "partition":
            z = math.fsum(c.weight for c in ref["ice3"])
            for key in ("log_z_enumerate", "log_z_pfaffian"):
                out += checks.close(f"{label} {key}", recs[0][key], math.log(z),
                                    checks.EXACT_TOL)
        elif label == "constrained":
            want = refs.vertex_probabilities(ref["ice5"], (2, 2))
            probs = {r["state"]: r["ratio"] for r in recs
                     if r["quantity"] == "vertex_state_probability"}
            out += checks.probabilities(label, probs)
            for s, p in probs.items():
                out += checks.close(f"{label} P({s})", p, want[s],
                                    checks.EXACT_TOL)
        elif label == "series-sng":
            out += _series_problems(label, recs[0], SNG)
        elif label.startswith("series-b2"):
            out += _series_problems(label, recs[0], B2)
        elif label == "coulomb":
            out += checks.close(f"{label} exponent", recs[0]["exponent"],
                                ref["exponent"], 1e-12)
            first = recs[1]["coefficients"][1]
            if first != {"1": "-8"}:
                out.append(f"{label}: first-order coefficient {first}, "
                           "not -8/pi")
        return out

    def layer_metrics(self, tracer, results) -> dict:
        return {"cli.command_p50_s": tracer.median_span("cli.process")}

    def in_process(self, tracer, ref) -> tuple[dict, list[str], list[str]]:
        """cli.main over the command list and each verify suite, timed in
        this process with output captured and checked like a round's:
        (metrics, problems, failed ops)."""
        from vertex_expand import cli, verify
        problems, failed = [], []
        with tracer.span("cli.main_all"):
            for label, argv in COMMANDS:
                sink = io.StringIO()
                with redirect_stdout(sink), redirect_stderr(sink):
                    res = call(tracer.span, "cli.main", cli.main, list(argv),
                               command=label)
                if res.error or res.value != 0:
                    failed.append(f"cli.main {label}: "
                                  f"{res.error or f'exit {res.value}'}")
                    continue
                problems += [f"cli.main {p}" for p in self._output_problems(
                    label, sink.getvalue(), ref)]
        out = {"cli.main_s": tracer.median_span("cli.main_all")}
        for name, suite in verify.SUITES.items():
            res = call(tracer.span, f"verify.suite_{name}", suite)
            if res.error:
                problems.append(f"verify suite {name}: {res.error}")
            else:
                problems += [f"verify suite {name}: {check} failed: {detail}"
                             for check, passed, detail in res.value
                             if not passed]
            out[f"verify.suite_{name}_s"] = tracer.median_span(
                f"verify.suite_{name}")
        return out, problems, failed


WORKLOADS = {w.name: w for w in (SiteStats, ThermoSweep, FiniteOracles, CliCold)}
