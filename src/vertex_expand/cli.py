"""Command-line interface.

Subcommands: free-energy, partition, constrained, perturb, series, coulomb,
verify.  Output is deterministic: floats print as the shortest repr that
reads back to the same double in JSON and with 17 significant digits in
CSV, JSON keys are sorted, exact rationals print as fraction strings.  Exit
codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure, 141 when the reader of stdout closes it before all is printed.

The CLI checks only its own flags: their parsing, the --sweep point count
and the selections of constrained and coulomb.  Every other input rule
(sizes, bounds, orders, head terms, beta_eps) is the library's, which
raises BadInput; ``main`` maps each class of ``errors`` to its exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import __version__, coulomb, series, verify
from .errors import (BadInput, FieldOverflow, VertexExpandError,
                     VerificationFailed)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
#: 128 + SIGPIPE, as a shell reports a writer that a closed pipe stopped
EXIT_CLOSED_PIPE = 141

#: most points one ``free-energy --sweep`` may ask for
MAX_SWEEP_POINTS = 10_000

#: largest |log Z| difference ``partition --oracle both`` accepts between
#: the enumeration and the Pfaffian
ORACLE_TOL = 1e-9


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, series.PiRational):
        return value.as_json()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _flat(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(_jsonable(value), sort_keys=True)
    return str(value)


def emit(records: list[dict], fmt: str, quiet: bool) -> None:
    """Print records as JSON lines or CSV with a sorted-key header.  JSON
    has no inf or nan, so a record holding one raises ValueError before any
    line is printed."""
    if quiet:
        return
    if fmt == "json":
        lines = [json.dumps(_jsonable(rec), sort_keys=True, allow_nan=False)
                 for rec in records]
        for line in lines:
            print(line)
        return
    keys = sorted({k for rec in records for k in rec})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for rec in records:
        writer.writerow([_flat(rec.get(k, "")) for k in keys])
    sys.stdout.write(buf.getvalue())


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _parse_sweep(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sweep must be start:stop:step")
    start, stop, step = (_finite_float(p) for p in parts)
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError("sweep needs step > 0, stop >= start")
    steps = (stop - start) / step  # inf when stop - start overflows
    if not steps <= MAX_SWEEP_POINTS - 1:
        raise argparse.ArgumentTypeError(
            f"sweep has more than {MAX_SWEEP_POINTS} points")
    return [start + i * step for i in range(int(round(steps)) + 1)]


def _parse_edge(text: str) -> tuple[int, bool]:
    match = re.fullmatch(r"([+-]?\d+):([01])", text)
    if match is None:
        raise argparse.ArgumentTypeError("edge must be INDEX:0 or INDEX:1")
    return int(match[1]), match[2] == "1"


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


# --- subcommand handlers -----------------------------------------------------

def cmd_free_energy(args) -> int:
    points = args.sweep if args.sweep is not None else [args.beta_s]
    if args.method == "finite":
        from . import model
    else:
        from . import integrals
    records = []
    for bs in points:
        if args.method == "quad":
            value = integrals.baxter_free_energy(bs)
            extra = {}
        elif args.method == "series":
            value, bound = integrals.baxter_series(bs, args.terms)
            extra = {"error_bound": bound}
        else:
            params = model.ModelParams(
                beta_s=bs, rows=args.size, cols=args.size,
                boundary=model.Boundary.PERIODIC)
            result = model.transfer_matrix_free_energy(params)
            extra = {"spectral_gap": result.gap}
            value = result.free_energy
        prov = {"quad": "quadrature", "series": "accelerated-series",
                "finite": "transfer-matrix"}[args.method]
        records.append({"quantity": "free_energy", "beta_s": bs,
                        "method": args.method, "provenance": prov,
                        "value": value, **extra})
    emit(records, args.format, args.quiet)
    return EXIT_OK


def cmd_partition(args) -> int:
    from . import model
    params = model.ModelParams(
        beta_s=args.beta_s, rows=args.rows, cols=args.cols,
        boundary=model.Boundary.PERIODIC if args.boundary == "periodic"
        else model.Boundary.FIXED_GROUND_STATE)
    lattice = None
    if args.oracle != "enumerate":
        from . import dimer
        lattice = dimer.build_decorated(params)  # checked before enumerating
    rec = {"quantity": "log_partition", "rows": args.rows, "cols": args.cols,
           "beta_s": args.beta_s, "boundary": args.boundary,
           "oracle": args.oracle, "provenance": args.oracle}
    log_enum = log_pf = None
    if args.oracle in ("enumerate", "both"):
        log_enum = model.enumerate_partition(params).log_z
        rec["log_z_enumerate"] = log_enum
    if lattice is not None:
        log_pf = dimer.partition_dimer(dimer.kasteleyn_orientation(lattice))
        rec["log_z_pfaffian"] = log_pf
    if log_enum is not None and log_pf is not None:
        diff = abs(log_enum - log_pf)
        rec["abs_diff"] = diff
        if diff > ORACLE_TOL:
            emit([rec], args.format, args.quiet)
            print("error: oracle disagreement", file=sys.stderr)
            return EXIT_NUMERICAL
    emit([rec], args.format, args.quiet)
    return EXIT_OK


def cmd_constrained(args) -> int:
    if not args.edge and args.site is None:
        return _usage_error("give --edge and/or --site")
    from . import dimer, model
    lat = dimer.build_decorated(model.ModelParams(
        beta_s=args.beta_s, rows=args.rows, cols=args.cols))
    cons = [dimer.EdgeConstraint(*edge) for edge in args.edge]
    # the site and the constraints are checked before B is factored
    if args.site is not None:
        dimer.incident_external_edges(lat, args.site)
    dimer.check_constraints(lat, cons)
    kast = dimer.kasteleyn_orientation(lat)
    records = []
    if args.edge:
        log_z = dimer.partition_dimer(kast)
        ratio = dimer.constrained_ratio(kast, cons)
        # a ratio is accurate to about 1e-16 absolute: one far below that
        # reads as its rounding, and a non-positive one has no log
        if ratio <= 0.0:
            return _usage_error(
                "no matching satisfies the --edge constraints, or their "
                "ratio is below the rounding of the determinant")
        records.append({
            "quantity": "constrained_ratio", "rows": args.rows,
            "cols": args.cols, "beta_s": args.beta_s,
            "constraints": [f"{e}:{int(o)}" for e, o in args.edge],
            "provenance": "pfaffian", "ratio": ratio,
            "log_z": log_z + math.log(ratio)})
    if args.site is not None:
        r, c = args.site
        total = 0.0
        for state in range(1, 7):
            ratio = dimer.vertex_constrained_ratio(kast, (r, c), state)
            total += ratio
            records.append({
                "quantity": "vertex_state_probability", "rows": args.rows,
                "cols": args.cols, "beta_s": args.beta_s,
                "site": [r, c], "state": state,
                "provenance": "pfaffian", "ratio": ratio})
        records.append({
            "quantity": "vertex_state_probability_sum", "rows": args.rows,
            "cols": args.cols, "beta_s": args.beta_s,
            "site": [r, c], "value": total})
    emit(records, args.format, args.quiet)
    return EXIT_OK


def cmd_perturb(args) -> int:
    from . import integrals
    result = integrals.first_order_free_energy(args.beta_s, args.u)
    emit([{
        "quantity": "first_order_free_energy", "beta_s": args.beta_s,
        "u": args.u, "provenance": "quadrature", "f0": result.f0,
        "coefficient_constrained": result.coefficient_constrained,
        "coefficient_derivative": result.coefficient_derivative,
        "free_energy": result.free_energy,
    }], args.format, args.quiet)
    return EXIT_OK


def cmd_series(args) -> int:
    k = args.order
    if args.target == "stirling":
        s = series.stirling_correction(k)
        rec = {"quantity": "stirling_bracket",
               "coefficients": {str(d): s[d] for d in range(k + 1)}}
    else:
        builders = {"fst": series.singular_t_series,
                    "sng": series.singular_betas_series,
                    "b2": series.b2_series}
        log_s = builders[args.target](k)
        rec = {"quantity": args.target,
               "scale": log_s.scale,
               "log_label": log_s.log_label,
               "coefficients": {str(d): log_s.singular[d]
                                for d in range(k + 1)}}
    rec["order"] = k
    rec["provenance"] = "exact-rational"
    emit([rec], args.format, args.quiet)
    return EXIT_OK


def cmd_coulomb(args) -> int:
    records = []
    if args.beta_eps is not None:
        exponent = coulomb.singular_exponent(args.beta_eps)
        records.append({
            "quantity": "singular_exponent", "beta_eps": args.beta_eps,
            "provenance": "closed-form",
            "j": coulomb.j_of_betaeps(args.beta_eps),
            # null where the exponent diverges (the KT regime)
            "exponent": exponent if math.isfinite(exponent) else None,
            "kt_threshold": coulomb.KT_BETA_EPS})
    if args.expand is not None:
        expansion = coulomb.exponent_u_expansion(args.expand)
        records.append({
            "quantity": "exponent_u_expansion", "order": args.expand,
            "provenance": "exact-rational",
            "coefficients": [
                {str(p): q for p, q in sorted(coeff.items())}
                for coeff in expansion]})
    if not records:
        return _usage_error("give --beta-eps and/or --expand")
    emit(records, args.format, args.quiet)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = (list(verify.SUITES) if args.suite == "all" else [args.suite])
    ok, lines = verify.run_suites(names)
    if not args.quiet:
        for line in lines:
            print(line)
    return EXIT_OK if ok else EXIT_VERIFY


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vertex-expand",
        description="Free-fermion expansion toolkit for staggered "
                    "six-vertex models.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--quiet", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("free-energy", parents=[common],
                       help="infinite-lattice reduced free energy")
    p.add_argument("--beta-s", type=_finite_float, default=0.0)
    p.add_argument("--sweep", type=_parse_sweep, default=None,
                   metavar="START:STOP:STEP")
    p.add_argument("--method", choices=("quad", "series", "finite"),
                   default="quad")
    p.add_argument("--terms", type=int, default=2000,
                   help="head terms for --method series")
    p.add_argument("--size", type=int, default=8,
                   help="torus side for --method finite")
    p.set_defaults(func=cmd_free_energy)

    p = sub.add_parser("partition", parents=[common],
                       help="finite-lattice partition function oracles")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--beta-s", type=_finite_float, default=0.0)
    p.add_argument("--boundary", choices=("periodic", "fixed"),
                   default="fixed")
    p.add_argument("--oracle", choices=("enumerate", "pfaffian", "both"),
                   default="both")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("constrained", parents=[common],
                       help="constrained dimer sums and state probabilities")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--beta-s", type=_finite_float, default=0.0)
    p.add_argument("--edge", type=_parse_edge, action="append", default=[],
                   metavar="INDEX:OCC")
    p.add_argument("--site", type=int, nargs=2, default=None,
                   metavar=("ROW", "COL"))
    p.set_defaults(func=cmd_constrained)

    p = sub.add_parser("perturb", parents=[common],
                       help="first-order free energy in the coupling shift")
    p.add_argument("--beta-s", type=_finite_float, default=0.0)
    p.add_argument("--u", type=_finite_float, default=0.0)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("series", parents=[common],
                       help="exact singular expansions")
    p.add_argument("--target",
                   choices=("stirling", "fst", "sng", "b2"),
                   default="sng")
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("coulomb", parents=[common],
                       help="renormalization exponent and its expansion")
    p.add_argument("--beta-eps", type=_finite_float, default=None)
    p.add_argument("--expand", type=int, default=None, metavar="ORDER")
    p.set_defaults(func=cmd_coulomb)

    p = sub.add_parser("verify", parents=[common],
                       help="run self-verification suites")
    p.add_argument("--suite",
                   choices=("all",) + tuple(verify.SUITES), default="all")
    p.set_defaults(func=cmd_verify)
    # read -1e-3 and -0.5:0.5:0.5 as values, not options, as Python 3.13 does
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone (`| head -1`): what is still buffered goes to
        # devnull, so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except FieldOverflow as exc:
        return _usage_error(f"--beta-s is too large: {exc}")
    except BadInput as exc:
        return _usage_error(str(exc))
    except (VertexExpandError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
