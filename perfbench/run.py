"""Benchmark entry point for vertex-expand.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's ``src/``.  One process runs the workload's op list in whole
rounds until ``--seconds`` have passed, then checks every round against
references computed apart from the program.  With ``--trace 0`` the last
line of stdout reports the end-to-end metrics; with ``--trace 1`` rounds
alternate untraced and traced, one traced round of each other workload
follows, the spans go to ``perfbench/traces/<workload>-seed<N>.json`` and
the last line reports the per-layer metrics.  The line before it is a
record of the run: inputs, environment, per-round times, failed ops,
problems and a result digest.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh processes timed per run for setup_s, and for import.package_s; half
#: run before the rounds and half after, so the samples span the whole run
#: rather than a few seconds of a host whose speed drifts
SPAWNS = 6


def spawn_probe(args: list[str]) -> tuple[float, str]:
    """Seconds from spawning ``probe.py ARGS`` to its first line, and the line."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE)
    line = proc.stdout.readline().decode().strip()
    seconds = perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or not line:
        raise RuntimeError(f"probe {args} exited {proc.returncode}")
    return seconds, line


def openblas_threads() -> int | None:
    """Size of numpy's OpenBLAS thread pool, from the library numpy loaded."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numba": numba_version,
        "blas": blas_name,
        "blas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def measure(workload, seconds: float, tracer):
    """Whole rounds until ``seconds`` have passed.  With a tracer, odd
    rounds are traced and even ones not, and at least one of each runs."""
    from spans import untraced
    rounds, walls, traced_walls, cpus = [], [], [], []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        span = tracer.span if traced else untraced
        if traced:
            tracer.round = len(rounds)
        began, cpu = perf_counter(), cpu_seconds()
        with span("round", index=len(rounds)):
            results = workload.round(span)
        (traced_walls if traced else walls).append(perf_counter() - began)
        cpus.append(cpu_seconds() - cpu)
        rounds.append(results)
        if perf_counter() - start >= seconds and (tracer is None or traced_walls):
            break
    if tracer is not None:
        tracer.round = None
    return rounds, walls, traced_walls, cpus


def layer_round(name: str, seed: int):
    """One traced, checked round of workload ``name``: its layer metrics,
    its spans, its problems and its failed ops."""
    import probe
    from spans import Tracer
    from workloads import WORKLOADS
    probe.WARM_UPS[name]()
    workload = WORKLOADS[name](seed)
    tracer = Tracer()
    tracer.round = 0
    with tracer.span("round", index=0):
        results = workload.round(tracer.span)
    problems, failed = workload.check(results, workload.references())
    return workload.layer_metrics(tracer, results), tracer.spans, problems, failed


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def digest(results: dict) -> str:
    from workloads import plain
    items = sorted((repr(k), plain(r.value), r.error) for k, r in results.items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("site-stats", "thermo-sweep", "finite-oracles",
                                 "cli-cold"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vertex_expand" / "__init__.py").is_file():
        print(f"error: {SRC / 'vertex_expand'} not found; run from the root "
              "of a vertex-expand checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    import probe
    from spans import Tracer
    from workloads import WORKLOADS, CliCold

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": environment()}

    def sample() -> float:
        if args.trace:
            return float(spawn_probe(["import"])[1])
        return spawn_probe([args.workload])[0]

    samples = [sample() for _ in range(SPAWNS // 2)]
    probe.WARM_UPS[args.workload]()
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    rounds, walls, traced_walls, cpus = measure(workload, args.seconds, tracer)
    if args.workload == "cli-cold":
        peak_mb = max(r.value.maxrss_mb for res in rounds
                      for r in res.values() if r.value is not None)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples += [sample() for _ in range(SPAWNS - SPAWNS // 2)]
    record["import_samples_s" if args.trace else "setup_samples_s"] = samples

    ref = workload.references()
    problems, failed, failures = [], 0, []
    for results in rounds:
        round_problems, round_failed = workload.check(results, ref)
        problems += round_problems
        failed += len(round_failed)
        failures += [f for f in round_failed if f not in failures]
    attempted = sum(len(results) for results in rounds)

    if args.trace:
        # Every layer is measured in every traced run: the layers this
        # workload does not call come from one traced round of each other
        # workload (site-stats last, so its dimer figures win over
        # finite-oracles'), and cli.main and the verify suites from an
        # in-process pass.  This workload's own spans override both.
        metrics, layer_rounds, layer_failures = {}, {}, []
        for name in reversed(WORKLOADS):
            if name != args.workload:
                other_metrics, spans, other_problems, other_failed = \
                    layer_round(name, args.seed)
                metrics.update(other_metrics)
                layer_rounds[name] = spans
                problems += other_problems
                layer_failures += other_failed
        cli = workload if args.workload == "cli-cold" else CliCold(args.seed)
        in_process = Tracer()
        cli_metrics, cli_problems, cli_failed = cli.in_process(
            in_process, ref if cli is workload else cli.references())
        metrics.update(cli_metrics)
        problems += cli_problems
        layer_failures += cli_failed
        layer_rounds["cli.main"] = in_process.spans
        metrics.update(workload.layer_metrics(tracer, rounds[0]))
        metrics["import.package_s"] = statistics.median(samples)
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        out_path = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(out_path, layer_rounds=layer_rounds)
        record["trace_file"] = str(out_path.relative_to(ROOT))
        record["layer_round_failed_ops"] = layer_failures
    else:
        metrics = {"setup_s": statistics.median(samples),
                   "wall_s": statistics.median(walls),
                   "peak_rss_mb": peak_mb}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    record.update({
        "rounds": len(rounds),
        "round_walls_s": walls,
        "traced_round_walls_s": traced_walls,
        "round_cpu_s": cpus,
        "ops_per_round": len(rounds[0]),
        "failed_ops": failures,
        "problems": problems[:50],
        "digest": digest(rounds[0]),
    })
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
