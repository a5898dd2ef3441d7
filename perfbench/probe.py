"""A fresh process that gets one workload ready, for timing set-up.

``python3 perfbench/probe.py WORKLOAD`` imports the package from the
checkout's ``src/``, runs the workload's warm-up call on a tiny input and
prints ``ready``; the parent times spawn to that line.  ``probe.py import``
prints the seconds that ``import vertex_expand`` took inside the process.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _site_stats():
    from vertex_expand import dimer, model
    kast = dimer.kasteleyn_orientation(
        dimer.build_decorated(model.ModelParams(beta_s=0.3, rows=3, cols=3)))
    dimer.partition_dimer(kast)
    dimer.vertex_constrained_ratio(kast, (1, 1), 6)


def _thermo_sweep():
    from vertex_expand import integrals
    integrals.baxter_free_energy(0.5)
    integrals.dF0_dbetas(0.5)
    integrals.zb_ratio(0.5)
    integrals.baxter_series(0.5, 10)


def _finite_oracles():
    from vertex_expand import dimer, model
    fixed = model.ModelParams(beta_s=0.3, rows=2, cols=2)
    torus = model.ModelParams(beta_s=0.3, rows=2, cols=2,
                              boundary=model.Boundary.PERIODIC)
    model.enumerate_partition(fixed)
    dimer.partition_dimer(dimer.kasteleyn_orientation(dimer.build_decorated(fixed)))
    model.transfer_partition(torus)
    model.transfer_matrix_free_energy(
        model.ModelParams(beta_s=0.3, rows=4, cols=4,
                          boundary=model.Boundary.PERIODIC))


def _cli_cold():
    import vertex_expand.cli  # noqa: F401


WARM_UPS = {
    "site-stats": _site_stats,
    "thermo-sweep": _thermo_sweep,
    "finite-oracles": _finite_oracles,
    "cli-cold": _cli_cold,
}


def main(argv: list[str]) -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if argv == ["import"]:
        start = perf_counter()
        import vertex_expand  # noqa: F401
        print(repr(perf_counter() - start), flush=True)
        return 0
    WARM_UPS[argv[0]]()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
