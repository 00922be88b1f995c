"""Table VII: complicated data access patterns (stencils).

POM auto-DSE speedups and resource usage on Jacobi-1d, Jacobi-2d,
Heat-1d, and Seidel -- the workloads on which ScaleHLS and POLSCA "fail
to find an optimization strategy" while POM's skewing succeeds, with
modest resource utilization (carried dependences still bound the
parallelism).
"""

from __future__ import annotations

from typing import Dict

from repro.evaluation.frameworks import (
    Claim, Experiment, Reading, RunResult, format_table, grid, ratio, speedup, table_rows,
    utilization,
)
from repro.workloads import stencils

SIZES = {"jacobi-1d": 4096, "jacobi-2d": 512, "heat-1d": 4096, "seidel": 512}
STEPS = {"jacobi-1d": 64, "jacobi-2d": 32, "heat-1d": 64, "seidel": 16}
QUICK_SIZES = {"jacobi-1d": 512, "jacobi-2d": 64, "heat-1d": 512, "seidel": 64}
#: The in-place stencils, which the paper says only skewing parallelizes.
TIGHT = ("heat-1d", "seidel")


def run(sizes: Dict[str, int] = SIZES) -> Dict[str, Dict[str, RunResult]]:
    return grid(
        ((name, fw), fw, factory, sizes.get(name, 512), {"steps": STEPS.get(name, 16)})
        for name, factory in stencils.SUITE.items() for fw in ("scalehls", "pom")
    )


def render(results: Dict[str, Dict[str, RunResult]]) -> str:
    headers = ["Benchmark", "Framework", "Speedup", "DSP(%)", "FF(%)", "LUT(%)"]
    rows = table_rows(results, (speedup, *map(utilization, ("dsp", "ff", "lut"))))
    return format_table(headers, rows, title="Table VII: complicated code patterns (stencils)")


CLAIMS = (
    Claim("POM improves every stencil", "POM 22.9x-136x (65x average)", lambda r: [
        Reading(f"{name} POM speedup", pair["pom"].speedup, ">", 5) for name, pair in r.items()
    ]),
    Claim("ScaleHLS fails on tight dependences",
          "ScaleHLS and POLSCA fail to find an optimization strategy", lambda r: [
              Reading(f"{name} ScaleHLS speedup", r[name]["scalehls"].speedup, "<", 3)
              for name in TIGHT
          ]),
    Claim("POM skewing advantage", "POM's skewing succeeds where ScaleHLS fails", lambda r: [
        Reading(f"{name} POM/ScaleHLS speedup", ratio(r[name]), ">", 5) for name in TIGHT
    ]),
    Claim("POM feasible everywhere", "modest resource utilization on every stencil", lambda r: [
        Reading(f"{name} POM fits", pair["pom"].report.feasible(), "==", True)
        for name, pair in r.items()
    ]),
)

EXPERIMENT = Experiment(run, render, quick={"sizes": QUICK_SIZES}, claims=CLAIMS)

if __name__ == "__main__":
    EXPERIMENT.main()
