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
    Experiment, RunResult, format_table, grid, speedup, table_rows, utilization,
)
from repro.workloads import stencils

SIZES = {"jacobi-1d": 4096, "jacobi-2d": 512, "heat-1d": 4096, "seidel": 512}
STEPS = {"jacobi-1d": 64, "jacobi-2d": 32, "heat-1d": 64, "seidel": 16}


def run(sizes: Dict[str, int] = SIZES) -> Dict[str, Dict[str, RunResult]]:
    return grid(
        ((name, fw), fw, factory, sizes.get(name, 512), {"steps": STEPS.get(name, 16)})
        for name, factory in stencils.SUITE.items() for fw in ("scalehls", "pom")
    )


def render(results: Dict[str, Dict[str, RunResult]]) -> str:
    headers = ["Benchmark", "Framework", "Speedup", "DSP(%)", "FF(%)", "LUT(%)"]
    rows = table_rows(results, (speedup, *map(utilization, ("dsp", "ff", "lut"))))
    return format_table(headers, rows, title="Table VII: complicated code patterns (stencils)")


EXPERIMENT = Experiment(run, render)

if __name__ == "__main__":
    EXPERIMENT.main()
