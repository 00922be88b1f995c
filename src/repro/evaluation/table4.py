"""Table IV: DSE-generated BICG vs expert manual optimization.

Unoptimized vs hand-tuned vs auto-DSE designs: cycles, speedup, and
resource utilization.  The paper's point: the DSE design is ~1.4x
faster than the expert's while using fewer resources.
"""

from __future__ import annotations

from typing import Dict

from repro.evaluation.frameworks import (
    Claim, Experiment, Reading, RunResult, cycles, format_table, grid, speedup, table_rows,
    utilization,
)
from repro.workloads import polybench

DEFAULT_SIZE = 4096


def run(size: int = DEFAULT_SIZE) -> Dict[str, RunResult]:
    return grid(
        ((label,), framework, polybench.bicg, size, {})
        for label, framework in (
            ("Unoptimized", "baseline"),
            ("Manual opt.", "manual"),
            ("DSE opt.", "pom"),
        )
    )


def render(results: Dict[str, RunResult]) -> str:
    headers = ["Design", "Cycles", "Speedup", "DSP(%)", "FF(%)", "LUT(%)"]
    rows = table_rows(results, (cycles, speedup, *map(utilization, ("dsp", "ff", "lut"))))
    return format_table(headers, rows, title="Table IV: manual vs DSE optimization (BICG)")


CLAIMS = (
    Claim("manual far above baseline", "161x for the hand design",
          lambda r: [Reading("manual speedup", r["Manual opt."].speedup, ">", 50)]),
    Claim("DSE beats manual", "224x vs 161x (1.39x)", lambda r: [
        Reading("DSE/manual speedup", r["DSE opt."].speedup / r["Manual opt."].speedup, ">", 1.2),
    ]),
    Claim("DSE design fits", "the DSE design fits the device",
          lambda r: [Reading("DSE design fits", r["DSE opt."].report.feasible(), "==", True)]),
)

EXPERIMENT = Experiment(run, render, quick={"size": 512}, claims=CLAIMS)

if __name__ == "__main__":
    EXPERIMENT.main()
