"""Table IV: DSE-generated BICG vs expert manual optimization.

Unoptimized vs hand-tuned vs auto-DSE designs: cycles, speedup, and
resource utilization.  The paper's point: the DSE design is ~1.4x
faster than the expert's while using fewer resources.
"""

from __future__ import annotations

from typing import Dict

from repro.evaluation.frameworks import (
    Experiment, RunResult, cycles, format_table, grid, speedup, table_rows, utilization,
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


EXPERIMENT = Experiment(run, render, quick_size=256)

if __name__ == "__main__":
    EXPERIMENT.main()
