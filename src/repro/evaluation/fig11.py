"""Figure 11: 2MM speedup and utilization under resource constraints.

Sweeps the resource budget (fractions of the XC7Z020) and compares the
accelerators ScaleHLS and POM generate under each constraint -- the
paper's claim is that POM reaches higher performance at every budget.
"""

from __future__ import annotations

from typing import Dict

from repro.evaluation.frameworks import (
    Experiment, RunResult, format_table, grid, leaves, speedup,
)
from repro.workloads import polybench

FRACTIONS = (0.25, 0.5, 0.75, 1.0)
DEFAULT_SIZE = 4096


def run(size: int = DEFAULT_SIZE, fractions=FRACTIONS) -> Dict[float, Dict[str, RunResult]]:
    return grid(
        ((fraction, fw), fw, polybench.mm2, size, {"resource_fraction": fraction})
        for fraction in fractions for fw in ("scalehls", "pom")
    )


def render(results: Dict[float, Dict[str, RunResult]]) -> str:
    headers = ["Budget", "Framework", "Speedup", "DSP util", "LUT util", "FF util"]
    rows = [
        [
            f"{fraction:.0%}", framework, speedup(r),
            f"{r.report.dsp_util:.0%}", f"{r.report.lut_util:.0%}", f"{r.report.ff_util:.0%}",
        ]
        for (fraction, framework), r in leaves(results)
    ]
    return format_table(headers, rows, title="Fig. 11: 2MM under resource constraints")


EXPERIMENT = Experiment(run, render, quick_size=256)

if __name__ == "__main__":
    EXPERIMENT.main()
