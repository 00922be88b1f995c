"""Figure 11: 2MM speedup and utilization under resource constraints.

Sweeps the resource budget (fractions of the XC7Z020) and compares the
accelerators ScaleHLS and POM generate under each constraint -- the
paper's claim is that POM reaches higher performance at every budget.
"""

from __future__ import annotations

from typing import Dict

from repro.evaluation.frameworks import (
    Claim, Experiment, Reading, RunResult, format_table, grid, leaves, ratio, speedup,
)
from repro.hls.device import DEFAULT_DEVICE
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


def _budget_readings(r):
    for fraction in (0.25, 0.5):
        budget, used = DEFAULT_DEVICE.scaled(fraction), r[fraction]["pom"].report.resources
        yield Reading(f"{fraction:.0%} POM DSP", used.dsp, "<=", budget.dsp)
        yield Reading(f"{fraction:.0%} POM LUT", used.lut, "<=", budget.lut)


CLAIMS = (
    Claim("POM wins at every budget", "POM reaches higher performance at every resource budget",
          lambda r: [Reading(f"{f:.0%} POM/ScaleHLS speedup", ratio(pair), ">=", 1)
                     for f, pair in r.items()]),
    Claim("POM grows with the budget", "POM's speedup grows with the budget", lambda r: [
        Reading(f"POM speedup {high:.0%} vs {low:.0%}", r[high]["pom"].speedup,
                ">=", r[low]["pom"].speedup)
        for low, high in zip(sorted(r), sorted(r)[1:])
    ]),
    Claim("budgets respected", "each constrained design stays inside its budget", _budget_readings),
    Claim("constrained DSE pays off", "2MM under a 50% budget still gains over 10x",
          lambda r: [Reading("50% POM speedup", r[0.5]["pom"].speedup, ">", 10)]),
)

EXPERIMENT = Experiment(
    run, render, quick={"size": 512, "fractions": (0.25, 0.5, 1.0)}, claims=CLAIMS,
)

if __name__ == "__main__":
    EXPERIMENT.main()
