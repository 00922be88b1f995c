"""Figure 2: the BICG motivating example.

Latency and speedup of BICG under the baseline, Pluto, POLSCA,
ScaleHLS, and POM -- the paper's Section II-D comparison, including the
achieved initiation intervals that drive the schedule illustrations in
Fig. 2(c)-(e).
"""

from __future__ import annotations

from typing import Dict

from repro.evaluation.frameworks import (
    Experiment, RunResult, achieved_ii, cycles, format_table, grid, speedup, table_rows,
)
from repro.workloads import polybench

FRAMEWORKS = ("baseline", "pluto", "polsca", "scalehls", "pom")
DEFAULT_SIZE = 4096


def run(size: int = DEFAULT_SIZE) -> Dict[str, RunResult]:
    return grid(((fw,), fw, polybench.bicg, size, {}) for fw in FRAMEWORKS)


def render(results: Dict[str, RunResult]) -> str:
    headers = ["Framework", "Latency (cycles)", "Speedup", "Achieved II"]
    rows = table_rows(results, (cycles, speedup, achieved_ii))
    return format_table(headers, rows, title=f"Fig. 2: BICG motivating example (size {next(iter(results.values())).size})")


EXPERIMENT = Experiment(run, render, quick_size=256)

if __name__ == "__main__":
    EXPERIMENT.main()
