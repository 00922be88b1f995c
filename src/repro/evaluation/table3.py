"""Table III: POLSCA / ScaleHLS / POM on typical HLS benchmarks.

Regenerates the paper's main comparison: speedup, DSP/FF/LUT
utilization, power, achieved II, tile sizes, parallelism, and DSE time
for GEMM, BICG, GESUMMV, 2MM, and 3MM.
"""

from __future__ import annotations

from typing import Dict

from repro.evaluation.frameworks import (
    Experiment, RunResult, achieved_ii, fmt_tiles, format_table, grid, speedup,
    table_rows, utilization,
)
from repro.workloads import polybench

BENCHMARKS = ("gemm", "bicg", "gesummv", "2mm", "3mm")
FRAMEWORKS = ("polsca", "scalehls", "pom")
DEFAULT_SIZE = 4096


def run(size: int = DEFAULT_SIZE, benchmarks=BENCHMARKS) -> Dict[str, Dict[str, RunResult]]:
    """All framework x benchmark points of Table III."""
    return grid(
        ((benchmark, fw), fw, polybench.SUITE[benchmark], size, {})
        for benchmark in benchmarks for fw in FRAMEWORKS
    )


def render(results: Dict[str, Dict[str, RunResult]]) -> str:
    headers = [
        "Benchmark", "Framework", "Speedup", "DSP(%)", "FF(%)", "LUT(%)",
        "Power(W)", "II", "Tiles", "Parallel", "DSE(s)",
    ]
    rows = table_rows(results, (
        speedup, *map(utilization, ("dsp", "ff", "lut")),
        lambda r: f"{r.report.power_w:.3f}",
        achieved_ii,
        lambda r: fmt_tiles(r.tiles),
        lambda r: f"{r.parallelism:.1f}" if r.tiles else "-",
        lambda r: f"{r.dse_time_s:.1f}",
    ))
    return format_table(headers, rows, title="Table III: typical HLS benchmarks")


EXPERIMENT = Experiment(run, render, quick_size=256)

if __name__ == "__main__":
    EXPERIMENT.main()
