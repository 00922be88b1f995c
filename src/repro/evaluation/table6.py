"""Table VI: optimization of critical loops in the image applications.

Tile sizes, achieved II, and parallelism for the critical (longest)
loop of EdgeDetect, Gaussian, and Blur under ScaleHLS and POM.
"""

from __future__ import annotations

from typing import Dict

from repro.evaluation.frameworks import (
    Experiment, RunResult, achieved_ii, fmt_tiles, format_table, grid,
)
from repro.workloads import image

DEFAULT_SIZE = 4096


def run(size: int = DEFAULT_SIZE) -> Dict[str, Dict[str, RunResult]]:
    return grid(
        ((name, fw), fw, factory, size, {})
        for name, factory in image.SUITE.items() for fw in ("scalehls", "pom")
    )


def render(results: Dict[str, Dict[str, RunResult]]) -> str:
    headers = [
        "Benchmark",
        "Tile sizes (ScaleHLS)", "Tile sizes (POM)",
        "II (ScaleHLS)", "II (POM)",
        "Parallelism (ScaleHLS)", "Parallelism (POM)",
    ]
    rows = [
        [
            name,
            *(fmt_tiles(r.tiles) for r in pair.values()),
            *(achieved_ii(r) for r in pair.values()),
            *(f"{r.parallelism:.2f}" for r in pair.values()),
        ]
        for name, pair in results.items()
    ]
    return format_table(headers, rows, title="Table VI: critical-loop optimization (image apps)")


EXPERIMENT = Experiment(run, render, quick_size=256)

if __name__ == "__main__":
    EXPERIMENT.main()
