"""Table III: POLSCA / ScaleHLS / POM on typical HLS benchmarks.

Regenerates the paper's main comparison: speedup, DSP/FF/LUT
utilization, power, achieved II, tile sizes, parallelism, and DSE time
for GEMM, BICG, GESUMMV, 2MM, and 3MM.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.evaluation.frameworks import (
    Claim, Experiment, Reading, RunResult, achieved_ii, fmt_tiles, format_table, grid, ratio,
    speedup, table_rows, utilization,
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


def _tile_spread(r: RunResult) -> float:
    """Largest over smallest tile product of a design's loops."""
    products = [max(1, math.prod(vector)) for vector in r.tiles.values()]
    return max(products) / min(products)


CLAIMS = (
    Claim("POLSCA weak everywhere", "POLSCA stays at single digits with tiny DSP", lambda r: [
        reading for name, pair in r.items() for reading in (
            Reading(f"{name} POLSCA speedup", pair["polsca"].speedup, "<", 30),
            Reading(f"{name} POLSCA DSP", pair["polsca"].report.resources.dsp, "<", 30),
        )
    ]),
    Claim("POM beats POLSCA", "POM is one to two orders of magnitude faster than POLSCA", lambda r: [
        Reading(f"{name} POM/POLSCA speedup", ratio(pair, "pom", "polsca"), ">", 5)
        for name, pair in r.items()
    ]),
    Claim("POM feasible", "every POM design fits the device", lambda r: [
        Reading(f"{name} POM fits", pair["pom"].report.feasible(), "==", True)
        for name, pair in r.items()
    ]),
    Claim("POM = ScaleHLS on GEMM", "GEMM: 575.9x vs 576.1x (ratio 0.99)", lambda r: [
        Reading("gemm POM/ScaleHLS speedup", ratio(r["gemm"]), ">", 0.8),
        Reading("gemm POM/ScaleHLS speedup", ratio(r["gemm"]), "<", 2.0),
    ]),
    Claim("POM wins big on BICG", "BICG: 224x vs 41.7x (5.4x)",
          lambda r: [Reading("bicg POM/ScaleHLS speedup", ratio(r["bicg"]), ">", 3)]),
    Claim("POM wins on 2MM/3MM", "16.4x on 2MM, 8.4x on 3MM", lambda r: [
        Reading(f"{name} POM/ScaleHLS speedup", ratio(r[name]), ">", 1.5) for name in ("2mm", "3mm")
    ]),
    Claim("ScaleHLS imbalanced on 3MM", "ScaleHLS leaves the later 3MM loops nearly untouched",
          lambda r: [Reading("3mm ScaleHLS tile spread", _tile_spread(r["3mm"]["scalehls"]), ">=", 4)]),
    Claim("POM balanced on 3MM", "POM tiles all three products comparably ([1,2,8] each)",
          lambda r: [Reading("3mm POM tile spread", _tile_spread(r["3mm"]["pom"]), "<=", 4)]),
    Claim("POM parallelism", "POM parallelism degrees 32/16/16/32/16", lambda r: [
        Reading(f"{name} POM parallelism", pair["pom"].parallelism, ">=", 8)
        for name, pair in r.items()
    ]),
    Claim("power tracks resources", "more DSP/LUT/FF means more watts (power column)", lambda r: [
        Reading("gemm POLSCA power (W)", r["gemm"]["polsca"].report.power_w,
                "<", r["gemm"]["pom"].report.power_w),
    ]),
)

EXPERIMENT = Experiment(run, render, quick={"size": 512}, claims=CLAIMS)

if __name__ == "__main__":
    EXPERIMENT.main()
