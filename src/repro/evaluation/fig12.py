"""Figure 12: scalability across problem sizes (32 .. 8192).

POM vs ScaleHLS speedups on the five polybench kernels as the problem
size grows.  The paper's shape: both scale until ~2048; at 4096/8192
ScaleHLS degrades (imbalanced DSE, infeasible partitioning) while POM
keeps generating high-quality designs; at very small sizes POM may be
slightly behind (it deprioritizes cheap loops).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.evaluation.frameworks import (
    Claim, Experiment, Reading, RunResult, format_table, grid, ratio, speedup,
)
from repro.workloads import polybench

SIZES = (32, 128, 512, 2048, 4096, 8192)
BENCHMARKS = ("gemm", "bicg", "gesummv", "2mm", "3mm")


def run(
    sizes: Sequence[int] = SIZES, benchmarks: Sequence[str] = BENCHMARKS
) -> Dict[str, Dict[int, Dict[str, RunResult]]]:
    return grid(
        ((benchmark, size, fw), fw, polybench.SUITE[benchmark], size, {})
        for benchmark in benchmarks for size in sizes for fw in ("scalehls", "pom")
    )


def render(results) -> str:
    headers = ["Benchmark", "Size", "ScaleHLS", "POM", "POM/ScaleHLS"]
    rows = [
        [
            benchmark, str(size), speedup(pair["scalehls"]), speedup(pair["pom"]),
            f"{pair['pom'].speedup / pair['scalehls'].speedup:.2f}",
        ]
        for benchmark, by_size in results.items() for size, pair in by_size.items()
    ]
    return format_table(headers, rows, title="Fig. 12: scalability across problem sizes")


def _scales(r):
    for name in ("gemm", "bicg", "2mm"):
        small, large = min(r[name]), max(r[name])
        yield Reading(f"{name} POM speedup {large} vs {small}", r[name][large]["pom"].speedup,
                      ">", r[name][small]["pom"].speedup)


def _wins(r) -> float:
    pairs = [pair for by_size in r.values() for pair in by_size.values()]
    return sum(pair["pom"].speedup >= pair["scalehls"].speedup for pair in pairs) / len(pairs)


CLAIMS = (
    Claim("POM scales to large sizes",
          "POM keeps generating high-quality designs as the size grows", _scales),
    Claim("POM wins at large sizes",
          "ScaleHLS degrades at large sizes while POM keeps working", lambda r: [
              Reading(f"{name}@{max(r[name])} POM/ScaleHLS speedup", ratio(r[name][max(r[name])]),
                      ">", 1)
              for name in ("bicg", "2mm")
          ]),
    Claim("POM wins most points", "POM is superior for the majority of problem sizes",
          lambda r: [Reading("share of points POM >= ScaleHLS", _wins(r), ">", 0.5)]),
    Claim("POM gains at tiny sizes", "POM still improves the smallest GEMM",
          lambda r: [Reading("gemm@32 POM speedup", r["gemm"][32]["pom"].speedup, ">=", 1)]),
)

EXPERIMENT = Experiment(
    run, render, quick={"sizes": (32, 512, 4096), "benchmarks": ("gemm", "bicg", "2mm")},
    claims=CLAIMS,
)

if __name__ == "__main__":
    EXPERIMENT.main()
