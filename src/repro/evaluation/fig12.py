"""Figure 12: scalability across problem sizes (32 .. 8192).

POM vs ScaleHLS speedups on the five polybench kernels as the problem
size grows.  The paper's shape: both scale until ~2048; at 4096/8192
ScaleHLS degrades (imbalanced DSE, infeasible partitioning) while POM
keeps generating high-quality designs; at very small sizes POM may be
slightly behind (it deprioritizes cheap loops).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.evaluation.frameworks import Experiment, RunResult, format_table, grid, speedup
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


EXPERIMENT = Experiment(run, render)

if __name__ == "__main__":
    EXPERIMENT.main()
