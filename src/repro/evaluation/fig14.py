"""Figure 14: impact analysis of scheduling primitives (ablation).

Cumulative primitive ladders on the paper's representative benchmarks
(EdgeDetect, Seidel, 2MM): loop pipelining alone (LP), plus unrolling
(LU), plus array partitioning (AP), plus dependence-aware loop
transformations (LI/LS/LT and LSK for the stencil), i.e. the full POM
design.  The paper's findings to reproduce: EdgeDetect gains most from
pipelining, Seidel barely moves until skewing is added, and 2MM needs
the transformation + hardware-optimization combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.dsl.function import Function
from repro.dse import auto_dse
from repro.dse.stage2 import banked_partitions, derive_partitions
from repro.evaluation.frameworks import Experiment, format_table
from repro.pipeline import estimate
from repro.workloads import image, polybench, stencils

SIZES = {"edgedetect": 512, "seidel": 128, "2mm": 256}
FACTORIES: Dict[str, Callable[..., Function]] = {
    "edgedetect": image.edge_detect,
    "seidel": lambda n: stencils.seidel(n, steps=8),
    "2mm": polybench.mm2,
}
UNROLL = 8


@dataclass
class AblationPoint:
    benchmark: str
    variant: str
    speedup: float
    dsp: int
    lut: int


def _pipeline_only(function: Function) -> None:
    for compute in function.computes:
        compute.pipeline(compute.iter_names[-1], 1)


def _pipeline_unroll(function: Function) -> None:
    for compute in function.computes:
        innermost = compute.iter_names[-1]
        extent = compute.iters[-1].extent
        factor = min(UNROLL, extent)
        while factor > 1 and extent % factor:
            factor -= 1
        if factor > 1:
            compute.split(innermost, factor, f"{innermost}_p", f"{innermost}_u")
            compute.pipeline(f"{innermost}_p", 1)
            compute.unroll(f"{innermost}_u", 0)
        else:
            compute.pipeline(innermost, 1)


def _pipeline_unroll_partition(function: Function) -> None:
    _pipeline_unroll(function)
    function.set_partitions(banked_partitions(function.partitions(), derive_partitions(function)))


VARIANTS: List = [
    ("base", lambda f: None),
    ("LP", _pipeline_only),
    ("LP+LU", _pipeline_unroll),
    ("LP+LU+AP", _pipeline_unroll_partition),
    ("full (LI/LS/LT/LSK + HW)", auto_dse),
]


def run(sizes: Dict[str, int] = SIZES) -> List[AblationPoint]:
    points: List[AblationPoint] = []
    for benchmark, factory in FACTORIES.items():
        size = sizes[benchmark]
        baseline = estimate(factory(size))
        for variant, apply_fn in VARIANTS:
            function = factory(size)
            apply_fn(function)
            report = estimate(function)
            points.append(
                AblationPoint(
                    benchmark=benchmark,
                    variant=variant,
                    speedup=baseline.total_cycles / max(1, report.total_cycles),
                    dsp=report.resources.dsp,
                    lut=report.resources.lut,
                )
            )
    return points


def render(points: List[AblationPoint]) -> str:
    headers = ["Benchmark", "Primitives", "Speedup", "DSP", "LUT"]
    rows = [
        [p.benchmark, p.variant, f"{p.speedup:.1f}x", str(p.dsp), str(p.lut)]
        for p in points
    ]
    return format_table(headers, rows, title="Fig. 14: scheduling-primitive ablation")


EXPERIMENT = Experiment(run, render)

if __name__ == "__main__":
    EXPERIMENT.main()
