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
from repro.evaluation.frameworks import Claim, Experiment, Reading, format_table
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


FULL = VARIANTS[-1][0]
HW_ONLY = ("LP", "LP+LU", "LP+LU+AP")


def _by(points: List[AblationPoint]) -> Dict[tuple, AblationPoint]:
    return {(p.benchmark, p.variant): p for p in points}


def _gain(points, benchmark: str, variants) -> float:
    """The full design's speedup over the best of ``variants``."""
    by = _by(points)
    return by[benchmark, FULL].speedup / max(by[benchmark, v].speedup for v in variants)


def _layers_add(points):
    by = _by(points)
    for benchmark in ("edgedetect", "2mm"):
        lp, lu, ap = (by[benchmark, v].speedup for v in HW_ONLY)
        yield Reading(f"{benchmark} LP/(LP+LU)", lp / lu, "<=", 1.01)
        yield Reading(f"{benchmark} (LP+LU)/(LP+LU+AP)", lu / ap, "<=", 1.01)


CLAIMS = (
    Claim("EdgeDetect gains from pipelining", "EdgeDetect gains 9.6x from loop pipelining alone",
          lambda p: [Reading("edgedetect LP speedup", _by(p)["edgedetect", "LP"].speedup, ">", 4)]),
    Claim("Seidel immune to hardware opts",
          "the improvement of Seidel with the same optimization is limited", lambda p: [
              Reading(f"seidel {v} speedup", _by(p)["seidel", v].speedup, "<", 2 if v == "LP" else 10)
              for v in HW_ONLY
          ]),
    Claim("Seidel needs skewing", "the big jump comes only once loop skewing is applied", lambda p: [
        Reading("seidel full / best hardware-only speedup", _gain(p, "seidel", HW_ONLY), ">", 5),
    ]),
    Claim("2MM needs the combination",
          "2MM benefits most from transforms + hardware opts together", lambda p: [
              Reading("2mm full / LP+LU+AP speedup", _gain(p, "2mm", ("LP+LU+AP",)), ">", 2),
          ]),
    Claim("each hardware layer adds", "LP <= LP+LU <= LP+LU+AP on the dependence-light benchmarks",
          _layers_add),
    Claim("resources grow with parallelism",
          "the full design spends more DSP than pipelining alone", lambda p: [
              Reading(f"{b} full DSP", _by(p)[b, FULL].dsp, ">", _by(p)[b, "LP"].dsp)
              for b in ("edgedetect", "2mm")
          ]),
)

EXPERIMENT = Experiment(run, render, claims=CLAIMS)

if __name__ == "__main__":
    EXPERIMENT.main()
