"""Figure 13: accumulated resource usage for DNN workloads.

Per-critical-loop accumulated DSP/LUT series for VGG-16 and ResNet-18
under POM (layers executed in sequence, operators reused, so the
accumulated curve is flat) and ScaleHLS (pipelined dataflow with
private per-layer hardware, so the curve climbs past the device budget).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Dict, List

from repro.dse import auto_dse
from repro.baselines import scalehls
from repro.affine.ir import AffineStoreOp, FuncOp
from repro.affine.lowering import lower_program
from repro.hls.device import DEFAULT_DEVICE
from repro.hls.estimator import HlsEstimator
from repro.polyir.program import PolyProgram
from repro.evaluation.frameworks import Claim, Experiment, Reading, format_table
from repro.workloads import dnn

DEFAULT_SIZE = 32
DEFAULT_SCALE = 0.25


@dataclass
class AccumulatedSeries:
    """Accumulated resources after each critical loop, in layer order."""

    framework: str
    network: str
    loops: List[str]
    dsp: List[int]
    lut: List[int]
    feasible: bool


def _per_loop_resources(func_op: FuncOp, estimator: HlsEstimator) -> Dict[str, tuple]:
    """(dsp, lut) of each top-level nest, keyed by contained statement."""
    per_loop: Dict[str, tuple] = {}
    for op in func_op.body:
        shell = FuncOp(func_op.name, func_op.arrays)
        shell.attributes.update(func_op.attributes)
        shell.body.append(op)
        report = estimator.estimate(shell)
        for inner in op.walk():
            if isinstance(inner, AffineStoreOp) and inner.statement_name():
                per_loop[inner.statement_name()] = (
                    report.resources.dsp, report.resources.lut
                )
    return per_loop


def run_network(name: str, size: int = DEFAULT_SIZE, scale: float = DEFAULT_SCALE) -> List[AccumulatedSeries]:
    # POM runs layers in sequence on shared operators (accumulated usage
    # is a running max); ScaleHLS gives each layer private hardware in a
    # dataflow pipeline (a running sum).
    frameworks = (
        ("pom", lambda f: auto_dse(f).report, HlsEstimator(), max),
        ("scalehls", lambda f: scalehls.optimize(f, dataflow=True).report,
         HlsEstimator(dataflow=True, share_sequential=False), operator.add),
    )
    series = []
    for framework, optimize, estimator, accumulate in frameworks:
        function = dnn.SUITE[name](size=size, channel_scale=scale)
        report = optimize(function)
        func_op = lower_program(PolyProgram(function).apply_schedule())
        per_loop = _per_loop_resources(func_op, estimator)
        loops = [c for c in dnn.critical_loops(function) if c in per_loop]
        dsp = list(itertools.accumulate((per_loop[l][0] for l in loops), accumulate))
        lut = list(itertools.accumulate((per_loop[l][1] for l in loops), accumulate))
        series.append(AccumulatedSeries(framework, name, loops, dsp, lut, report.feasible()))
    return series


def run(size: int = DEFAULT_SIZE, scale: float = DEFAULT_SCALE) -> List[AccumulatedSeries]:
    return [s for name in ("vgg16", "resnet18") for s in run_network(name, size, scale)]


def render(results: List[AccumulatedSeries]) -> str:
    headers = ["Network", "Framework", "Loop", "Accum. DSP", "Accum. LUT", "Device DSP"]
    rows = [
        [series.network, series.framework, loop, str(dsp), str(lut), str(DEFAULT_DEVICE.dsp)]
        for series in results
        for loop, dsp, lut in zip(series.loops, series.dsp, series.lut)
    ]
    return format_table(headers, rows, title="Fig. 13: accumulated DNN resource usage")


def _pairs(results: List[AccumulatedSeries]):
    """``(network, POM series, ScaleHLS series)`` per network."""
    by = {(s.network, s.framework): s for s in results}
    return [(net, by[net, "pom"], by[net, "scalehls"]) for net in dnn.SUITE]


def _flat(results):
    for net, pom, _ in _pairs(results):
        yield Reading(f"{net} POM final DSP", pom.dsp[-1], "==", max(pom.dsp))
        yield Reading(f"{net} POM final DSP", pom.dsp[-1], "<=", DEFAULT_DEVICE.dsp)


def _accumulates(results):
    for net, _, sh in _pairs(results):
        yield Reading(f"{net} ScaleHLS final DSP", sh.dsp[-1], ">=", sh.dsp[0])
        drops = sum(later < earlier for earlier, later in zip(sh.dsp, sh.dsp[1:]))
        yield Reading(f"{net} ScaleHLS decreasing steps", drops, "==", 0)


CLAIMS = (
    Claim("POM curve flat", "POM's accumulated resources stay flat (reuse) within the device",
          _flat),
    Claim("ScaleHLS curve accumulates", "ScaleHLS's dataflow hardware accumulates layer by layer",
          _accumulates),
    Claim("ScaleHLS exceeds POM", "ScaleHLS accumulates past POM's total", lambda r: [
        Reading(f"{net} ScaleHLS final DSP", sh.dsp[-1], ">", pom.dsp[-1])
        for net, pom, sh in _pairs(r)
    ]),
    Claim("critical loop counts", "13 critical loops for VGG-16, 20 for ResNet-18", lambda r: [
        Reading(f"{net} critical loops", len(pom.loops), "==", {"vgg16": 13, "resnet18": 20}[net])
        for net, pom, _ in _pairs(r)
    ]),
)

EXPERIMENT = Experiment(run, render, claims=CLAIMS)

if __name__ == "__main__":
    EXPERIMENT.main()
