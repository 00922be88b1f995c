"""Task-level dataflow pipelines: balanced vs. naive throughput.

Not a table from the paper: the source work generates one kernel per
design.  This experiment runs the joint dataflow DSE
(:func:`repro.dataflow.auto_dse_dataflow`) over the multi-kernel FIFO
pipeline workloads under a constrained resource budget and compares the
throughput-balanced allocation (spend only on the bottleneck stage)
against the naive even split of the same budget (see docs/dataflow.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import workloads as registry
from repro.dataflow import DataflowDseResult
from repro.dse import DseOptions
from repro.evaluation.frameworks import Experiment, format_table
from repro.hls.device import get_device

WORKLOADS = ("image-pipeline", "conv-block")
DEFAULT_SIZE = 32
#: Fraction of the device budget given to the DSE.  The even split only
#: loses to balancing when the budget is tight enough that spending on a
#: non-bottleneck stage wastes resources the bottleneck needed.
RESOURCE_FRACTION = 0.25


def run(
    size: int = DEFAULT_SIZE,
    workloads: Sequence[str] = WORKLOADS,
    device: Optional[str] = None,
) -> Dict[str, DataflowDseResult]:
    """``device`` is a device-zoo name (e.g. ``report_all --device``)."""
    options = DseOptions(
        resource_fraction=RESOURCE_FRACTION,
        device=None if device is None else get_device(device),
    )
    return {
        name: registry.get(name, size).auto_DSE(options=options)
        for name in workloads
    }


def render(results: Dict[str, DataflowDseResult]) -> str:
    headers = [
        "Workload", "Stages", "Interval", "Naive", "Speedup",
        "Bottleneck", "DSP", "FIFO depths",
    ]
    rows: List[List[str]] = []
    for name, result in results.items():
        report = result.report
        depths = ",".join(
            f"{fifo.array}={fifo.depth}" for fifo in report.fifos
        )
        rows.append([
            name,
            str(len(result.design.stages)),
            str(report.interval_cycles),
            str(result.naive_report.interval_cycles),
            f"{result.balanced_speedup:.2f}x",
            report.bottleneck(),
            str(report.resources.dsp),
            depths,
        ])
    return format_table(
        headers, rows,
        title=f"Dataflow pipelines ({RESOURCE_FRACTION:.0%} budget, "
              "balanced vs naive even-split)",
    )


EXPERIMENT = Experiment(run, render, quick={"size": 16}, device_aware=True)

if __name__ == "__main__":
    EXPERIMENT.main()
