"""Table V: image processing and DNN applications.

ScaleHLS vs POM speedups and resources on EdgeDetect/Gaussian/Blur and
on VGG-16/ResNet-18, with the paper's P/S (POM-over-ScaleHLS) ratios.
For the DNNs, ScaleHLS runs its pipelined-dataflow strategy (private
resources per layer -- which overflows the device) while POM shares
operators across sequentially executed layers.
"""

from __future__ import annotations

from typing import Dict

from repro.evaluation.frameworks import Experiment, RunResult, format_table, grid, speedup
from repro.workloads import dnn, image

IMAGE_SIZE = 4096
DNN_SIZE = 512
DNN_SCALE = 1.0


def run(
    image_size: int = IMAGE_SIZE,
    dnn_size: int = DNN_SIZE,
    dnn_scale: float = DNN_SCALE,
    include_dnn: bool = True,
) -> Dict[str, Dict[str, RunResult]]:
    points = [
        ((name, fw), fw, factory, image_size, {})
        for name, factory in image.SUITE.items() for fw in ("scalehls", "pom")
    ]
    if include_dnn:
        points += [
            ((name, fw), fw, factory, dnn_size,
             {"channel_scale": dnn_scale, "dataflow_scalehls": fw == "scalehls"})
            for name, factory in dnn.SUITE.items() for fw in ("scalehls", "pom")
        ]
    return grid(points)


def render(results: Dict[str, Dict[str, RunResult]]) -> str:
    headers = ["Application", "Metric", "ScaleHLS", "POM", "P/S"]
    rows = []
    for name, pair in results.items():
        sh, pom = pair["scalehls"], pair["pom"]
        rows.append([name, "Speedup", speedup(sh), speedup(pom), f"{pom.speedup / sh.speedup:.1f}"])
        for resource in ("dsp", "ff", "lut"):
            s, p = (getattr(r.report.resources, resource) for r in (sh, pom))
            ratio = p / s if s else float("inf")
            rows.append([name, resource.upper(), str(s), str(p), f"{ratio:.1f}"])
        rows.append([
            name, "Feasible",
            *("yes" if r.report.feasible() else "NO (exceeds device)" for r in (sh, pom)),
            "-",
        ])
    return format_table(headers, rows, title="Table V: image processing and DNN applications")


EXPERIMENT = Experiment(run, render)

if __name__ == "__main__":
    EXPERIMENT.main()
