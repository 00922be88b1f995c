"""Table V: image processing and DNN applications.

ScaleHLS vs POM speedups and resources on EdgeDetect/Gaussian/Blur and
on VGG-16/ResNet-18, with the paper's P/S (POM-over-ScaleHLS) ratios.
For the DNNs, ScaleHLS runs its pipelined-dataflow strategy (private
resources per layer -- which overflows the device) while POM shares
operators across sequentially executed layers.
"""

from __future__ import annotations

from typing import Dict

from repro.evaluation.frameworks import (
    Claim, Experiment, Reading, RunResult, format_table, grid, ratio, speedup,
)
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


CLAIMS = (
    Claim("POM beats ScaleHLS on image apps", "image P/S speedups 2.8x/2.8x/6.0x", lambda r: [
        Reading(f"{app} POM/ScaleHLS speedup", ratio(r[app]), ">", 1) for app in image.SUITE
    ]),
    Claim("large image speedups", "312x-356x for the image apps", lambda r: [
        Reading(f"{app} POM speedup", r[app]["pom"].speedup, ">", 30) for app in image.SUITE
    ]),
    Claim("POM DNNs fit", "POM's operator reuse fits the DNNs on the device", lambda r: [
        Reading(f"{net} POM fits", r[net]["pom"].report.feasible(), "==", True) for net in dnn.SUITE
    ]),
    Claim("ScaleHLS ResNet-18 overflows", "ScaleHLS's ResNet-18 LUT usage reaches 164% of the device",
          lambda r: [Reading("resnet18 ScaleHLS fits",
                             r["resnet18"]["scalehls"].report.feasible(), "==", False)]),
    Claim("POM ResNet-18 uses fewer DSPs", "ResNet-18: POM uses 0.1x ScaleHLS's DSP", lambda r: [
        Reading("resnet18 POM DSP", r["resnet18"]["pom"].report.resources.dsp,
                "<", r["resnet18"]["scalehls"].report.resources.dsp),
    ]),
    Claim("POM competitive on VGG-16", "POM 2.6x over ScaleHLS on VGG-16",
          lambda r: [Reading("vgg16 POM/ScaleHLS speedup", ratio(r["vgg16"]), ">", 0.5)]),
)

EXPERIMENT = Experiment(
    run, render, quick={"image_size": 512, "dnn_size": 8, "dnn_scale": 0.25}, claims=CLAIMS,
)

if __name__ == "__main__":
    EXPERIMENT.main()
