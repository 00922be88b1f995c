"""Virtual synthesis of dataflow designs: interval, FIFOs, resources.

A task pipeline's *steady-state interval* is the cycle count of its
slowest stage (every stage works on a different frame concurrently),
inflated by a FIFO stall factor; its *frame latency* is the sum of
stage latencies (the first frame flows through every stage).  FIFO
channels cost memory: the deadlock-free minimum depth of an edge is the
consumer's read-window span linearized in the producer's (row-major)
write order -- the classic line-buffer bound::

    min_depth = max(2, sum_d (hi_d - lo_d) * stride_d + 1)

where ``(lo_d, hi_d)`` are the constant read offsets of the consumer
along array dimension ``d`` and ``stride_d`` the row-major stride.  A
3x1 vertical window over an ``n x n`` image needs ``2n + 1`` slots --
two image lines plus one pixel.  When the consumer's access pattern is
not a constant-offset window (e.g. a strided pooling read), the whole
array must buffer (ping-pong rather than FIFO), so the bound degrades
to the array's element count.

Depths *above* the minimum reduce inter-stage stalls: the stall factor
is ``1 + 0.25 * avg(min_depth / depth)`` over all edges, i.e. 1.25x at
minimum depth, asymptotically 1.0x as the FIFOs deepen -- the
latency-vs-BRAM knob the dataflow DSE exposes as a frontier axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.diagnostics import DiagnosticError, SourceLocation
from repro.dataflow.design import DataflowDesign, StreamEdge
from repro.hls.device import DEFAULT_DEVICE, FPGADevice
from repro.hls.power import estimate_power
from repro.hls.report import Resources, SynthesisReport

#: Channels whose payload exceeds this implement in BRAM; smaller ones
#: fit shift-register LUTs (SRLs), as Vivado's FIFO generator decides.
SRL_LIMIT_BITS = 1024

#: Stall inflation at minimum depth (matches the estimator's dataflow
#: block model: a minimally-buffered handoff costs ~25% interval).
STALL_AT_MIN = 0.25


def fifo_min_depth(design: DataflowDesign, edge: StreamEdge) -> int:
    """Deadlock-free minimum depth of one stream edge (see module doc)."""
    consumer = design.stages[edge.consumer]
    placeholder = next(
        p for p in design.placeholders() if p.name == edge.array
    )
    shape = placeholder.shape
    spans = _window_spans(consumer, edge.array, len(shape))
    if spans is None:
        # Not a constant-offset window: the consumer revisits or strides
        # through producer output, so the channel degrades to a
        # full-array ping-pong buffer.
        return placeholder.n_elements
    strides = _row_major_strides(shape)
    span = sum(s * stride for s, stride in zip(spans, strides)) + 1
    return max(2, span)


def _window_spans(stage, array: str, rank: int) -> Optional[List[int]]:
    """Per-dimension constant-offset spans of a stage's reads of ``array``.

    Returns ``None`` unless every read index is ``iterator + constant``
    with the *same* iterator per dimension across all accesses (the
    sliding-window pattern line buffers require).
    """
    lows = [None] * rank
    highs = [None] * rank
    anchors: List[Optional[str]] = [None] * rank
    found = False
    for compute in stage.function.computes:
        for access in compute.loads():
            if access.array_name != array:
                continue
            found = True
            try:
                indices = access.affine_indices()
            except ValueError:
                return None
            for dim, expr in enumerate(indices):
                live = {n: c for n, c in expr.coeffs.items() if c != 0}
                if len(live) != 1 or next(iter(live.values())) != 1:
                    return None
                (iterator,) = live
                if anchors[dim] is None:
                    anchors[dim] = iterator
                elif anchors[dim] != iterator:
                    return None
                offset = expr.constant
                lows[dim] = offset if lows[dim] is None else min(lows[dim], offset)
                highs[dim] = offset if highs[dim] is None else max(highs[dim], offset)
    if not found:
        return None
    return [hi - lo for lo, hi in zip(lows, highs)]


def _row_major_strides(shape) -> List[int]:
    strides = [1] * len(shape)
    for dim in range(len(shape) - 2, -1, -1):
        strides[dim] = strides[dim + 1] * shape[dim + 1]
    return strides


@dataclass(frozen=True)
class FifoSpec:
    """One realized FIFO channel of a dataflow design."""

    array: str
    producer: str
    consumer: str
    width_bits: int
    depth: int
    min_depth: int

    @property
    def payload_bits(self) -> int:
        return self.depth * self.width_bits

    def resources(self) -> Resources:
        """FIFO cost: BRAM above the SRL limit, LUT shift registers below."""
        if self.payload_bits > SRL_LIMIT_BITS:
            return Resources(lut=48, ff=32, bram_bits=self.payload_bits)
        return Resources(lut=32 + self.payload_bits // 2, ff=16)


@dataclass
class DataflowReport:
    """The virtual synthesis report of one dataflow design.

    ``total_cycles`` is the steady-state *interval* (cycles per frame at
    throughput), which is what a streaming accelerator is optimized
    for -- and what lets this report duck-type
    :class:`~repro.hls.report.SynthesisReport` wherever the Pareto
    machinery reads ``report.total_cycles`` / ``report.resources``.
    ``latency_cycles`` is the first-frame flow-through latency.
    """

    design_name: str
    device: FPGADevice
    clock_ns: float
    stage_reports: Dict[str, SynthesisReport]
    fifos: List[FifoSpec]
    total_cycles: int
    latency_cycles: int
    resources: Resources
    power_w: float

    @property
    def function_name(self) -> str:
        return self.design_name

    @property
    def interval_cycles(self) -> int:
        return self.total_cycles

    @property
    def loops(self) -> list:
        """None at the design level: each stage's are in ``stage_reports``."""
        return []

    @property
    def latency_us(self) -> float:
        return self.total_cycles * self.clock_ns / 1000.0

    @property
    def bram_util(self) -> float:
        return self.resources.bram_bits / self.device.bram_bits

    def bottleneck(self) -> str:
        """The stage whose cycles set the interval."""
        return max(
            self.stage_reports,
            key=lambda name: (self.stage_reports[name].total_cycles, name),
        )

    feasible = SynthesisReport.feasible

    def summary(self) -> str:
        stages = ", ".join(
            f"{name}={report.total_cycles}"
            for name, report in sorted(self.stage_reports.items())
        )
        return (
            f"{self.design_name}: interval {self.total_cycles} cycles "
            f"(latency {self.latency_cycles}), bottleneck {self.bottleneck()} "
            f"[{stages}], DSP {self.resources.dsp}, BRAM "
            f"{self.resources.bram_bits} bits ({self.bram_util:.0%}), "
            f"power {self.power_w:.3f} W"
        )


def resolve_depths(
    design: DataflowDesign,
    depths: Optional[Dict[str, int]] = None,
) -> List[FifoSpec]:
    """The design's FIFO specs under optional per-array depth overrides.

    Depth resolution order: ``depths[array]`` override, then the edge's
    declared depth, then the deadlock-free minimum.  A resolved depth
    below the minimum raises ``DFL007`` -- a design that would deadlock
    in hardware must not estimate cleanly.
    """
    specs: List[FifoSpec] = []
    for edge in design.edges:
        placeholder = next(
            p for p in design.placeholders() if p.name == edge.array
        )
        minimum = fifo_min_depth(design, edge)
        depth = minimum
        if edge.depth is not None:
            depth = edge.depth
        if depths is not None and edge.array in depths:
            depth = depths[edge.array]
        if depth < minimum:
            raise DiagnosticError(
                f"stream array {edge.array!r}: FIFO depth {depth} is below "
                f"the deadlock-free minimum {minimum} (consumer "
                f"{edge.consumer!r} read window)",
                code="DFL007",
                location=SourceLocation(function=design.name),
            )
        specs.append(
            FifoSpec(
                array=edge.array,
                producer=edge.producer,
                consumer=edge.consumer,
                width_bits=placeholder.dtype.bits,
                depth=depth,
                min_depth=minimum,
            )
        )
    return specs


def stall_factor(fifos: List[FifoSpec]) -> float:
    """Interval inflation from FIFO back-pressure (1.0 .. 1.25)."""
    if not fifos:
        return 1.0
    pressure = sum(f.min_depth / f.depth for f in fifos) / len(fifos)
    return 1.0 + STALL_AT_MIN * pressure


def estimate_design(
    design: DataflowDesign,
    device: Optional[FPGADevice] = None,
    clock_ns: Optional[float] = None,
    depths: Optional[Dict[str, int]] = None,
) -> DataflowReport:
    """Virtual synthesis of the whole pipeline under current schedules:
    each stage estimated afresh via the standard pipeline."""
    from repro.pipeline import estimate

    device = device or DEFAULT_DEVICE
    clock = clock_ns if clock_ns is not None else device.clock_ns
    reports = {
        stage.name: estimate(stage.function, device=device, clock_ns=clock)
        for stage in design.topo_order()
    }
    fifos = resolve_depths(design, depths)
    return compose_report(design, device, clock, reports, fifos)


def compose_report(
    design: DataflowDesign,
    device: FPGADevice,
    clock_ns: float,
    stage_reports: Dict[str, SynthesisReport],
    fifos: List[FifoSpec],
) -> DataflowReport:
    """Assemble the pipeline report from per-stage reports + FIFO specs."""
    slowest = max(r.total_cycles for r in stage_reports.values())
    interval = int(math.ceil(slowest * stall_factor(fifos)))
    latency = sum(r.total_cycles for r in stage_reports.values())
    resources = Resources()
    for report in stage_reports.values():
        resources = resources + report.resources
    for fifo in fifos:
        resources = resources + fifo.resources()
    return DataflowReport(
        design_name=design.name,
        device=device,
        clock_ns=clock_ns,
        stage_reports=dict(stage_reports),
        fifos=list(fifos),
        total_cycles=interval,
        latency_cycles=latency,
        resources=resources,
        power_w=estimate_power(resources),
    )
