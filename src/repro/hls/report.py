"""Synthesis report structures mirroring Vitis HLS report content.

A :class:`SynthesisReport` aggregates cycle counts, achieved initiation
intervals per pipelined loop, resource usage against the device budget,
and power -- the quantities the paper's evaluation tables report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.hls.device import FPGADevice


@dataclass
class Resources:
    """A resource usage tally (addable)."""

    dsp: int = 0
    lut: int = 0
    ff: int = 0
    bram_bits: int = 0

    def __add__(self, other: "Resources") -> "Resources":
        return Resources(
            dsp=self.dsp + other.dsp,
            lut=self.lut + other.lut,
            ff=self.ff + other.ff,
            bram_bits=self.bram_bits + other.bram_bits,
        )

    def scaled(self, factor: int) -> "Resources":
        return Resources(
            dsp=self.dsp * factor,
            lut=self.lut * factor,
            ff=self.ff * factor,
            bram_bits=self.bram_bits * factor,
        )

    def max_with(self, other: "Resources") -> "Resources":
        return Resources(
            dsp=max(self.dsp, other.dsp),
            lut=max(self.lut, other.lut),
            ff=max(self.ff, other.ff),
            bram_bits=max(self.bram_bits, other.bram_bits),
        )


@dataclass
class LoopReport:
    """Per-loop synthesis detail (one row of the Vitis loop table).

    ``ii_breakdown`` records which constraint set the achieved II --
    the pipeline target, the memory-port pressure, or the loop-carried
    recurrence -- the diagnostic a designer needs to know *what to fix*.
    """

    iterator: str
    trip_count: int
    pipelined: bool
    achieved_ii: Optional[int]
    depth: int
    latency: int
    unrolled_copies: int = 1
    ii_breakdown: Optional[Dict[str, int]] = None

    def limiting_factor(self) -> Optional[str]:
        """Name of the II constraint that binds ('target'/'memory'/'recurrence')."""
        if not self.pipelined or not self.ii_breakdown or self.achieved_ii is None:
            return None
        for name in ("recurrence", "memory", "target"):
            if self.ii_breakdown.get(name) == self.achieved_ii:
                return name
        return None

    def __str__(self):
        ii = f"II={self.achieved_ii}" if self.pipelined else "seq"
        limiting = self.limiting_factor()
        suffix = f" [{limiting}-bound]" if limiting and self.achieved_ii > 1 else ""
        return (
            f"loop {self.iterator}: trip={self.trip_count} {ii} "
            f"depth={self.depth} latency={self.latency} copies={self.unrolled_copies}"
            f"{suffix}"
        )


@dataclass
class SynthesisReport:
    """The virtual HLS synthesis report of one function."""

    function_name: str
    device: FPGADevice
    clock_ns: float
    total_cycles: int
    resources: Resources
    loops: List[LoopReport] = field(default_factory=list)
    power_w: float = 0.0

    # -- derived metrics --------------------------------------------------

    @property
    def latency_us(self) -> float:
        return self.total_cycles * self.clock_ns / 1000.0

    @property
    def dsp_util(self) -> float:
        return self.resources.dsp / self.device.dsp

    @property
    def lut_util(self) -> float:
        return self.resources.lut / self.device.lut

    @property
    def ff_util(self) -> float:
        return self.resources.ff / self.device.ff

    @property
    def bram_util(self) -> float:
        return self.resources.bram_bits / self.device.bram_bits

    def feasible(self) -> bool:
        """Whether the design fits the device (:meth:`FPGADevice.admits`)."""
        return self.device.admits(self.resources)

    def worst_ii(self) -> Optional[int]:
        """The largest achieved II among pipelined loops (None if none)."""
        achieved = [l.achieved_ii for l in self.loops if l.pipelined and l.achieved_ii]
        return max(achieved) if achieved else None

    def pipelined_loops(self) -> List[LoopReport]:
        return [l for l in self.loops if l.pipelined]

    def summary(self) -> str:
        return (
            f"{self.function_name}: {self.total_cycles} cycles "
            f"({self.latency_us:.1f} us), DSP {self.resources.dsp} "
            f"({self.dsp_util:.0%}), LUT {self.resources.lut} ({self.lut_util:.0%}), "
            f"FF {self.resources.ff} ({self.ff_util:.0%}), power {self.power_w:.3f} W"
        )


def speedup(baseline: SynthesisReport, optimized: SynthesisReport) -> float:
    """Latency speedup (clock-cycle ratio, as in the paper)."""
    return baseline.total_cycles / max(1, optimized.total_cycles)
