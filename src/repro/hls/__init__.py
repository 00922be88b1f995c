"""Virtual HLS synthesis toolchain (substitute for Vitis HLS / Vivado).

Provides the device zoo, operator characterization, the latency/II/
resource estimator, the power model, report structures, and re-exports
the affine-dialect functional interpreter as the simulation entry point.
"""

from repro.affine.interp import interpret as simulate
from repro.hls.device import (
    DEFAULT_CLOCK_NS,
    DEFAULT_DEVICE,
    DEVICES,
    FPGADevice,
    device_names,
    get_device,
)
from repro.hls.estimator import HlsEstimator
from repro.hls.power import estimate_power
from repro.hls.report import LoopReport, Resources, SynthesisReport, speedup

__all__ = [
    "FPGADevice",
    "DEVICES",
    "DEFAULT_DEVICE",
    "DEFAULT_CLOCK_NS",
    "get_device",
    "device_names",
    "HlsEstimator",
    "SynthesisReport",
    "LoopReport",
    "Resources",
    "speedup",
    "estimate_power",
    "simulate",
]
