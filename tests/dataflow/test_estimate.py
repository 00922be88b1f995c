"""FIFO depth model, stall factor, and dataflow report composition."""

import math

import pytest

from repro.dataflow import FifoSpec, estimate_design, fifo_min_depth, resolve_depths
from repro.dataflow.estimate import SRL_LIMIT_BITS, stall_factor
from repro.diagnostics import DiagnosticError
from repro.hls.device import DEFAULT_DEVICE, get_device
from repro.workloads.dataflow import conv_block, image_pipeline

pytestmark = pytest.mark.dataflow


def _edge(design, array):
    return next(edge for edge in design.edges if edge.array == array)


class TestFifoMinDepth:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_line_buffer_window(self, n):
        # grad reads sm over a 3x3 window (i+-1, j+-1): spans (2, 2),
        # row-major strides (n, 1) -> 2n + 2 + 1 slots.
        design = image_pipeline(n)
        assert fifo_min_depth(design, _edge(design, "sm")) == 2 * n + 3

    def test_pointwise_channel_is_depth_two(self):
        design = image_pipeline(8)
        assert fifo_min_depth(design, _edge(design, "gx")) == 2
        assert fifo_min_depth(design, _edge(design, "gy")) == 2

    @pytest.mark.parametrize("n", [8, 16])
    def test_strided_read_degrades_to_full_frame(self, n):
        # pool reads act(2i, 2j): not a constant-offset window, so the
        # channel must buffer the whole n x n frame (ping-pong).
        design = conv_block(n)
        assert fifo_min_depth(design, _edge(design, "act")) == n * n

    def test_pointwise_conv_channel(self):
        design = conv_block(8)
        assert fifo_min_depth(design, _edge(design, "cv")) == 2


class TestResolveDepths:
    def test_defaults_to_minimum(self):
        design = image_pipeline(8)
        depths = {f.array: f.depth for f in resolve_depths(design)}
        assert depths == {"sm": 19, "gx": 2, "gy": 2}

    def test_override_above_minimum(self):
        design = image_pipeline(8)
        specs = resolve_depths(design, depths={"sm": 64})
        sm = next(f for f in specs if f.array == "sm")
        assert sm.depth == 64 and sm.min_depth == 19

    def test_dfl007_below_minimum(self):
        design = image_pipeline(8)
        with pytest.raises(DiagnosticError, match="deadlock-free") as excinfo:
            resolve_depths(design, depths={"sm": 4})
        assert excinfo.value.diagnostic.code == "DFL007"

    def test_edge_declared_depth_respected(self):
        design = image_pipeline(8)
        _edge(design, "sm").depth = 32
        specs = resolve_depths(design)
        assert next(f for f in specs if f.array == "sm").depth == 32


class TestFifoResources:
    def test_small_channel_uses_srl_luts(self):
        fifo = FifoSpec("a", "p", "c", width_bits=32, depth=2, min_depth=2)
        resources = fifo.resources()
        assert resources.bram_bits == 0
        assert resources.lut > 0

    def test_large_channel_uses_bram(self):
        depth = SRL_LIMIT_BITS // 32 + 1
        fifo = FifoSpec("a", "p", "c", width_bits=32, depth=depth, min_depth=2)
        resources = fifo.resources()
        assert resources.bram_bits == depth * 32


class TestStallFactor:
    def test_at_minimum_depth(self):
        fifos = [FifoSpec("a", "p", "c", 32, depth=8, min_depth=8)]
        assert stall_factor(fifos) == pytest.approx(1.25)

    def test_deep_fifos_approach_one(self):
        fifos = [FifoSpec("a", "p", "c", 32, depth=800, min_depth=8)]
        assert stall_factor(fifos) == pytest.approx(1.0025)

    def test_no_fifos(self):
        assert stall_factor([]) == 1.0


class TestEstimateDesign:
    def test_report_shape(self):
        design = image_pipeline(8)
        report = design.estimate()
        assert set(report.stage_reports) == {"smooth", "grad", "mag"}
        slowest = max(r.total_cycles for r in report.stage_reports.values())
        expected = int(math.ceil(slowest * stall_factor(report.fifos)))
        assert report.total_cycles == expected
        assert report.latency_cycles == sum(
            r.total_cycles for r in report.stage_reports.values()
        )
        assert report.total_cycles < report.latency_cycles

    def test_duck_types_synthesis_report(self):
        report = image_pipeline(8).estimate()
        # The Pareto machinery reads exactly these:
        assert report.total_cycles > 0
        assert report.interval_cycles == report.total_cycles
        assert report.resources.dsp > 0
        assert report.function_name == "image_pipeline"
        assert report.power_w > 0

    def test_resources_include_fifo_costs(self):
        design = conv_block(8)
        report = design.estimate()
        stage_sum = sum(
            (r.resources for r in report.stage_reports.values()),
            start=type(report.resources)(),
        )
        # act buffers a full 8x8 frame of float32: 2048 bits of BRAM
        # beyond whatever the stages themselves banked.
        assert report.resources.bram_bits >= stage_sum.bram_bits + 2048

    def test_bottleneck_and_summary(self):
        report = image_pipeline(8).estimate()
        assert report.bottleneck() in report.stage_reports
        text = report.summary()
        assert "image_pipeline" in text and "bottleneck" in text

    def test_device_override(self):
        design = image_pipeline(8)
        default = design.estimate()
        # Pin the clock so only the part (and its budgets) changes:
        # cycle counts depend on the clock target, not the device size.
        big = design.estimate(
            device=get_device("xczu9eg"), clock_ns=DEFAULT_DEVICE.clock_ns
        )
        assert default.device.name == DEFAULT_DEVICE.name
        assert big.device.name == "xczu9eg"
        assert big.total_cycles == default.total_cycles
        assert big.device.bram_bits > default.device.bram_bits

    def test_depth_overrides_trade_bram_for_interval(self):
        design = image_pipeline(8)
        shallow = estimate_design(design)
        deep = estimate_design(design, depths={"sm": 19 * 4, "gx": 8, "gy": 8})
        assert deep.total_cycles <= shallow.total_cycles
        assert deep.resources.bram_bits >= shallow.resources.bram_bits
