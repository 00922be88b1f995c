"""Unit tests for DSE stage 2 and the bottleneck-oriented engine."""

import numpy as np
import pytest

from repro.dsl import Function, compute, placeholder, var
from repro.affine import interpret
from repro.hls import DEFAULT_DEVICE
from repro.hls.report import speedup
from repro.pipeline import estimate, lower_to_affine
from repro.workloads import polybench, stencils
from repro.dse import auto_dse
from repro.dse.evaluator import Evaluator
from repro.dse.options import DseOptions
from repro.dse.stage2 import derive_partitions


class TestNodeConfig:
    def test_parallelism_one_is_pipeline_only(self):
        f = polybench.gemm(16)
        evaluator = Evaluator(f)
        config = evaluator.node_config("s", 1)
        assert config.unrolls == []
        assert config.total_parallelism == 1
        assert config.pipeline_dim in ("i", "j")

    def test_parallelism_distributes_innermost_first(self):
        f = polybench.gemm(16)
        evaluator = Evaluator(f)
        config = evaluator.node_config("s", 8)
        assert config.total_parallelism == 8
        # pipeline dim never gets an unroll factor
        assert all(d != config.pipeline_dim for d, _ in config.unrolls)

    def test_large_parallelism_spills_over_dims(self):
        f = polybench.gemm(16)
        evaluator = Evaluator(f)
        config = evaluator.node_config("s", 64)
        assert config.total_parallelism == 64
        assert len(config.unrolls) >= 2

    def test_tile_vector_matches_order(self):
        f = polybench.bicg(32)
        evaluator = Evaluator(f)
        config = evaluator.node_config("Sq", 16)
        vec = config.tile_vector(evaluator.plan.orders["Sq"])
        assert len(vec) == 2
        assert np.prod(vec) == 16

    def test_pipeline_dim_is_largest_free(self):
        f = polybench.bicg(32)
        evaluator = Evaluator(f)
        config = evaluator.node_config("Sq", 4)
        assert config.pipeline_dim == "i"  # Sq's only free dim


class TestConfigDirectives:
    def test_gemm_structure(self):
        from repro.affine.ir import AffineForOp

        f = polybench.gemm(16)
        evaluator = Evaluator(f)
        evaluator.install(evaluator.configs({"s": 4}), 128)
        func = lower_to_affine(f)
        loops = [op for op in func.walk() if isinstance(op, AffineForOp)]
        pipelined = [l for l in loops if "pipeline" in l.attributes]
        unrolled = [l for l in loops if "unroll" in l.attributes]
        assert len(pipelined) == 1
        assert unrolled

    def test_semantics_preserved_through_config(self):
        f = polybench.gemm(8)
        evaluator = Evaluator(f)
        evaluator.install(evaluator.configs({"s": 4}), 128)
        arrays = f.allocate_arrays(seed=9)
        ref = {n: a.copy() for n, a in arrays.items()}
        f.reference_execute(ref)
        got = f.allocate_arrays(seed=9)
        interpret(lower_to_affine(f), got)
        assert np.allclose(got["A"], ref["A"], rtol=1e-4)


class TestDerivePartitions:
    def test_unrolled_dims_get_banks(self):
        f = polybench.gemm(16)
        evaluator = Evaluator(f)
        evaluator.install(evaluator.configs({"s": 8}), 128)
        partitions = derive_partitions(f)
        assert any(max(v) > 1 for v in partitions.values())

    def test_no_unroll_no_banks(self):
        f = polybench.gemm(16)
        partitions = derive_partitions(f)
        assert all(max(v) == 1 for v in partitions.values())


class TestAutoDse:
    def test_bicg_beats_baseline_substantially(self):
        baseline_fn = polybench.bicg(64, baseline=True)
        base = estimate(baseline_fn)
        f = polybench.bicg(64)
        result = auto_dse(f)
        assert speedup(base, result.report) > 20

    def test_result_feasible(self):
        f = polybench.gemm(64)
        result = auto_dse(f)
        assert result.report.feasible()

    def test_resource_constraint_respected(self):
        f = polybench.gemm(64)
        result = auto_dse(f, options=DseOptions(resource_fraction=0.25))
        quarter = DEFAULT_DEVICE.scaled(0.25)
        assert result.report.resources.dsp <= quarter.dsp
        assert result.report.resources.lut <= quarter.lut

    def test_tighter_budget_not_faster(self):
        f1 = polybench.gemm(64)
        full = auto_dse(f1)
        f2 = polybench.gemm(64)
        tight = auto_dse(f2, options=DseOptions(resource_fraction=0.1))
        assert tight.report.total_cycles >= full.report.total_cycles

    def test_schedule_installed_on_function(self):
        f = polybench.gemm(32)
        result = auto_dse(f)
        assert len(f.schedule) > 0
        assert result.schedule.directives

    def test_dse_semantics_preserved(self):
        f = polybench.bicg(16)
        auto_dse(f)
        arrays = f.allocate_arrays(seed=5)
        ref = {n: a.copy() for n, a in arrays.items()}
        f.reference_execute(ref)
        got = f.allocate_arrays(seed=5)
        interpret(lower_to_affine(f), got)
        for name in arrays:
            assert np.allclose(got[name], ref[name], rtol=1e-4), name

    def test_stencil_dse_semantics_preserved(self):
        f = stencils.seidel(8, steps=2)
        auto_dse(f)
        arrays = f.allocate_arrays(seed=6)
        ref = {n: a.copy() for n, a in arrays.items()}
        f.reference_execute(ref)
        got = f.allocate_arrays(seed=6)
        interpret(lower_to_affine(f), got)
        assert np.allclose(got["A"], ref["A"], rtol=1e-4)

    def test_tile_vectors_reported(self):
        f = polybench.gemm(64)
        result = auto_dse(f)
        vectors = result.tile_vectors()
        assert "s" in vectors
        assert len(vectors["s"]) == 3

    def test_parallelism_metric(self):
        f = polybench.gemm(64)
        result = auto_dse(f)
        assert result.parallelism >= 1

    def test_dse_time_and_evaluations_recorded(self):
        f = polybench.gemm(32)
        result = auto_dse(f)
        assert result.dse_time_s > 0
        assert result.evaluations >= 1

    def test_multi_node_bottleneck_balance(self):
        """3MM: all three products end up optimized, not just the first."""
        f = polybench.mm3(32)
        result = auto_dse(f)
        parallels = [result.configs[n].total_parallelism for n in ("S1", "S2", "S3")]
        assert min(parallels) > 1, f"bottleneck search starved a node: {parallels}"
