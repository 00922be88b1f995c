"""Unit tests for DSE stage 1: dependence-aware code transformation."""

import pytest

from repro.dsl import Function, compute, placeholder, var
from repro.dsl.schedule import Interchange, Skew
from repro.polyir import PolyProgram
from repro import workloads
from repro.workloads import polybench, stencils
from repro.dse.analysis import carried_for_statement
from repro.dse.stage1 import plan_stage1


def carried_dims(stmt):
    """Loop dims carrying at least one RAW dependence, in loop order."""
    carried = {d.carried_dim for d in carried_for_statement(stmt)}
    return [d for d in stmt.loop_order if d in carried]


def free_dims(stmt):
    """Loop dims carrying no RAW dependence, in loop order."""
    carried = {d.carried_dim for d in carried_for_statement(stmt)}
    return [d for d in stmt.loop_order if d not in carried]


class TestStatementAnalysis:
    def test_gemm_reduction_carried(self):
        f = polybench.gemm(8)
        stmt = PolyProgram(f).statement("s")
        assert carried_dims(stmt) == ["k"]
        assert free_dims(stmt) == ["i", "j"]

    def test_analysis_follows_transformation(self):
        """Re-analysis on a transformed statement sees the new dims."""
        from repro.polyir import interchange

        f = polybench.gemm(8)
        stmt = PolyProgram(f).statement("s")
        swapped = interchange(stmt, "k", "j")
        assert carried_dims(swapped) == ["k"]
        assert free_dims(swapped) == ["j", "i"]

    def test_seidel_fully_carried(self):
        f = stencils.seidel(8, steps=2)
        stmt = PolyProgram(f).statement("S")
        assert free_dims(stmt) == []


class TestStage1Polybench:
    def test_gemm_keeps_reduction_outer(self):
        f = polybench.gemm(8)
        plan = plan_stage1(f)
        order = plan.orders["s"]
        assert order[0] == "k"
        assert set(order[1:]) == {"i", "j"}
        assert not plan.skewed["s"]

    def test_bicg_conflicting_orders(self):
        """Sq keeps j outward, Ss keeps i outward (split-interchange)."""
        f = polybench.bicg(8)
        plan = plan_stage1(f)
        assert plan.orders["Sq"] == ["j", "i"]
        assert plan.orders["Ss"] == ["i", "j"]
        assert plan.free["Sq"] == ["i"]
        assert plan.free["Ss"] == ["j"]

    def test_bicg_conservative_fusion(self):
        """Sq and Ss share no data -> merged back into one group."""
        f = polybench.bicg(8)
        plan = plan_stage1(f)
        assert ["Sq", "Ss"] in plan.fused_groups

    def test_elementwise_untouched(self):
        with Function("ew") as f:
            i = var("i", 0, 8)
            A = placeholder("A", (8,))
            B = placeholder("B", (8,))
            compute("S", [i], A(i) * 2.0, B(i))
        plan = plan_stage1(f)
        assert plan.orders["S"] == ["i"]
        assert plan.directives == []


class TestStage1Stencils:
    def test_seidel_gets_skewed(self):
        f = stencils.seidel(8, steps=2)
        plan = plan_stage1(f)
        assert plan.skewed["S"]
        assert any(isinstance(d, Skew) for d in plan.directives)
        # after skewing, some dim must be free
        assert plan.free["S"], "skewing must create a dependence-free dim"

    def test_skewed_statement_semantics_preserved(self):
        import numpy as np

        from repro.pipeline import lower_to_affine
        from repro.affine import interpret
        from repro.dse.evaluator import Evaluator

        f = stencils.seidel(8, steps=2)
        evaluator = Evaluator(f)
        evaluator.install(evaluator.configs({"S": 1}), 128)
        arrays = f.allocate_arrays(seed=11)
        ref = {n: a.copy() for n, a in arrays.items()}
        f.reference_execute(ref)
        got = f.allocate_arrays(seed=11)
        interpret(lower_to_affine(f), got)
        assert np.allclose(got["A"], ref["A"], rtol=1e-4)

    def test_heat1d_restructured(self):
        f = stencils.heat_1d(16, steps=4)
        plan = plan_stage1(f)
        # time loop carries everything; skew (t, i) frees a wavefront dim
        assert plan.free["S"], "heat-1d needs a free dim after stage 1"


class TestStage1Image:
    def test_blur_stages_fusable(self):
        """Sh writes tmp, Sv reads tmp at offsets including +1: not fusable."""
        from repro.workloads import image

        f = image.blur(16)
        plan = plan_stage1(f)
        assert ["Sh", "Sv"] not in plan.fused_groups

    def test_independent_gradients_fusable(self):
        from repro.workloads import image

        f = image.edge_detect(16)
        plan = plan_stage1(f)
        flat = [g for g in plan.fused_groups if set(g) >= {"Sgx", "Sgy"}]
        assert flat, "gx and gy read the same input and may fuse"


class TestInterchangePlanning:
    def test_idempotent_when_already_ordered(self):
        f = polybench.gemm(8)
        plan1 = plan_stage1(f)
        # planning again from scratch gives the same orders
        f2 = polybench.gemm(8)
        plan2 = plan_stage1(f2)
        assert plan1.orders == plan2.orders

    def test_directives_are_replayable(self):
        f = polybench.bicg(8)
        plan = plan_stage1(f)
        program = PolyProgram(f)
        for d in plan.directives:
            program.apply_directive(d)
        assert program.statement("Sq").loop_order == plan.orders["Sq"]
        assert program.statement("Ss").loop_order == plan.orders["Ss"]


class TestStage1Extents:
    """``Stage1Plan.extents`` is what stage 2 and fusion used to re-derive
    from the stage-1 program for every candidate."""

    @pytest.mark.parametrize("name", workloads.names(kind="function"))
    def test_extents_are_the_stage1_programs(self, name):
        from repro.dse.evaluator import Evaluator

        evaluator = Evaluator(workloads.get(name, 4 if name in ("vgg16", "resnet18") else 19))
        plan = evaluator.plan
        assert set(plan.extents) == set(evaluator.nodes)
        for node in evaluator.nodes:
            stmt = evaluator.base.statement(node)
            assert list(plan.extents[node]) == stmt.loop_order == plan.orders[node]
            for dim, extent in plan.extents[node].items():
                assert extent == (stmt.loop_extent(dim) or 1)
