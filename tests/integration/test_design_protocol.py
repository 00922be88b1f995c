"""One design protocol: a kernel and a dataflow design answer the same calls.

The CLI, serve jobs and the fuzz harness drive either kind through these
methods alone, so a signature that drifts on one side breaks them there.
The regression tests pin what the dataflow path used to drop: a stage
sweep's degraded and interrupted state.
"""

import inspect

import pytest

from repro import workloads
from repro.cli import main
from repro.dataflow import DataflowDesign
from repro.dataflow.dse import DataflowDseResult
from repro.dse import DseResult
from repro.dse.options import DseOptions
from repro.dsl.function import Function

PROTOCOL = (
    "allocate_arrays", "reference_execute", "simulate", "codegen",
    "estimate", "auto_DSE", "verify",
)
RESULT_FIELDS = (
    "stats", "diagnostics", "degraded", "payload", "summary", "stats_summary",
)


@pytest.mark.parametrize("method", PROTOCOL)
def test_both_kinds_define_the_method_with_compatible_signatures(method):
    kernel = inspect.signature(getattr(Function, method))
    design = inspect.signature(getattr(DataflowDesign, method))
    # Every call that works on a kernel works on a design: same names
    # and defaults, and anything extra on the design side is optional.
    for name, parameter in kernel.parameters.items():
        assert name in design.parameters, (method, name)
        assert design.parameters[name].default == parameter.default, (method, name)
    for name in design.parameters.keys() - kernel.parameters.keys():
        assert design.parameters[name].default is not inspect.Parameter.empty


@pytest.mark.parametrize("field", RESULT_FIELDS)
def test_both_results_expose_the_field(field):
    for cls in (DseResult, DataflowDseResult):
        assert field in cls.__dataclass_fields__ or hasattr(cls, field), (cls, field)


def test_kernel_simulate_matches_the_reference():
    # A design's simulate is checked in tests/dataflow/test_simulate.py.
    import numpy as np

    built = workloads.get("gemm", 8)
    reference = built.allocate_arrays(seed=3)
    built.reference_execute(reference)
    simulated = built.allocate_arrays(seed=3)
    built.simulate(simulated)
    for array in reference:
        assert np.array_equal(reference[array], simulated[array]), array


class TestDataflowDegradation:
    """A dataflow sweep reports its stages' state, as a kernel sweep does."""

    def test_spent_budget_is_degraded(self):
        result = workloads.get("image-pipeline", 16).auto_DSE(
            options=DseOptions(time_budget_s=0)
        )
        assert result.degraded
        assert result.stats.time_budget_hit
        assert "DSE004" in {d.code for d in result.diagnostics}

    def test_spent_budget_exits_3_unless_allowed(self, capsys):
        argv = ["dse", "image-pipeline", "--size", "16", "--time-budget", "0"]
        assert main(argv) == 3
        assert "--allow-degraded" in capsys.readouterr().err
        assert main(argv + ["--allow-degraded"]) == 0

    def test_interrupted_sweep_exits_130(self, monkeypatch, capsys):
        from repro.dse import engine

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "_pick_bottleneck", interrupt)
        assert main(["dse", "image-pipeline", "--size", "16"]) == 130
        assert "sweep interrupted" in capsys.readouterr().err

    def test_merged_stats_are_the_stage_sum(self):
        result = workloads.get("conv-block", 8).auto_DSE()
        assert not result.degraded
        assert result.stats.evaluations == result.evaluations == sum(
            stage.stats.evaluations for stage in result.stage_results.values()
        )
