"""Unit tests for multi-objective DSE: specs, dominance, frontiers.

The property-based dominance tests drive :class:`ParetoFrontier` with
seeded random vector sets and check the structural invariants the
engine's determinism contract rests on: no member dominates another,
every rejected point is dominated by (or duplicates) a member, and
membership is independent of insertion order.
"""

import random

import pytest

from repro.dse import auto_dse
from repro.dse.options import DseOptions
from repro.dse.pareto import (
    AXES,
    Objective,
    ParetoFrontier,
    ParetoPoint,
    dominates,
    frontier_summary,
    parse_objective,
)
from repro.dse.engine import DseResult
from repro.dse.stage2 import NodeConfig
from repro.hls.report import LoopReport, Resources, SynthesisReport
from repro.hls.device import DEFAULT_DEVICE
from repro.workloads import polybench


class TestParseObjective:
    def test_single_default(self):
        objective = parse_objective("single")
        assert objective.mode == "single"
        assert not objective.wants_frontier
        assert objective.canonical == "single"

    def test_pareto_default_axes(self):
        objective = parse_objective("pareto")
        assert objective.mode == "pareto"
        assert objective.axes == ("latency", "dsp")
        assert objective.wants_frontier
        assert objective.canonical == "pareto:latency,dsp"

    def test_pareto_axes_normalized_to_canonical_order(self):
        objective = parse_objective("pareto:dsp,latency,bram")
        assert objective.axes == ("latency", "dsp", "bram")
        assert objective.canonical == "pareto:latency,dsp,bram"

    def test_pareto_all_axes(self):
        objective = parse_objective("pareto:" + ",".join(AXES))
        assert objective.axes == AXES

    def test_weighted(self):
        objective = parse_objective("weighted:dsp=0.25,latency=1")
        assert objective.mode == "weighted"
        assert objective.axes == ("latency", "dsp")
        assert objective.weights == (1.0, 0.25)
        assert objective.canonical == "weighted:latency=1,dsp=0.25"

    def test_objective_passthrough(self):
        objective = Objective(mode="pareto")
        assert parse_objective(objective) is objective

    def test_canonical_round_trips(self):
        for spec in (
            "single",
            "pareto:latency,dsp,bram",
            "weighted:latency=1,dsp=0.5",
        ):
            parsed = parse_objective(spec)
            assert parse_objective(parsed.canonical) == parsed

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("", "non-empty string"),
            (None, "non-empty string"),
            ("bogus", "unknown objective mode"),
            ("single:latency", "takes no axes"),
            ("pareto:watts", "unknown objective axis"),
            ("pareto:latency,latency", "duplicate objective axis"),
            ("pareto: ", "unknown objective axis"),
            ("weighted", "needs axis=weight pairs"),
            ("weighted:latency", "needs '=weight'"),
            ("weighted:latency=zero", "invalid weight"),
            ("weighted:latency=0", "must be > 0"),
            ("weighted:latency=-1", "must be > 0"),
            ("weighted:latency=1,latency=2", "duplicate objective axis"),
        ],
    )
    def test_rejects(self, spec, match):
        with pytest.raises(ValueError, match=match):
            parse_objective(spec)

    def test_options_validate_rejects_bad_objective(self):
        with pytest.raises(ValueError, match="unknown objective mode"):
            DseOptions(objective="best-ever").validate()


class TestDominates:
    def test_strict(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (1, 3))
        assert not dominates((1, 3), (3, 1))
        assert not dominates((2, 2), (1, 1))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1, 2), (1, 2))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="lengths differ"):
            dominates((1,), (1, 2))


def _point(key, values):
    return ParetoPoint(
        key=key,
        parallelism=(("s", 1),),
        bank_cap=128,
        values=tuple(values),
        cycles=values[0],
        dsp=values[-1],
        lut=0,
        ff=0,
        bram_bits=0,
        power_w=0.0,
    )


class TestFrontierProperties:
    """Seeded property-based checks of the dominance invariants."""

    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_hold(self, seed):
        rng = random.Random(seed)
        points = [
            _point(f"k{i:03d}", (rng.randrange(1, 8), rng.randrange(1, 8)))
            for i in range(60)
        ]
        frontier = ParetoFrontier()
        for point in points:
            frontier.insert(point)
        members = frontier.points()
        # 1. No member dominates (or duplicates) another.
        for a in members:
            for b in members:
                if a is not b:
                    assert not dominates(a.values, b.values), (a, b)
                    assert a.values != b.values or a.key != b.key
        # 2. Every submitted point is on the frontier, or dominated by
        #    (or vector-equal to) some member.
        member_keys = {m.key for m in members}
        for point in points:
            if point.key in member_keys:
                continue
            assert any(
                dominates(m.values, point.values) or m.values == point.values
                for m in members
            ), point
        # 3. The pruned counter accounts for every eviction/rejection.
        assert frontier.pruned >= len(points) - len(members)

    @pytest.mark.parametrize("seed", range(8))
    def test_membership_is_insertion_order_independent(self, seed):
        rng = random.Random(seed)
        points = [
            _point(f"k{i:03d}", (rng.randrange(1, 6), rng.randrange(1, 6)))
            for i in range(40)
        ]
        frontier_a = ParetoFrontier()
        for point in points:
            frontier_a.insert(point)
        shuffled = list(points)
        rng.shuffle(shuffled)
        frontier_b = ParetoFrontier()
        for point in shuffled:
            frontier_b.insert(point)
        assert frontier_a.points() == frontier_b.points()

    def test_equal_vectors_keep_smallest_key(self):
        for order in ((0, 1), (1, 0)):
            frontier = ParetoFrontier()
            pair = [_point("aaa", (2, 2)), _point("zzz", (2, 2))]
            for index in order:
                frontier.insert(pair[index])
            assert [m.key for m in frontier.points()] == ["aaa"]
            assert frontier.pruned == 1


class TestRecords:
    def test_summary_is_deterministic_text(self):
        objective = parse_objective("pareto")
        points = [_point("a", (1, 5)), _point("b", (5, 1))]
        text = frontier_summary(points, objective)
        assert "2 designs" in text and "latency,dsp" in text
        assert text == frontier_summary(points, objective)


def _report(cycles, ii=1, dsp=0):
    loops = [
        LoopReport(iterator="i", trip_count=8, pipelined=True,
                   achieved_ii=ii, depth=3, latency=cycles)
    ]
    return SynthesisReport(
        function_name="f", device=DEFAULT_DEVICE, clock_ns=10.0,
        total_cycles=cycles, resources=Resources(dsp=dsp), loops=loops,
    )


class TestParallelismMetric:
    """Regression: parallelism is the *product* across node configs."""

    def test_gemm_known_design(self):
        result = auto_dse(polybench.gemm(16), options=DseOptions(cache=False))
        assert result.parallelism == 32.0

    def test_multi_kernel_product_not_max(self):
        # mm2 has two compute nodes; under the old max() the metric
        # collapsed to the larger node's 32 instead of 32 * 32.
        result = auto_dse(polybench.mm2(16), options=DseOptions(cache=False))
        assert result.parallelism == 1024.0
        per_node = [c.total_parallelism for c in result.configs.values()]
        assert result.parallelism == (
            per_node[0] * per_node[1] / (result.report.worst_ii() or 1)
        )

    def test_constructed_two_config_case(self):
        configs = {
            "S1": NodeConfig(name="S1", pipeline_dim="i",
                             unrolls=[("i", 4)]),
            "S2": NodeConfig(name="S2", pipeline_dim="i",
                             unrolls=[("i", 8)]),
        }
        result = DseResult(
            function=None, report=_report(100, ii=2), schedule=[],
            plan=None, configs=configs, bank_cap=128, func_op=None,
            dse_time_s=0.0, evaluations=1,
        )
        # product(4, 8) / II 2 -- max(4, 8) / 2 would say 4.0.
        assert result.parallelism == 16.0
