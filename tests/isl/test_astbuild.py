"""Unit tests for the CLooG-style polyhedral AST builder."""

import pytest

from repro.isl.affine import AffineExpr
from repro.isl.astbuild import AstBuilder, BlockNode, ForNode, IfNode, UserNode
from repro.isl.constraint import Constraint
from repro.isl.maps import ScheduleMap
from repro.isl.sets import BasicSet

e = AffineExpr


def build(*stmts):
    return AstBuilder().build(list(stmts))


def collect_loops(node):
    return [n for n in node.walk() if isinstance(n, ForNode)]


def collect_users(node):
    return [n for n in node.walk() if isinstance(n, UserNode)]


def execute(node, env=None, trace=None):
    """Interpret the AST, recording (stmt, binding values) tuples in order."""
    env = dict(env or {})
    trace = trace if trace is not None else []
    if isinstance(node, ForNode):
        lo = max(b.evaluate(env) for b in node.lowers)
        hi = min(b.evaluate(env) for b in node.uppers)
        for value in range(lo, hi + 1):
            env[node.iterator] = value
            execute(node.body, env, trace)
        env.pop(node.iterator, None)
    elif isinstance(node, IfNode):
        if all(c.satisfied_by(env) for c in node.conditions):
            execute(node.body, env, trace)
    elif isinstance(node, BlockNode):
        for child in node.stmts:
            execute(child, env, trace)
    elif isinstance(node, UserNode):
        values = {d: env[it] for d, it in node.binding.items()}
        trace.append((node.name, values))
    return trace


class TestSingleStatement:
    def test_rectangular_nest(self):
        dom = BasicSet.box({"i": (0, 3), "j": (0, 2)})
        ast = build(("S", dom, ScheduleMap.default(["i", "j"]), None))
        loops = collect_loops(ast)
        assert [l.iterator for l in loops] == ["i", "j"]
        assert loops[0].constant_trip_count() == 4
        assert loops[1].constant_trip_count() == 3

    def test_execution_covers_domain(self):
        dom = BasicSet.box({"i": (0, 3), "j": (0, 2)})
        ast = build(("S", dom, ScheduleMap.default(["i", "j"]), None))
        trace = execute(ast)
        assert len(trace) == 12
        assert trace[0] == ("S", {"i": 0, "j": 0})
        assert trace[-1] == ("S", {"i": 3, "j": 2})

    def test_interchanged_schedule(self):
        dom = BasicSet.box({"i": (0, 1), "j": (0, 2)})
        sched = ScheduleMap(["i", "j"], [0, e.var("j"), 0, e.var("i"), 0])
        ast = build(("S", dom, sched, None))
        loops = collect_loops(ast)
        assert [l.iterator for l in loops] == ["j", "i"]
        trace = execute(ast)
        # j varies slowest after interchange
        assert trace[0][1] == {"i": 0, "j": 0}
        assert trace[1][1] == {"i": 1, "j": 0}

    def test_tiled_domain_bounds_pruned(self):
        dom = BasicSet.box({"i": (0, 31)}).substitute_dim(
            "i", e.var("i0") * 4 + e.var("i1"), ["i0", "i1"],
            extra=[Constraint.ge("i1", 0), Constraint.le("i1", 3)],
        )
        ast = build(("S", dom, ScheduleMap.default(["i0", "i1"]), None))
        loops = collect_loops(ast)
        assert loops[0].constant_trip_count() == 8
        assert loops[1].constant_trip_count() == 4
        assert len(execute(ast)) == 32

    def test_skewed_triangular_bounds(self):
        dom = BasicSet.box({"i": (0, 3), "j": (0, 3)}).substitute_dim(
            "j", e.var("jp") - e.var("i"), ["i", "jp"]
        )
        sched = ScheduleMap(["i", "jp"], [0, e.var("jp"), 0, e.var("i"), 0])
        ast = build(("S", dom, sched, None))
        trace = execute(ast)
        assert len(trace) == 16
        # every recorded point satisfies the original box via j = jp - i
        for _, values in trace:
            j = values["jp"] - values["i"]
            assert 0 <= values["i"] <= 3 and 0 <= j <= 3

    def test_unscheduled_dim_rejected(self):
        dom = BasicSet.box({"i": (0, 3), "j": (0, 3)})
        sched = ScheduleMap(["i", "j"], [0, e.var("i"), 0])
        with pytest.raises(ValueError):
            build(("S", dom, sched, None))

    def test_unbounded_loop_rejected(self):
        dom = BasicSet(["i"], [Constraint.ge("i", 0)])
        with pytest.raises(ValueError):
            build(("S", dom, ScheduleMap.default(["i"]), None))


class TestMultiStatement:
    def test_sequenced_by_leading_static_dim(self):
        d1 = BasicSet.box({"i": (0, 2)})
        d2 = BasicSet.box({"k": (0, 1)})
        s1 = ScheduleMap.default(["i"], prefix=[0])
        s2 = ScheduleMap.default(["k"], prefix=[1])
        ast = build(("A", d1, s1, None), ("B", d2, s2, None))
        trace = execute(ast)
        assert [t[0] for t in trace] == ["A", "A", "A", "B", "B"]

    def test_fused_same_bounds(self):
        d = BasicSet.box({"i": (0, 3)})
        s1 = ScheduleMap(["i"], [0, e.var("i"), 0])
        s2 = ScheduleMap(["i"], [0, e.var("i"), 1])
        ast = build(("A", d, s1, None), ("B", d, s2, None))
        assert len(collect_loops(ast)) == 1
        trace = execute(ast)
        assert [t[0] for t in trace][:4] == ["A", "B", "A", "B"]

    def test_fused_final_static_dim_orders_body(self):
        d = BasicSet.box({"i": (0, 1)})
        s1 = ScheduleMap(["i"], [0, e.var("i"), 1])
        s2 = ScheduleMap(["i"], [0, e.var("i"), 0])
        ast = build(("A", d, s1, None), ("B", d, s2, None))
        trace = execute(ast)
        assert [t[0] for t in trace] == ["B", "A", "B", "A"]

    def test_fused_different_bounds_guarded(self):
        d1 = BasicSet.box({"i": (0, 7)})
        d2 = BasicSet.box({"i": (0, 3)})
        s1 = ScheduleMap(["i"], [0, e.var("i"), 0])
        s2 = ScheduleMap(["i"], [0, e.var("i"), 1])
        ast = build(("A", d1, s1, None), ("B", d2, s2, None))
        assert len(collect_loops(ast)) == 1
        trace = execute(ast)
        a_count = sum(1 for t in trace if t[0] == "A")
        b_count = sum(1 for t in trace if t[0] == "B")
        assert (a_count, b_count) == (8, 4)
        guards = [n for n in ast.walk() if isinstance(n, IfNode)]
        assert guards, "tighter statement must be guarded"

    def test_different_depths_padded(self):
        d1 = BasicSet.box({"i": (0, 1), "j": (0, 1)})
        d2 = BasicSet.box({"k": (0, 1)})
        s1 = ScheduleMap.default(["i", "j"], prefix=[0])
        s2 = ScheduleMap.default(["k"], prefix=[1])
        ast = build(("A", d1, s1, None), ("B", d2, s2, None))
        trace = execute(ast)
        assert len(trace) == 6

    def test_payload_reaches_user_node(self):
        d = BasicSet.box({"i": (0, 0)})
        payload = {"body": "A[i] = 0"}
        ast = build(("S", d, ScheduleMap.default(["i"]), payload))
        users = collect_users(ast)
        assert users[0].payload is payload

    def test_empty_build(self):
        ast = AstBuilder().build([])
        assert isinstance(ast, BlockNode)
        assert not ast.stmts


class TestLexicographicCorrectness:
    def test_trace_order_matches_schedule_vectors(self):
        """The AST executes instances in lexicographic schedule order."""
        d1 = BasicSet.box({"i": (0, 2), "j": (0, 1)})
        s1 = ScheduleMap(["i", "j"], [0, e.var("j"), 0, e.var("i"), 0])
        d2 = BasicSet.box({"k": (0, 2)})
        s2 = ScheduleMap.default(["k"], prefix=[1])
        ast = build(("A", d1, s1, None), ("B", d2, s2, None))
        trace = execute(ast)

        def timestamp(entry):
            name, values = entry
            sched = s1 if name == "A" else s2.pad_to_depth(2)
            return tuple(entry.evaluate(values) for entry in sched.entries)

        stamps = [timestamp(t) for t in trace]
        assert stamps == sorted(stamps)
