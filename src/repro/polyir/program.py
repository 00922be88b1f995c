"""The polyhedral IR of a whole function and its lowering to an AST.

A :class:`PolyProgram` holds one :class:`PolyStatement` per compute.  It
replays the function's schedule directives (loop transformations as set
manipulations, ``after``/``fuse`` as static-dim surgery on the 2d+1
schedules, hardware primitives as annotations), collects all domains and
schedules into one union (paper Fig. 9-c step 3), and invokes the
``ast_build`` machinery to produce the annotated polyhedral AST.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import trace as _trace
from repro.dsl.function import Function
from repro.dsl.schedule import (
    After,
    Directive,
    Fuse,
    Interchange,
    Pipeline,
    Reverse,
    Shift,
    Skew,
    Split,
    Tile,
    Unroll,
)
from repro.isl.astbuild import AstBuilder, AstNode, BlockNode, ForNode, IfNode, UserNode
from repro.polyir import transforms
from repro.polyir.statement import HardwareOpt, PolyStatement
from repro.polyir.transforms import TransformError


class PolyProgram:
    """Polyhedral representation of a function under a schedule."""

    def __init__(
        self, function: Function, statements: Optional[List[PolyStatement]] = None
    ):
        self.function = function
        if statements is None:
            statements = [
                PolyStatement.from_compute(compute, position)
                for position, compute in enumerate(function.computes)
            ]
        self.statements: List[PolyStatement] = statements

    # -- lookup ------------------------------------------------------------

    def statement(self, name: str) -> PolyStatement:
        for stmt in self.statements:
            if stmt.name == name:
                return stmt
        raise KeyError(f"no statement named {name!r}")

    def _replace(self, name: str, new_stmt: PolyStatement) -> None:
        for index, stmt in enumerate(self.statements):
            if stmt.name == name:
                self.statements[index] = new_stmt
                return
        raise KeyError(f"no statement named {name!r}")

    # -- directive replay -----------------------------------------------------

    def apply_schedule(self, schedule=None) -> "PolyProgram":
        """Replay directives in recorded order (Fig. 9-c step 2)."""
        if schedule is None:
            schedule = self.function.schedule
        with _trace.span("schedule.apply", "schedule"):
            for directive in schedule:
                self.apply_directive(directive)
        return self

    def apply_directive(self, directive: Directive) -> None:
        args = None
        if _trace.enabled():
            args = {"directive": type(directive).__name__,
                    "compute": directive.compute_name}
            _trace.count("polyir.directives_applied")
        with _trace.span("polyir.transform", "polyir", args):
            self._apply_directive(directive)

    def _apply_directive(self, directive: Directive) -> None:
        stmt = self.statement(directive.compute_name)
        if isinstance(directive, Interchange):
            self._replace(stmt.name, transforms.interchange(stmt, directive.i, directive.j))
        elif isinstance(directive, Split):
            self._replace(
                stmt.name,
                transforms.split(stmt, directive.i, directive.factor, directive.i0, directive.i1),
            )
        elif isinstance(directive, Tile):
            self._replace(
                stmt.name,
                transforms.tile(
                    stmt, directive.i, directive.j, directive.ti, directive.tj,
                    directive.i0, directive.j0, directive.i1, directive.j1,
                ),
            )
        elif isinstance(directive, Skew):
            self._replace(
                stmt.name,
                transforms.skew(stmt, directive.i, directive.j, directive.factor,
                                directive.ip, directive.jp),
            )
        elif isinstance(directive, Reverse):
            self._replace(
                stmt.name, transforms.reverse(stmt, directive.i, directive.i_new)
            )
        elif isinstance(directive, Shift):
            self._replace(
                stmt.name,
                transforms.shift(stmt, directive.i, directive.offset, directive.i_new),
            )
        elif isinstance(directive, After):
            self._apply_after(stmt, directive.other, directive.level)
        elif isinstance(directive, Fuse):
            self._apply_after(stmt, directive.other, directive.level)
        elif isinstance(directive, Pipeline):
            stmt.add_hw_opt(HardwareOpt("pipeline", directive.level, directive.ii))
        elif isinstance(directive, Unroll):
            stmt.add_hw_opt(HardwareOpt("unroll", directive.level, directive.factor))
        else:
            raise TransformError(f"unknown directive {directive!r}")

    def _apply_after(self, consumer: PolyStatement, producer_name: str, level: Optional[str]) -> None:
        """Sequence ``consumer`` after the producer, sharing loops to ``level``.

        Static dims above (and at) the shared level are copied from the
        producer so the AST builder fuses the loops; the static dim just
        below the shared level is bumped past the producer's, ordering
        the consumer after it inside the fused body.
        """
        producer = self.statement(producer_name)
        if level is None:
            threshold = producer.statics[0]
            for other in self.statements:
                if other is not consumer and other.statics[0] > threshold:
                    other.statics[0] += 1
            consumer.statics[0] = threshold + 1
            return
        shared = producer.level_of(level)
        if consumer.depth() <= shared:
            raise TransformError(
                f"{consumer.name}: cannot fuse at level {level!r}; "
                f"statement has only {consumer.depth()} loops"
            )
        for position in range(shared + 1):
            consumer.statics[position] = producer.statics[position]
        consumer.statics[shared + 1] = producer.statics[shared + 1] + 1

    # -- AST construction (Fig. 9-c step 3) ----------------------------------------

    def build_ast(self) -> AstNode:
        """Union all domains/schedules and build the annotated AST."""
        builder = AstBuilder()
        records = [
            (stmt.name, stmt.domain, stmt.schedule_map(), stmt)
            for stmt in self.statements
        ]
        ast = builder.build(records)
        self._annotate(ast)
        return ast

    def toplevel_groups(self) -> List[List[PolyStatement]]:
        """Statements grouped by their outermost static dim, in order.

        Each group is one top-level loop nest (or statement sequence) of
        the generated code: the AST builder partitions statements by
        ``statics[0]`` at the root, so groups lower independently.  This
        is the unit of reuse for incremental lowering.
        """
        buckets: Dict[int, List[PolyStatement]] = {}
        for stmt in self.statements:
            buckets.setdefault(stmt.statics[0], []).append(stmt)
        return [buckets[key] for key in sorted(buckets)]

    def build_ast_for(self, statements: List[PolyStatement]) -> AstNode:
        """Build the annotated AST of a subset of this program's statements.

        Valid only for subsets closed under top-level grouping (one or
        more whole :meth:`toplevel_groups` entries): within such a subset
        the AST builder makes exactly the same grouping and ordering
        decisions as the global build, so the per-group ASTs concatenated
        in static order equal the full :meth:`build_ast` result.
        """
        builder = AstBuilder()
        records = [
            (stmt.name, stmt.domain, stmt.schedule_map(), stmt)
            for stmt in statements
        ]
        ast = builder.build(records)
        self._annotate(ast)
        return ast

    def _annotate(self, ast: AstNode) -> None:
        """Attach hardware-optimization info to the matching for-nodes.

        Each user node resolves its statement's annotations through its
        own binding and its own chain of *enclosing* loops, so two
        separate nests that happen to reuse an iterator name never steal
        each other's pragmas.
        """
        by_name = {stmt.name: stmt for stmt in self.statements}

        def visit(node: AstNode, enclosing: list) -> None:
            if isinstance(node, ForNode):
                visit(node.body, enclosing + [node])
            elif isinstance(node, (IfNode,)):
                visit(node.body, enclosing)
            elif isinstance(node, BlockNode):
                for child in node.stmts:
                    visit(child, enclosing)
            elif isinstance(node, UserNode):
                stmt = by_name.get(node.name)
                if stmt is None:
                    return
                for opt in stmt.hw_opts:
                    iterator = node.binding.get(opt.level)
                    if iterator is None:
                        continue
                    for loop in reversed(enclosing):
                        if loop.iterator == iterator:
                            _merge_annotation(loop, opt)
                            break

        visit(ast, [])

    def __repr__(self):
        return f"PolyProgram({self.function.name!r}, {self.statements})"


def _merge_annotation(loop: ForNode, opt: HardwareOpt) -> None:
    """Merge one hardware opt into a for-node's annotation dict."""
    if opt.kind == "pipeline":
        existing = loop.annotations.get("pipeline")
        loop.annotations["pipeline"] = (
            opt.value if existing is None else min(existing, opt.value)
        )
    else:
        existing = loop.annotations.get("unroll")
        if existing is None:
            loop.annotations["unroll"] = opt.value
        elif 0 in (existing, opt.value):
            loop.annotations["unroll"] = 0
        else:
            loop.annotations["unroll"] = max(existing, opt.value)


def lower_function(function: Function) -> PolyProgram:
    """Build the polyhedral IR of a function and replay its schedule."""
    return PolyProgram(function).apply_schedule()
