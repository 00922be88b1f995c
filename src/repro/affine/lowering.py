"""Lowering from the polyhedral AST to the affine dialect (paper Fig. 9-d).

Node mapping: for-node -> ``affine.for``, if-node -> ``affine.if``,
block-node -> op sequence, user-node -> the recursive statement parser
that turns the DSL expression attached to the node into arith/math ops
with ``affine.load``/``affine.store`` memory accesses.  Hardware
optimization annotations carried on AST nodes transfer onto the
corresponding op attributes, and array partition schemes -- the
placeholders' own, or a ``partitions`` map's (how the DSE scores a
banking without writing it) -- are recorded on the function op.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Hashable, List, Mapping, Optional

from repro import trace as _trace
from repro.dsl.expr import Access, BinaryOp, Call, Cast, Const, Expr, IterRef, affine_form
from repro.dsl.function import Function
from repro.isl.astbuild import AstNode, BlockNode, ForNode, IfNode, UserNode
from repro.polyir.program import PolyProgram
from repro.polyir.statement import PolyStatement
from repro.util import deadline as _deadline
from repro.affine.ir import (
    AffineForOp,
    AffineIfOp,
    AffineLoadOp,
    AffineStoreOp,
    ArithOp,
    Block,
    CallOp,
    CastOp,
    ConstantOp,
    FuncOp,
    IndexOp,
    ValueOp,
)


def lower_program(program: PolyProgram, stats=None, partitions: Optional[Mapping] = None) -> FuncOp:
    """Lower a polyhedral program (with built AST) to a FuncOp.

    ``stats`` is accounted as in :func:`lower_program_incremental`:
    every top-level nest counts as (re)lowered.
    """
    with _trace.span("affine.lower_program", "affine"):
        start = perf_counter()
        ast = program.build_ast()
        if stats is not None:
            stats.astbuild_s += perf_counter() - start
        func = lower_ast(ast, program.function, partitions)
    if stats is not None:
        stats.group_lowerings += len(func.body)
    return func


def lower_program_incremental(
    program: PolyProgram,
    keys: Mapping[str, Hashable],
    cache: Optional[Dict[tuple, List]] = None,
    stats=None,
    partitions: Optional[Mapping] = None,
) -> FuncOp:
    """Lower a program, re-lowering only top-level nests not seen before.

    The AST builder partitions statements by their outermost static dim,
    so each top-level group builds and lowers independently of the
    others (see :meth:`PolyProgram.build_ast_for`).  ``keys`` maps each
    statement name to a hashable that stands for all of the statement
    but its statics (a DSE node-config fingerprint, or
    :meth:`PolyStatement.fingerprint`).  ``cache`` maps a group's
    ``(key, *statics)`` per member to its previously lowered ops; on a
    hit the ops are spliced into the new function by reference, which is
    safe because the DSE pipeline treats lowered functions as read-only
    (mutating passes such as canonicalization run on freshly lowered
    functions at code generation time).

    ``stats``, when given, must expose ``group_lowerings``,
    ``lowering_cache_hits``/``lowering_cache_misses`` counters and an
    ``astbuild_s`` accumulator (see :class:`repro.dse.stats.DseStats`).
    ``group_lowerings`` and ``astbuild_s`` are accounted with or without
    a ``cache`` (no cache: one whole-program build, every nest lowered).
    """
    if cache is None:
        return lower_program(program, stats, partitions)
    body: List = []
    for group in program.toplevel_groups():
        key = tuple((keys[stmt.name], *stmt.statics) for stmt in group)
        ops = cache.get(key)
        if ops is None:
            if stats is not None:
                stats.lowering_cache_misses += 1
                stats.group_lowerings += 1
            group_args = None
            if _trace.enabled():
                group_args = {"statements": [stmt.name for stmt in group]}
            with _trace.span("affine.lower_group", "affine", group_args):
                start = perf_counter()
                ast = program.build_ast_for(group)
                if stats is not None:
                    stats.astbuild_s += perf_counter() - start
                block = Block()
                _lower_node(ast, block)
                ops = list(block.ops)
                cache[key] = ops
        elif stats is not None:
            stats.lowering_cache_hits += 1
        body += ops
    return assemble(program.function, body, partitions)


def lower_ast(ast: AstNode, function: Function, partitions: Optional[Mapping] = None) -> FuncOp:
    """Lower an annotated polyhedral AST into the affine dialect."""
    block = Block()
    _lower_node(ast, block)
    return assemble(function, block.ops, partitions)


def assemble(function: Function, body: List, partitions: Optional[Mapping] = None) -> FuncOp:
    """A function over already-lowered top-level ops, by reference, with
    the schemes of ``partitions`` (by default ``function``'s own): a
    program lowered once serves every banking of its schedule (the
    lowered ops are read-only to the DSE, as for the nest memo above)."""
    if partitions is None:
        partitions = function.partitions()
    func = FuncOp(function.name, function.placeholders())
    for op in body:
        func.body.append(op)
    recorded = {name: scheme for name, scheme in partitions.items() if scheme is not None}
    if recorded:
        func.attributes["partitions"] = recorded
    return func


def _lower_node(node: AstNode, block: Block) -> None:
    # Watchdog checkpoint: lowering walks the whole polyhedral AST; poll
    # the cooperative deadline once per node so a timed-out candidate is
    # abandoned promptly.
    _deadline.checkpoint()
    if isinstance(node, ForNode):
        loop = AffineForOp(node.iterator, node.lowers, node.uppers)
        for key in ("pipeline", "unroll"):
            if key in node.annotations:
                loop.attributes[key] = node.annotations[key]
        _lower_node(node.body, loop.body)
        block.append(loop)
    elif isinstance(node, IfNode):
        guard = AffineIfOp(node.conditions)
        _lower_node(node.body, guard.body)
        block.append(guard)
    elif isinstance(node, BlockNode):
        for child in node.stmts:
            _lower_node(child, block)
    elif isinstance(node, UserNode):
        block.append(_lower_user(node))
    else:
        raise TypeError(f"unknown AST node {node!r}")


def _lower_user(node: UserNode) -> AffineStoreOp:
    stmt: PolyStatement = node.payload
    if not isinstance(stmt, PolyStatement):
        raise TypeError(f"user node {node.name!r} carries no statement payload")
    # The binding renames domain dims to loop iterators (astbuild binds
    # each dim to one iterator), so renaming the statement's affine forms
    # gives the lowered statement's.
    rename = node.binding
    value = lower_expr(stmt.body, rename)
    indices = [index.rename(rename) for index in stmt.dest.affine_indices()]
    store = AffineStoreOp(stmt.dest.placeholder, indices, value)
    store.attributes["statement"] = stmt.name
    return store


def lower_expr(expr: Expr, rename: Optional[Mapping[str, str]] = None) -> ValueOp:
    """The recursive statement parser: DSL expression -> value op tree.

    ``rename`` maps iterators to the loop iterators (``{dim: iterator}``)
    in every affine form the tree lowers to.
    """
    if isinstance(expr, Const):
        return ConstantOp(expr.value)
    if isinstance(expr, Access):
        indices = expr.affine_indices()
        if rename:
            indices = [index.rename(rename) for index in indices]
        return AffineLoadOp(expr.placeholder, indices)
    if isinstance(expr, (IterRef, BinaryOp)):
        # Pure-iterator arithmetic folds into a single affine apply.
        form = affine_form(expr)
        if form is not None:
            return IndexOp(form.rename(rename) if rename else form)
        return ArithOp(expr.op, lower_expr(expr.lhs, rename), lower_expr(expr.rhs, rename))
    if isinstance(expr, Call):
        return CallOp(expr.func, [lower_expr(a, rename) for a in expr.args])
    if isinstance(expr, Cast):
        return CastOp(expr.dtype, lower_expr(expr.value, rename))
    raise TypeError(f"cannot lower expression {expr!r}")
