"""Affine dialect with HLS attributes: POM's final IR level.

Explicit loop structure (``affine.for``/``affine.if``), memory ops,
arith/math ops, attribute-carried HLS pragmas, a lowering from the
polyhedral AST, a functional interpreter (the correctness oracle of the
test suite), and an MLIR-like printer.
"""

from repro.affine.compile import (
    CompiledKernel,
    KernelStats,
    compile_func,
    reference_mode,
    set_reference_mode,
    simulate,
)
from repro.affine.interp import interpret
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
    Op,
    ValueOp,
)
from repro.affine.lowering import lower_ast, lower_expr, lower_program
from repro.affine.passes import PassManager, canonicalize, default_pipeline
from repro.affine.printer import print_func

__all__ = [
    "FuncOp", "Block", "Op", "ValueOp",
    "AffineForOp", "AffineIfOp", "AffineLoadOp", "AffineStoreOp",
    "ArithOp", "CallOp", "CastOp", "ConstantOp", "IndexOp",
    "lower_program", "lower_ast", "lower_expr",
    "interpret", "print_func",
    "simulate", "compile_func", "CompiledKernel", "KernelStats",
    "reference_mode", "set_reference_mode",
    "PassManager", "canonicalize", "default_pipeline",
]
