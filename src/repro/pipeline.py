"""The end-to-end compilation pipeline (paper Fig. 3 / Fig. 7).

DSL function -> dependence graph IR -> polyhedral IR (schedule replay +
AST build) -> annotated affine dialect -> HLS C, with virtual HLS
synthesis available at the affine level.  These drivers are what the
``Function`` convenience methods delegate to.
"""

from __future__ import annotations

import copy
from typing import Optional

from repro.dsl.function import Function
from repro.depgraph.graph import DependenceGraph, build_dependence_graph
from repro.polyir.program import PolyProgram, lower_function
from repro.affine.ir import FuncOp
from repro.affine.lowering import lower_program
from repro.hls.device import DEFAULT_DEVICE, FPGADevice
from repro.hls.estimator import HlsEstimator
from repro.hls.report import SynthesisReport
from repro.hlsgen.codegen import generate_hls_c


def analyze(function: Function) -> DependenceGraph:
    """Level 1: build and analyze the dependence graph IR."""
    return build_dependence_graph(function)


def lower_to_polyhedral(function: Function) -> PolyProgram:
    """Level 2: polyhedral IR with the function's schedule replayed."""
    return lower_function(function)


def lower_to_affine(function: Function, verify: bool = True) -> FuncOp:
    """Level 3: annotated affine dialect.

    The structural verifier runs on the result by default (a cheap tree
    walk); a failure means the lowering itself is broken, so it raises
    immediately rather than collecting.
    """
    func = lower_program(lower_to_polyhedral(function))
    if verify:
        from repro.affine.passes.verify import verify_func

        verify_func(func).raise_if_errors()
    return func


def canonical(func_op: FuncOp) -> FuncOp:
    """The form HLS C is emitted from, made in place: ``func_op``
    canonicalized (trip-1 loops promoted, constant guards folded, dead
    regions removed, verified) and given its dependence pragmas."""
    from repro.affine.passes import InsertDependencePragmas, canonicalize

    canonicalize(func_op)
    InsertDependencePragmas().run(func_op)
    return func_op


def detached(func_op: FuncOp) -> FuncOp:
    """A copy of ``func_op`` that passes may rewrite, sharing its arrays
    (a DSE result's ``func_op`` shares ops with the lowering memo)."""
    return copy.deepcopy(func_op, {id(array): array for array in func_op.arrays})


def emit_hls_c(func_op: FuncOp) -> str:
    """HLS C of a lowered function, which is left as it is."""
    return generate_hls_c(canonical(detached(func_op)))


def compile_to_hls_c(function: Function) -> str:
    """Full pipeline: lower the function's schedule and emit HLS C."""
    return generate_hls_c(canonical(lower_to_affine(function)))


def estimate(
    function: Function,
    device: Optional[FPGADevice] = None,
    clock_ns: Optional[float] = None,
) -> SynthesisReport:
    """Virtual HLS synthesis of the function under its current schedule.

    ``clock_ns`` defaults to the device's own clock target, so zoo
    parts retimed with :meth:`~repro.hls.device.FPGADevice.at_clock`
    are estimated at their declared frequency.
    """
    func = lower_to_affine(function)
    device = device or DEFAULT_DEVICE
    estimator = HlsEstimator(
        device=device,
        clock_ns=clock_ns if clock_ns is not None else device.clock_ns,
    )
    return estimator.estimate(func)
