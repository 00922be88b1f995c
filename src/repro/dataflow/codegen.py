"""HLS C emission for dataflow designs (``#pragma HLS dataflow``).

One C function per stage, a top-level wrapper calling them all.  Stream
arrays travel as ``hls::stream<T>&`` arguments; each stage keeps a
local copy of the frames it touches (read in from inbound streams
element-by-element in row-major order, written out the same way), its
kernel body unchanged from the single-kernel backend -- so every
schedule directive and partition pragma the DSE installed survives
verbatim inside its stage.  The wrapper declares the channels with
``#pragma HLS stream ... depth=N`` using the resolved (deadlock-free)
depths and marks the region with ``#pragma HLS dataflow``, which is
what lets HLS overlap the stage executions into a task pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.affine.ir import FuncOp
from repro.dataflow.design import DataflowDesign, Stage
from repro.dataflow.estimate import resolve_depths
from repro.hlsgen.codegen import _array_decl, _emit_block, _partition_pragmas
from repro.pipeline import canonical, detached


def _loop_nest(lines: List[str], shape, body: str, indent: int = 1) -> None:
    """Emit a dense row-major loop nest around one statement line."""
    pad = "  " * indent
    iterators = [f"s{d}" for d in range(len(shape))]
    for depth, (it, extent) in enumerate(zip(iterators, shape)):
        inner = "  " * (indent + depth)
        lines.append(
            f"{inner}for (int {it} = 0; {it} < {extent}; ++{it}) {{"
        )
    innermost = "  " * (indent + len(shape))
    subscripts = "".join(f"[{it}]" for it in iterators)
    lines.append(f"{innermost}{body.format(idx=subscripts)}")
    for depth in range(len(shape) - 1, -1, -1):
        lines.append("  " * (indent + depth) + "}")


def generate_dataflow_hls_c(
    design: DataflowDesign,
    depths: Optional[Dict[str, int]] = None,
    func_ops: Optional[Dict[str, FuncOp]] = None,
) -> str:
    """Emit the complete dataflow accelerator as HLS C: each stage from
    its lowered function in ``func_ops`` (left as it is), else from its
    installed schedule lowered afresh."""
    fifos = {f.array: f for f in resolve_depths(design, depths)}
    placeholders = {p.name: p for p in design.placeholders()}
    streams = set(design.stream_arrays())

    inbound: Dict[str, List[str]] = {}
    outbound: Dict[str, List[str]] = {}
    for edge in design.edges:
        outbound.setdefault(edge.producer, []).append(edge.array)
        inbound.setdefault(edge.consumer, []).append(edge.array)

    lines: List[str] = [
        "#include <math.h>",
        "#include <stdint.h>",
        "#include <hls_stream.h>",
        "",
        "#define pom_min(a, b) ((a) < (b) ? (a) : (b))",
        "#define pom_max(a, b) ((a) > (b) ? (a) : (b))",
        "",
    ]

    ordered = design.topo_order()
    for stage in ordered:
        lowered = stage.function.lower() if func_ops is None else detached(func_ops[stage.name])
        _emit_stage(
            lines, design, stage, canonical(lowered),
            inbound.get(stage.name, []), outbound.get(stage.name, []),
            placeholders,
        )
        lines.append("")

    # -- top-level wrapper -------------------------------------------------
    externals = [
        placeholders[name]
        for name in design.external_arrays()
    ]
    args = ", ".join(_array_decl(p) for p in externals)
    lines.append(f"void {design.name}({args}) {{")
    lines.append("#pragma HLS dataflow")
    for name in design.stream_arrays():
        fifo = fifos[name]
        c_type = placeholders[name].dtype.c_name
        lines.append(f"  static hls::stream<{c_type}> {name}_s;")
        lines.append(f"#pragma HLS stream variable={name}_s depth={fifo.depth}")
    for stage in ordered:
        call_args = []
        for placeholder in stage.function.placeholders():
            if placeholder.name in streams:
                call_args.append(f"{placeholder.name}_s")
            else:
                call_args.append(placeholder.name)
        lines.append(
            f"  {design.name}_{stage.name}({', '.join(call_args)});"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_stage(
    lines: List[str],
    design: DataflowDesign,
    stage: Stage,
    func_op: FuncOp,
    inbound: List[str],
    outbound: List[str],
    placeholders,
) -> None:
    """One ``static void`` task function wrapping the stage kernel."""
    streams = set(design.stream_arrays())
    params: List[str] = []
    for placeholder in stage.function.placeholders():
        if placeholder.name in streams:
            c_type = placeholder.dtype.c_name
            params.append(
                f"hls::stream<{c_type}> &{placeholder.name}_s"
            )
        else:
            params.append(_array_decl(placeholder))
    lines.append(
        f"static void {design.name}_{stage.name}({', '.join(params)}) {{"
    )
    for pragma in _partition_pragmas(func_op):
        lines.append(pragma)
    # Local frames for every stream array this stage touches.
    for name in list(inbound) + list(outbound):
        lines.append(f"  {_array_decl(placeholders[name])};")
    for name in outbound:
        # Design-owned: produced frames start zeroed (border contract).
        _loop_nest(
            lines, placeholders[name].shape, f"{name}{{idx}} = 0;"
        )
    for name in inbound:
        _loop_nest(
            lines, placeholders[name].shape,
            f"{name}{{idx}} = {name}_s.read();",
        )
    _emit_block(func_op.body, lines, indent=1)
    for name in outbound:
        _loop_nest(
            lines, placeholders[name].shape,
            f"{name}_s.write({name}{{idx}});",
        )
    lines.append("}")
