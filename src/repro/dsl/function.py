"""The function container: the unit of compilation in POM.

A :class:`Function` groups computes, their schedule, and the arrays they
touch.  It is also a context manager so the DSL reads like the paper's
listings::

    with Function("gemm") as f:
        i = var("i", 0, 32); j = var("j", 0, 32); k = var("k", 0, 32)
        A = placeholder("A", (32, 32), p_float32)
        ...
        s = compute("s", [k, i, j], A[i, j] + B[i, k] * C[k, j], A[i, j])
    s.tile(i, j, 4, 4, i0, j0, i1, j1)
    print(f.codegen())

The heavyweight drivers (``codegen``, ``auto_DSE``, estimation) delegate
to the compilation pipeline lazily to avoid import cycles between the IR
layers.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.dsl.compute import Compute
from repro.dsl.placeholder import PartitionScheme, Placeholder
from repro.dsl.schedule import Schedule

_FUNCTION_STACK: List["Function"] = []


def current_function() -> Optional["Function"]:
    """The innermost active Function context, or None."""
    return _FUNCTION_STACK[-1] if _FUNCTION_STACK else None


class Function:
    """A named group of computes with a shared schedule."""

    def __init__(self, name: str):
        if not name or not name.isidentifier():
            raise ValueError(f"invalid function name {name!r}")
        self.name = name
        self.computes: List[Compute] = []
        self.schedule = Schedule()

    # -- context management ------------------------------------------------

    def __enter__(self) -> "Function":
        _FUNCTION_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _FUNCTION_STACK.pop()
        assert popped is self, "unbalanced Function contexts"

    # -- registration --------------------------------------------------------

    def register_compute(self, compute: Compute) -> None:
        if any(c.name == compute.name for c in self.computes):
            raise ValueError(f"duplicate compute name {compute.name!r} in {self.name!r}")
        compute.function = self
        self.computes.append(compute)

    def get_compute(self, name: str) -> Compute:
        for compute in self.computes:
            if compute.name == name:
                return compute
        raise KeyError(f"no compute named {name!r} in function {self.name!r}")

    def placeholders(self) -> List[Placeholder]:
        """All arrays touched by any compute, in first-use order."""
        seen: Dict[str, Placeholder] = {}
        for compute in self.computes:
            for array in compute.arrays():
                seen.setdefault(array.name, array)
        return list(seen.values())

    def partitions(self) -> Dict[str, Optional[PartitionScheme]]:
        """Each array's partition scheme (None: unpartitioned), by name."""
        return {p.name: p.partition_scheme for p in self.placeholders()}

    def set_partitions(self, partitions: Mapping[str, Optional[PartitionScheme]]) -> None:
        """Give every array its scheme in ``partitions`` (absent: none)."""
        for placeholder in self.placeholders():
            placeholder.partition_scheme = partitions.get(placeholder.name)

    # -- reference semantics ----------------------------------------------------

    def allocate_arrays(self, seed: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Fresh numpy buffers for every placeholder (random when seeded)."""
        rng = np.random.default_rng(seed) if seed is not None else None
        return {p.name: p.allocate(rng) for p in self.placeholders()}

    def structural_directives(self) -> List:
        """The ``after``/``fuse`` directives currently scheduled.

        These are *structural*: when a consumer is nested into a
        producer's loop (e.g. ping-pong stencil sweeps inside one time
        loop, paper Fig. 16) the interleaving is part of the algorithm's
        meaning, so both the reference executor and the DSE preserve
        them.
        """
        from repro.dsl.schedule import After, Fuse

        return [
            d for d in self.schedule
            if isinstance(d, (After, Fuse)) and d.structural
        ]

    def reference_execute(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Run all computes with sequential semantics.

        Without structural directives, computes run whole-domain in
        declaration order.  With ``after``/``fuse`` at a loop level, the
        statements interleave inside the shared loops; that ordering is
        realized by lowering *only* the structural directives (no loop
        transformations) and interpreting the result.
        """
        structural = self.structural_directives()
        if not structural:
            for compute in self.computes:
                compute.reference_execute(arrays)
            return
        from repro.polyir.program import PolyProgram
        from repro.affine.lowering import lower_program
        from repro.affine.interp import interpret

        program = PolyProgram(self)
        for directive in structural:
            program.apply_directive(directive)
        interpret(lower_program(program), arrays)

    # -- compilation drivers (lazy imports to avoid layer cycles) ----------------

    def codegen(self) -> str:
        """Compile through all three IR levels and emit HLS C code."""
        from repro.pipeline import compile_to_hls_c

        return compile_to_hls_c(self)

    def lower(self):
        """Compile to the annotated affine dialect (the final IR level)."""
        from repro.pipeline import lower_to_affine

        return lower_to_affine(self)

    def simulate(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Lower, then run the compiled simulator in place on ``arrays``."""
        from repro.affine.compile import simulate

        simulate(self.lower(), arrays)

    def estimate(self, device=None):
        """Virtual HLS synthesis: latency/II/resource/power report."""
        from repro.pipeline import estimate

        return estimate(self, device=device)

    def verify(self):
        """Preflight the schedule and verify the lowered IR.

        Returns a :class:`~repro.diagnostics.DiagnosticEngine` holding
        every legality violation and structural-invariant failure found;
        empty (no errors) means the function compiles cleanly.  Lowering
        is skipped when the preflight already found errors -- applying an
        illegal schedule would only produce noise.
        """
        from repro.diagnostics import DiagnosticEngine, SourceLocation
        from repro.preflight import preflight_function

        engine = DiagnosticEngine()
        preflight_function(self, engine)
        if engine.has_errors:
            return engine
        from repro.pipeline import lower_to_affine
        from repro.affine.passes.verify import verify_func

        try:
            func = lower_to_affine(self, verify=False)
        except Exception as exc:  # surface as a diagnostic, not a traceback
            engine.error(
                "GEN001",
                f"lowering failed: {exc}",
                location=SourceLocation(function=self.name),
            )
            return engine
        verify_func(func, engine)
        return engine

    def auto_DSE(self, options=None):
        """Two-stage automatic design space exploration (paper Section VI).

        Pass one :class:`~repro.dse.options.DseOptions`::

            result = function.auto_DSE(options=DseOptions(cache=False))
        """
        from repro.dse.engine import auto_dse

        return auto_dse(self, options=options)

    # Pythonic alias
    auto_dse = auto_DSE

    def reset_schedule(self) -> None:
        """Drop all recorded directives (restores the pure algorithm)."""
        self.schedule.clear()

    def __repr__(self):
        return f"Function({self.name!r}, computes={[c.name for c in self.computes]})"
