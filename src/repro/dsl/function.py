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

import functools
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.diagnostics import DiagnosticError
from repro.dsl.compute import Compute, _bind, _nest_lines, _run
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
        statements interleave inside the shared loops.  Both run as one
        generated nest (:func:`_interleave`) built from the DSL alone.
        """
        statics = self._statics()
        _run(arrays, lambda namespace, loads: _interleave(self.computes, statics, namespace, loads))

    def _statics(self) -> Dict[str, List[int]]:
        """Each compute's static schedule dims under the structural
        directives, padded to the deepest compute: the surgery of
        ``PolyProgram._apply_after`` on ``[position] + [0] * depth``."""
        depth = max((len(c.iters) for c in self.computes), default=0)
        statics = {c.name: [n] + [0] * depth for n, c in enumerate(self.computes)}
        for directive in self.structural_directives():
            consumer, producer = statics[directive.compute_name], statics[directive.other]
            if directive.level is None:
                threshold = producer[0]
                for other in statics.values():
                    if other is not consumer and other[0] > threshold:
                        other[0] += 1
                consumer[0] = threshold + 1
                continue
            names = self.get_compute(directive.other).iter_names
            if directive.level not in names:
                raise KeyError(f"{directive.other}: no loop level named {directive.level!r}")
            shared = names.index(directive.level)
            loops = len(self.get_compute(directive.compute_name).iters)
            if loops <= shared:
                raise DiagnosticError(f"{directive.compute_name}: cannot fuse at level "
                                      f"{directive.level!r}; statement has only {loops} loops",
                                      code="SCH005")
            consumer[:shared + 1] = producer[:shared + 1]
            consumer[shared + 1] = producer[shared + 1] + 1
        return statics

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


def _interleave(computes: Sequence[Compute], statics, namespace, loads) -> List[str]:
    """The lines of ``computes``' interleaved nest, as the AST builder
    orders their statements (``AstBuilder._build_level``).

    At each level the computes split by static dim, in sorted order.  A
    group that loops there shares one loop over the hull of its members'
    bounds, each member guarded by its own; a group that does not
    descends; a mix is the builder's ``ValueError``.  At full depth the
    members run by final static, then in declaration order.  A compute
    alone in its group runs the rest of its nest (:func:`_nest_lines`),
    the shared loops' variables its first iterators.
    """
    depth = max((len(c.iters) for c in computes), default=0)
    bind = functools.partial(_bind, namespace)

    def alone(compute: Compute, level: int, indent: int, guards) -> List[str]:
        conditions = guards[compute.name]
        head = ["    " * indent + f"if {' and '.join(conditions)}:"] if conditions else []
        return head + _nest_lines(compute, namespace, loads, level, indent + bool(conditions))

    def emit(group: List[Compute], level: int, indent: int, guards) -> List[str]:
        if level == depth:  # sorted() is stable: ties keep declaration order
            ordered = sorted(group, key=lambda c: statics[c.name][depth])
            return [line for c in ordered for line in alone(c, level, indent, guards)]
        groups: Dict[int, List[Compute]] = {}
        for compute in group:
            groups.setdefault(statics[compute.name][level], []).append(compute)
        lines: List[str] = []
        for key in sorted(groups):
            members = groups[key]
            looping = {level < len(c.iters) for c in members}
            if len(members) == 1:
                lines += alone(members[0], level, indent, guards)
            elif looping == {False}:
                lines += emit(members, level + 1, indent, guards)
            elif looping == {True}:
                lo = min(c.iters[level].lo for c in members)
                hi = max(c.iters[level].hi for c in members)
                inner = dict(guards)
                for c in members:
                    it = c.iters[level]
                    if (it.lo, it.hi) != (lo, hi):
                        inner[c.name] += (f"{bind(it.lo)} <= _i{level} < {bind(it.hi)}",)
                lines.append("    " * indent + f"for _i{level} in range({bind(lo)}, {bind(hi)}):")
                lines += emit(members, level + 1, indent + 1, inner)
            else:
                raise ValueError(f"dynamic schedule dims at level {level} must be "
                                 f"single dims: {[c.name for c in members]}")
        return lines

    return emit(list(computes), 0, 1, {c.name: () for c in computes})
