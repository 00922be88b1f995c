"""Task-level dataflow designs: a DAG of kernels joined by FIFO streams.

A :class:`DataflowDesign` composes *existing* single-kernel
:class:`~repro.dsl.function.Function`\\ s into a coarse-grained pipeline:
each function becomes one :class:`Stage`, and a :class:`StreamEdge`
turns a shared array into a typed FIFO channel between exactly one
producer stage and one consumer stage (the ``#pragma HLS dataflow`` +
``hls::stream`` pattern).  The :class:`Pipeline` builder is the DSL
front door::

    p = Pipeline("edge_pipe")
    p.add_stage(smooth_fn)            # Function("smooth"): img -> smooth
    p.add_stage(grad_fn)              # Function("grad"): smooth -> gx, gy
    p.stream("smooth", "grad", "smooth")
    design = p.build()                # validates; DFL00x on misuse

Semantics contract (what estimation, simulation, and codegen all agree
on): stream arrays are *design-owned* -- zero-initialized at the start
of a run, written only by their producer and read only by their
consumer; non-stream arrays are external I/O visible to the caller.  A
consumer read that lands outside the producer's write footprint reads
the zero border (legal; flagged as a ``DFL006`` warning because it is
usually a boundary-condition choice, occasionally a bug).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.diagnostics import Diagnostic, DiagnosticEngine, DiagnosticError, SourceLocation
from repro.dsl.function import Function
from repro.dsl.placeholder import Placeholder


@dataclass
class Stage:
    """One kernel of the pipeline: a Function plus its stage name."""

    name: str
    function: Function

    def writes(self) -> Tuple[str, ...]:
        """Arrays any compute of this stage stores to (first-seen order)."""
        seen: Dict[str, None] = {}
        for compute in self.function.computes:
            seen.setdefault(compute.store().array_name)
        return tuple(seen)

    def reads(self) -> Tuple[str, ...]:
        """Arrays any compute of this stage loads from (first-seen order)."""
        seen: Dict[str, None] = {}
        for compute in self.function.computes:
            for access in compute.loads():
                seen.setdefault(access.array_name)
        return tuple(seen)


@dataclass
class StreamEdge:
    """A FIFO channel: ``array`` flows from ``producer`` to ``consumer``.

    ``depth`` is an explicit FIFO depth override; ``None`` lets the
    estimator use the deadlock-free minimum derived from the consumer's
    read window (see :func:`repro.dataflow.estimate.fifo_min_depth`).
    """

    producer: str
    consumer: str
    array: str
    depth: Optional[int] = None


class DataflowDesign:
    """A validated DAG of stages connected by stream edges.

    Build through :class:`Pipeline`; the constructor itself only stores.
    ``validate()`` enforces the DFL00x contract and records non-fatal
    findings (e.g. zero-border reads) on ``self.warnings``.
    """

    def __init__(self, name: str, stages: Sequence[Stage], edges: Sequence[StreamEdge]):
        if not name or not name.isidentifier():
            raise ValueError(f"invalid design name {name!r}")
        self.name = name
        self.stages: Dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self.stages:
                raise ValueError(
                    f"duplicate stage name {stage.name!r} in design {name!r}"
                )
            self.stages[stage.name] = stage
        self.edges: List[StreamEdge] = list(edges)
        self.warnings: List[Diagnostic] = []

    # -- structural queries ------------------------------------------------

    def stage(self, name: str) -> Stage:
        try:
            return self.stages[name]
        except KeyError:
            raise KeyError(
                f"no stage named {name!r} in design {self.name!r}; "
                f"stages: {sorted(self.stages)}"
            ) from None

    def stream_arrays(self) -> Tuple[str, ...]:
        """Arrays carried by a stream edge, in edge-declaration order."""
        seen: Dict[str, None] = {}
        for edge in self.edges:
            seen.setdefault(edge.array)
        return tuple(seen)

    def placeholders(self) -> List[Placeholder]:
        """One placeholder per distinct array name, in first-use order.

        Stages hold their own Placeholder objects; validation guarantees
        same-named arrays agree on shape and dtype, so the first one
        seen is representative.
        """
        seen: Dict[str, Placeholder] = {}
        for stage in self.stages.values():
            for array in stage.function.placeholders():
                seen.setdefault(array.name, array)
        return list(seen.values())

    def external_arrays(self) -> Tuple[str, ...]:
        """Caller-visible arrays (everything not carried by a stream)."""
        streams = set(self.stream_arrays())
        return tuple(
            p.name for p in self.placeholders() if p.name not in streams
        )

    def topo_order(self) -> List[Stage]:
        """Stages in topological (producer-before-consumer) order.

        Deterministic: ties break by stage declaration order.  Assumes
        ``validate()`` passed (no cycles).
        """
        incoming: Dict[str, int] = {name: 0 for name in self.stages}
        for edge in self.edges:
            incoming[edge.consumer] += 1
        order: List[Stage] = []
        ready = [name for name in self.stages if incoming[name] == 0]
        while ready:
            name = ready.pop(0)
            order.append(self.stages[name])
            for edge in self.edges:
                if edge.producer == name:
                    incoming[edge.consumer] -= 1
                    if incoming[edge.consumer] == 0:
                        ready.append(edge.consumer)
        if len(order) != len(self.stages):
            raise DiagnosticError(
                f"design {self.name!r}: dataflow graph contains a cycle",
                code="DFL004",
                location=SourceLocation(function=self.name),
            )
        return order

    # -- validation --------------------------------------------------------

    def validate(self) -> "DataflowDesign":
        """Enforce the DFL00x contract; returns self for chaining.

        Raises :class:`DiagnosticError` on the first structural error;
        non-fatal findings (``DFL006`` zero-border reads) accumulate on
        ``self.warnings`` as diagnostics, not Python warnings.
        """
        engine = DiagnosticEngine()
        location = SourceLocation(function=self.name)

        for edge in self.edges:
            for endpoint in (edge.producer, edge.consumer):
                if endpoint not in self.stages:
                    raise DiagnosticError(
                        f"stream edge for array {edge.array!r} references "
                        f"unknown stage {endpoint!r}; stages: "
                        f"{sorted(self.stages)}",
                        code="DFL001", location=location,
                    )
            producer = self.stages[edge.producer]
            consumer = self.stages[edge.consumer]
            if edge.array not in producer.writes():
                raise DiagnosticError(
                    f"stream array {edge.array!r} is not written by its "
                    f"producer stage {edge.producer!r} "
                    f"(writes: {list(producer.writes())})",
                    code="DFL002", location=location,
                )
            if edge.array not in consumer.reads():
                raise DiagnosticError(
                    f"stream array {edge.array!r} is not read by its "
                    f"consumer stage {edge.consumer!r} "
                    f"(reads: {list(consumer.reads())})",
                    code="DFL002", location=location,
                )
            if edge.depth is not None and edge.depth < 1:
                raise DiagnosticError(
                    f"stream array {edge.array!r}: FIFO depth must be >= 1, "
                    f"got {edge.depth}",
                    code="DFL007", location=location,
                )

        self._check_shapes(location)
        self._check_ownership(location)
        self.topo_order()  # raises DFL004 on a cycle
        self._check_footprints(engine, location)
        self.warnings = engine.warnings()
        return self

    def _check_shapes(self, location) -> None:
        """Same-named arrays must agree on shape and dtype everywhere."""
        seen: Dict[str, Tuple[str, Placeholder]] = {}
        for stage in self.stages.values():
            for array in stage.function.placeholders():
                previous = seen.get(array.name)
                if previous is None:
                    seen[array.name] = (stage.name, array)
                    continue
                prev_stage, prev = previous
                if prev.shape != array.shape or prev.dtype != array.dtype:
                    raise DiagnosticError(
                        f"array {array.name!r} disagrees across stages: "
                        f"{prev_stage!r} sees {prev.shape} {prev.dtype.name}, "
                        f"{stage.name!r} sees {array.shape} {array.dtype.name}",
                        code="DFL003", location=location,
                    )

    def _check_ownership(self, location) -> None:
        """Every stream array: one producer, one consumer, one edge.

        And no *undeclared* inter-stage traffic: a non-stream array
        written by one stage and read by another needs a stream edge
        (DFL008) -- implicit shared memory defeats the dataflow model.
        """
        edges_by_array: Dict[str, List[StreamEdge]] = {}
        for edge in self.edges:
            edges_by_array.setdefault(edge.array, []).append(edge)
        for array, edges in edges_by_array.items():
            if len(edges) > 1:
                raise DiagnosticError(
                    f"stream array {array!r} has {len(edges)} stream edges; "
                    "a FIFO channel has exactly one producer and one consumer",
                    code="DFL005", location=location,
                )
        writers: Dict[str, List[str]] = {}
        readers: Dict[str, List[str]] = {}
        for stage in self.stages.values():
            for array in stage.writes():
                writers.setdefault(array, []).append(stage.name)
            for array in stage.reads():
                readers.setdefault(array, []).append(stage.name)
        for array, edges in edges_by_array.items():
            (edge,) = edges
            extra_writers = [w for w in writers.get(array, []) if w != edge.producer]
            extra_readers = [r for r in readers.get(array, []) if r != edge.consumer]
            if extra_writers or extra_readers:
                raise DiagnosticError(
                    f"stream array {array!r} is touched beyond its edge "
                    f"{edge.producer!r} -> {edge.consumer!r}: "
                    f"extra writers {extra_writers}, extra readers "
                    f"{extra_readers}; a FIFO channel has exactly one "
                    "producer and one consumer",
                    code="DFL005", location=location,
                )
        streams = set(edges_by_array)
        for array, writing in writers.items():
            if array in streams:
                continue
            reading = [r for r in readers.get(array, []) if r not in writing]
            if reading:
                raise DiagnosticError(
                    f"stages {writing} write array {array!r} that stages "
                    f"{reading} read, but no stream edge is declared; add "
                    f"Pipeline.stream({writing[0]!r}, {reading[0]!r}, "
                    f"{array!r})",
                    code="DFL008", location=location,
                )

    def _check_footprints(self, engine: DiagnosticEngine, location) -> None:
        """Flag consumer reads outside the producer's write footprint."""
        from repro.depgraph.footprint import access_footprint

        for edge in self.edges:
            producer = self.stages[edge.producer]
            consumer = self.stages[edge.consumer]
            write_box = _union_box(
                access_footprint(c, c.store()).box
                for c in producer.function.computes
                if c.store().array_name == edge.array
            )
            read_box = _union_box(
                access_footprint(c, access).box
                for c in consumer.function.computes
                for access in c.loads()
                if access.array_name == edge.array
            )
            if write_box is None or read_box is None:
                continue
            outside = any(
                r_lo < w_lo or r_hi > w_hi
                for (r_lo, r_hi), (w_lo, w_hi) in zip(read_box, write_box)
            )
            if outside:
                engine.warning(
                    "DFL006",
                    f"stage {edge.consumer!r} reads {edge.array!r} over box "
                    f"{read_box}, outside producer {edge.producer!r}'s write "
                    f"box {write_box}; out-of-footprint elements read the "
                    "zero-initialized border",
                    location=location,
                )

    # -- semantics / drivers (delegate to the sibling modules) -------------

    def allocate_arrays(self, seed: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Buffers for every array: random externals, zeroed streams."""
        rng = np.random.default_rng(seed) if seed is not None else None
        streams = set(self.stream_arrays())
        arrays: Dict[str, np.ndarray] = {}
        for p in self.placeholders():
            buffer = p.allocate(rng)
            if p.name in streams:
                buffer[...] = 0
            arrays[p.name] = buffer
        return arrays

    def reference_execute(self, arrays: Mapping[str, np.ndarray]) -> None:
        from repro.dataflow.simulate import reference_execute_design

        reference_execute_design(self, arrays)

    def simulate(self, arrays: Mapping[str, np.ndarray]) -> None:
        from repro.dataflow.simulate import simulate_design

        simulate_design(self, arrays)

    def codegen(self) -> str:
        from repro.dataflow.codegen import generate_dataflow_hls_c

        return generate_dataflow_hls_c(self)

    def estimate(self, device=None, clock_ns=None):
        from repro.dataflow.estimate import estimate_design

        return estimate_design(self, device=device, clock_ns=clock_ns)

    def auto_DSE(self, options=None):
        from repro.dataflow.dse import auto_dse_dataflow

        return auto_dse_dataflow(self, options=options)

    auto_dse = auto_DSE

    def verify(self) -> DiagnosticEngine:
        """Design-level + per-stage verification, one diagnostic engine.

        Mirrors :meth:`Function.verify`: returns an engine holding every
        finding -- the design contract (DFL00x, including the non-fatal
        DFL006 border notes) plus each stage's own preflight/IR
        verification -- instead of raising on the first problem.
        """
        engine = DiagnosticEngine()
        try:
            self.validate()
        except DiagnosticError as exc:
            engine.emit(exc.diagnostic)
            return engine
        engine.extend(self.warnings)
        for stage in self.stages.values():
            engine.extend(stage.function.verify().diagnostics)
        return engine

    def __repr__(self):
        return (
            f"DataflowDesign({self.name!r}, stages={list(self.stages)}, "
            f"streams={list(self.stream_arrays())})"
        )


def _union_box(boxes) -> Optional[Tuple[Tuple[int, int], ...]]:
    result: Optional[Tuple[Tuple[int, int], ...]] = None
    for box in boxes:
        if result is None:
            result = tuple(box)
        else:
            result = tuple(
                (min(a[0], b[0]), max(a[1], b[1])) for a, b in zip(result, box)
            )
    return result


class Pipeline:
    """Builder for :class:`DataflowDesign` (the user-facing DSL).

    Not to be confused with the :class:`repro.dsl.Pipeline` *schedule
    directive* (loop pipelining); this one composes whole kernels.
    """

    def __init__(self, name: str):
        if not name or not name.isidentifier():
            raise ValueError(f"invalid design name {name!r}")
        self.name = name
        self._stages: List[Stage] = []
        self._edges: List[StreamEdge] = []

    def add_stage(self, function: Function, name: Optional[str] = None) -> "Pipeline":
        """Add one kernel; ``name`` defaults to the function's name."""
        if not isinstance(function, Function):
            raise TypeError(
                f"Pipeline.add_stage expects a Function, got {function!r}"
            )
        stage_name = name if name is not None else function.name
        if any(s.name == stage_name for s in self._stages):
            raise ValueError(
                f"duplicate stage name {stage_name!r} in pipeline {self.name!r}"
            )
        self._stages.append(Stage(stage_name, function))
        return self

    def stream(
        self,
        producer: str,
        consumer: str,
        array: str,
        depth: Optional[int] = None,
    ) -> "Pipeline":
        """Declare ``array`` as a FIFO from ``producer`` to ``consumer``."""
        self._edges.append(StreamEdge(producer, consumer, array, depth))
        return self

    def build(self) -> DataflowDesign:
        """Validate and return the design (DFL00x on contract violations)."""
        return DataflowDesign(self.name, self._stages, self._edges).validate()
