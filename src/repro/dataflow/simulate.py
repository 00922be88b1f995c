"""Functional simulation of dataflow designs.

Two executors with one contract:

* :func:`reference_execute_design` -- ground truth: zero the stream
  arrays, then run every stage's DSL reference semantics in topological
  order over one shared buffer set (exactly what fusing the stages into
  one function and interpreting it would compute).
* :func:`simulate_design` -- the fast path: each stage lowers under its
  *current schedule* and runs through the compiled numpy kernel
  (:func:`repro.affine.compile.simulate`) on private buffers; stream
  arrays hop between stages through a :class:`StreamBuffer` that
  enforces FIFO discipline (write-once in producer order, drained
  exactly once by the consumer).

Because every per-stage kernel is bit-identical to the interpreter on
that stage (the PR-8 compiled-simulation contract) and the FIFO hop
moves values without touching them, the two executors agree bit-for-bit
on every array -- which ``tests/dataflow/test_simulate.py`` and the
fuzz harness's differential oracle both assert.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from repro.dataflow.design import DataflowDesign


class StreamBuffer:
    """A FIFO carrying one array's elements in row-major order.

    Models the ``hls::stream`` handoff: the producer pushes the whole
    frame once, the consumer pops it once, order preserved.  Double
    push or pop of the same frame raises -- the simulation must never
    silently reorder or replay traffic a real FIFO cannot.
    """

    def __init__(self, array: str):
        self.array = array
        self._frame: np.ndarray = None
        self._drained = False

    def push(self, frame: np.ndarray) -> None:
        if self._frame is not None:
            raise RuntimeError(
                f"stream {self.array!r}: frame pushed twice (one producer, "
                "one frame per run)"
            )
        # Flatten in row-major order -- the wire format.  A copy, so the
        # producer's later writes (there are none, but the discipline is
        # cheap) cannot alias the in-flight payload.
        self._frame = frame.reshape(-1).copy()

    def pop(self, shape) -> np.ndarray:
        if self._frame is None:
            raise RuntimeError(
                f"stream {self.array!r}: popped before any frame was pushed "
                "(producer must run first)"
            )
        if self._drained:
            raise RuntimeError(
                f"stream {self.array!r}: frame popped twice (one consumer "
                "per channel)"
            )
        self._drained = True
        return self._frame.reshape(shape).copy()


def _require_buffers(design: DataflowDesign, arrays: Mapping[str, np.ndarray]) -> None:
    missing = [
        name for name in design.external_arrays() if name not in arrays
    ]
    if missing:
        raise KeyError(
            f"design {design.name!r}: missing buffers for external "
            f"arrays {missing}"
        )


def reference_execute_design(
    design: DataflowDesign, arrays: Mapping[str, np.ndarray]
) -> None:
    """Ground-truth execution, in place on ``arrays``.

    Stream arrays are design-owned: buffers are created (or zeroed) here
    regardless of what the caller passed, so border reads outside the
    producer footprint see zeros deterministically.
    """
    _require_buffers(design, arrays)
    for placeholder in design.placeholders():
        if placeholder.name in design.stream_arrays():
            existing = arrays.get(placeholder.name)
            if existing is None:
                arrays[placeholder.name] = np.zeros(
                    placeholder.shape, dtype=placeholder.dtype.np_dtype
                )
            else:
                existing[...] = 0
    for stage in design.topo_order():
        stage.function.reference_execute(arrays)


def simulate_design(design: DataflowDesign, arrays: Mapping[str, np.ndarray]) -> None:
    """Compiled simulation through per-stage kernels and FIFO hops.

    Results land in ``arrays`` (externals in place; stream arrays are
    (re)created), bit-identical to :func:`reference_execute_design`.
    Honors reference mode (``REPRO_SIM_REFERENCE``): under it every
    stage kernel *is* the interpreter, so the FIFO plumbing itself is
    differential-testable.
    """
    _require_buffers(design, arrays)
    streams: Dict[str, StreamBuffer] = {
        name: StreamBuffer(name) for name in design.stream_arrays()
    }
    inbound: Dict[str, List[str]] = {}
    outbound: Dict[str, List[str]] = {}
    for edge in design.edges:
        outbound.setdefault(edge.producer, []).append(edge.array)
        inbound.setdefault(edge.consumer, []).append(edge.array)

    placeholders = {p.name: p for p in design.placeholders()}
    for stage in design.topo_order():
        local: Dict[str, np.ndarray] = {}
        for placeholder in stage.function.placeholders():
            name = placeholder.name
            if name in streams:
                if name in inbound.get(stage.name, ()):
                    local[name] = streams[name].pop(placeholder.shape)
                else:
                    # Produced here: a fresh zeroed frame (design-owned).
                    local[name] = np.zeros(
                        placeholder.shape, dtype=placeholder.dtype.np_dtype
                    )
            else:
                local[name] = arrays[name]
        stage.function.simulate(local)
        for name in outbound.get(stage.name, ()):
            streams[name].push(local[name])
            # Expose the stream payload to the caller too, so the
            # differential harness can compare *every* array.
            arrays[name] = local[name]
    for name, stream in streams.items():
        if not stream._drained:
            raise RuntimeError(
                f"stream {name!r} was never consumed; the design graph is "
                "inconsistent with its topological order"
            )
