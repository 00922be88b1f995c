"""Hierarchical spans and the process-global tracer.

The model is deliberately small: a :class:`Span` is one timed region
(name, category, wall time, CPU time, optional structured ``args`` such
as IR fingerprints), spans nest via a stack, and a :class:`Tracer` owns
the flat span list (in *declaration order* -- a span's index is assigned
when it opens, not when it closes, so merged traces order
deterministically) plus a :class:`~repro.trace.metrics.MetricsRegistry`.

Instrumented code never holds a tracer; it calls the module-level
helpers::

    with trace.span("dse.candidate", "dse", args={"ordinal": 3}):
        ...
    trace.count("isl.fm_eliminations")

which dispatch to the process-global active tracer.  The disabled path
is engineered to be allocation-free and branch-cheap: one module-global
load and a ``None`` test, returning a shared no-op context manager --
the same discipline as :func:`repro.util.deadline.checkpoint`, and the
reason the instrumentation can stay in the hot loops permanently
(the overhead bound is ``tests/trace/test_overhead_perfsmoke.py``).

Tracing is observational only: no instrumented code path reads a span
or metric back, so results are bit-identical with tracing on or off
(asserted by ``tests/trace/test_bit_identity.py``).

Worker processes (parallel ``report_all``) cannot share
the driver's tracer; they record into a local tracer and ship a
picklable :class:`TraceData` back, which the driver adopts via
:meth:`Tracer.adopt_thread` (as a named parallel track), always in
deterministic declaration order.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.trace.metrics import MetricsRegistry


class Span:
    """One timed region of the pipeline.

    ``ts``/``dur`` are wall-clock seconds relative to the owning
    tracer's epoch; ``cpu`` is process CPU seconds consumed while the
    span was open.  ``parent`` is the index of the enclosing span in the
    tracer's flat list (-1 at the root), and ``tid`` is the logical
    track for merged multi-process traces (0 = the driver).
    """

    __slots__ = ("name", "category", "ts", "dur", "cpu", "args", "parent", "tid")

    def __init__(
        self,
        name: str,
        category: str,
        ts: float,
        parent: int,
        args: Optional[dict] = None,
        tid: int = 0,
    ):
        self.name = name
        self.category = category
        self.ts = ts
        self.dur = 0.0
        self.cpu = 0.0
        self.args = args
        self.parent = parent
        self.tid = tid

    def as_tuple(self) -> tuple:
        """The picklable wire form used by :class:`TraceData`."""
        return (
            self.name, self.category, self.ts, self.dur, self.cpu,
            self.args, self.parent, self.tid,
        )

    @classmethod
    def from_tuple(cls, data: tuple) -> "Span":
        span = cls(data[0], data[1], data[2], data[6], data[5], data[7])
        span.dur = data[3]
        span.cpu = data[4]
        return span

    def __repr__(self):
        return (
            f"Span({self.name!r}, cat={self.category!r}, "
            f"ts={self.ts:.6f}, dur={self.dur:.6f})"
        )


class TraceData:
    """A picklable snapshot of a tracer: spans + metrics.

    The unit of cross-process forwarding: workers export one of these,
    drivers adopt it.
    """

    __slots__ = ("spans", "counters", "histograms")

    def __init__(self, spans, counters, histograms):
        self.spans: List[tuple] = spans
        self.counters: Dict[str, float] = counters
        self.histograms: list = histograms

    def __reduce__(self):
        return (TraceData, (self.spans, self.counters, self.histograms))

    def __repr__(self):
        return f"TraceData({len(self.spans)} spans, {len(self.counters)} counters)"


class _SpanHandle:
    """The context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_index", "_cpu0")

    def __init__(self, tracer: "Tracer", index: int):
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> Span:
        self._cpu0 = time.process_time()
        return self._tracer.spans[self._index]

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        span = tracer.spans[self._index]
        span.dur = time.perf_counter() - tracer.epoch - span.ts
        span.cpu = time.process_time() - self._cpu0
        stack = tracer._stack
        # Pop back past this span even if inner spans leaked (an inner
        # exception unwound through __exit__ in LIFO order anyway).
        while stack and stack[-1] != self._index:
            stack.pop()
        if stack:
            stack.pop()


class _NullSpan:
    """Shared no-op context manager for the tracing-disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans and metrics for one traced region of work.

    Spans live in one flat list in declaration order; nesting is by
    parent index.  A tracer is cheap to construct and is not reusable
    across processes -- see :class:`TraceData` for that.
    """

    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans: List[Span] = []
        self.metrics = MetricsRegistry()
        self._stack: List[int] = []

    # -- recording -----------------------------------------------------

    def span(self, name: str, category: str = "", args: Optional[dict] = None) -> _SpanHandle:
        """Open a nested span; use as a context manager."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, category, time.perf_counter() - self.epoch, parent, args)
        )
        self._stack.append(index)
        return _SpanHandle(self, index)

    def count(self, name: str, n: float = 1) -> None:
        self.metrics.count(name, n)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    # -- cross-process forwarding --------------------------------------

    def export_data(self) -> TraceData:
        """The picklable snapshot a worker ships back to its driver."""
        counters, histograms = self.metrics.as_plain()
        return TraceData([s.as_tuple() for s in self.spans], counters, histograms)

    def adopt_thread(self, data: TraceData, tid: int, label: str) -> None:
        """Adopt worker spans as their own named parallel track.

        Used by parallel ``report_all``: each worker
        becomes Chrome track ``tid`` named ``label``; the worker's root
        spans stay roots (they are not children of any driver span).
        Spans keep their relative order and nesting; timestamps are
        rebased so the worker's first span starts "now" in this tracer's
        timeline (wall alignment across processes is not recoverable,
        and nothing downstream depends on it).  Metrics merge by
        summation.  Deterministic given a deterministic call order --
        which the drivers guarantee by adopting in declaration order.
        """
        self.thread_names[tid] = label
        if not data.spans and not data.counters and not data.histograms:
            return
        base_index = len(self.spans)
        if data.spans:
            rebase = (time.perf_counter() - self.epoch) - data.spans[0][2]
            for record in data.spans:
                span = Span.from_tuple(record)
                span.ts += rebase
                if span.parent >= 0:
                    span.parent += base_index
                span.tid = tid
                self.spans.append(span)
        self.metrics.merge_plain(data.counters, data.histograms)

    #: Chrome track names assigned by :meth:`adopt_thread`.
    @property
    def thread_names(self) -> Dict[int, str]:
        names = getattr(self, "_thread_names", None)
        if names is None:
            names = self._thread_names = {}
        return names


# -- the process-global default tracer ---------------------------------------

_ACTIVE: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The process-global active tracer, or None when tracing is off."""
    return _ACTIVE


def install(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or clear, with None) the global tracer; returns previous.

    Worker processes forked while the parent traces inherit the
    parent's ``_ACTIVE``.  The reset is the worker's own install: a
    serve job runs under a fresh :class:`~repro.session.SessionContext`,
    whose activation installs no tracer, and a ``report_all`` experiment
    runs under a context holding its own, so a worker never records into
    an orphaned copy.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


class _TracingScope:
    """Context manager activating a tracer for a dynamic extent."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __enter__(self) -> Tracer:
        self._previous = install(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        install(self._previous)


def tracing(tracer: Optional[Tracer] = None) -> _TracingScope:
    """Activate ``tracer`` (a fresh one by default) for a ``with`` block::

        with trace.tracing() as tracer:
            function.auto_DSE()
        export_chrome_trace(tracer, "out.json")
    """
    return _TracingScope(tracer if tracer is not None else Tracer())


def span(name: str, category: str = "", args: Optional[dict] = None):
    """Open a span on the active tracer; no-op when tracing is off.

    The disabled path must stay allocation-free: one global load, one
    ``None`` test, and a shared null context manager.  Callers building
    expensive ``args`` (fingerprints, op counts) must guard on
    :func:`enabled` first.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, category, args)


def count(name: str, n: float = 1) -> None:
    """Bump a metric counter on the active tracer; no-op when off."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.metrics.count(name, n)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the active tracer; no-op when off."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.metrics.observe(name, value)


def enabled() -> bool:
    """True when a tracer is active -- the guard for expensive span args."""
    return _ACTIVE is not None
