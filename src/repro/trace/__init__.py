"""End-to-end tracing and metrics for the compilation pipeline.

``repro.trace`` answers "where do the seconds go" across the three IR
levels and the DSE: hierarchical spans (name, category, wall/CPU time,
counters, IR fingerprints) recorded by instrumentation baked into the
hot layers -- DSL schedule application, polyhedral transforms, isl
Fourier-Motzkin elimination and AST building, affine lowering and
passes, HLS estimation, and the DSE engine -- plus a registry of named
counters and histograms.

Quick start::

    from repro import trace
    from repro.trace import export_chrome_trace, render_text_profile

    with trace.tracing() as tracer:
        result = function.auto_DSE()
    print(render_text_profile(tracer))
    export_chrome_trace(tracer, "dse.json")   # open in chrome://tracing

Design contract (see ``docs/observability.md``):

* **Off by default, cheap when off.**  Instrumented code calls
  :func:`span` / :func:`count`, which are one global load and a None
  test when no tracer is active (benchmarked < 5% overhead on the DSE
  suite in ``benchmarks/test_trace_overhead.py``).
* **Observational only.**  Tracing never changes results: DSE output is
  bit-identical with tracing on or off, including under seeded fault
  plans and across sequential/cached/sharded sweeps.
* **Deterministic merges.**  Worker processes ship picklable
  :class:`TraceData` back to the driver, which adopts them in
  declaration order -- a sharded sweep produces one coherent trace with
  one named track per shard, independent of worker finish order.
"""

from repro.trace.core import (
    Span,
    TraceData,
    Tracer,
    active,
    count,
    enabled,
    install,
    observe,
    span,
    tracing,
)
from repro.trace.export import (
    chrome_trace_events,
    export_chrome_trace,
    export_metrics_json,
    load_chrome_trace,
    render_metrics,
    render_text_profile,
    span_categories,
)
from repro.trace.metrics import Histogram, MetricsRegistry

__all__ = [
    "Span",
    "TraceData",
    "Tracer",
    "active",
    "count",
    "enabled",
    "install",
    "observe",
    "span",
    "tracing",
    "chrome_trace_events",
    "export_chrome_trace",
    "export_metrics_json",
    "load_chrome_trace",
    "render_metrics",
    "render_text_profile",
    "span_categories",
    "Histogram",
    "MetricsRegistry",
]
