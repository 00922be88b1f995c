"""The permanent tracing instrumentation is near-free when disabled.

The instrumentation lives in the hot loops (isl elimination, affine
passes, HLS estimation, the DSE candidate loop).  This check
micro-times the disabled ``span``/``count`` fast path, counts how many
instrumentation events one traced DSE suite emits, and bounds the
implied disabled-mode overhead at under 5% of the untraced suite's
wall time.  The traced suite must pick the same designs as the
untraced one.  Nothing is written to disk.
"""

import time

import pytest

from repro import trace
from repro.dse import DseOptions, auto_dse
from repro.workloads import polybench

pytestmark = pytest.mark.perfsmoke

#: The Table III suite, at the size the benchmarks run it.
WORKLOADS = ["gemm", "bicg", "mm2", "mm3", "gesummv"]
SIZE = 512

#: Disabled instrumentation may cost at most this share of the suite.
OVERHEAD_BOUND = 0.05

MICRO_ITERATIONS = 200_000


def _run_suite():
    results = {}
    start = time.perf_counter()
    for name in WORKLOADS:
        results[name] = auto_dse(getattr(polybench, name)(SIZE), options=DseOptions())
    return time.perf_counter() - start, results


def _disabled_cost_per_event():
    """Mean seconds per disabled span() + count() round trip."""
    assert not trace.enabled()
    span, count = trace.span, trace.count
    start = time.perf_counter()
    for _ in range(MICRO_ITERATIONS):
        with span("micro.bench", "bench"):
            count("micro.events")
    # One iteration is one span open/close *and* one counter bump: an
    # upper bound on any single instrumentation event's cost.
    return (time.perf_counter() - start) / MICRO_ITERATIONS


def _event_count(tracer):
    counters = tracer.metrics.counters
    histogram_samples = sum(h.count for h in tracer.metrics.histograms.values())
    return int(len(tracer.spans) + sum(counters.values()) + histogram_samples)


def test_disabled_instrumentation_is_near_free():
    per_event_s = _disabled_cost_per_event()
    untraced_s, untraced = _run_suite()
    with trace.tracing() as tracer:
        _, traced = _run_suite()

    # Tracing observes, never steers.
    for name in WORKLOADS:
        assert traced[name].report == untraced[name].report, name
        assert traced[name].tile_vectors() == untraced[name].tile_vectors(), name
        assert traced[name].evaluations == untraced[name].evaluations, name

    events = _event_count(tracer)
    overhead = events * per_event_s / untraced_s
    assert overhead < OVERHEAD_BOUND, (
        f"disabled instrumentation implies {100 * overhead:.2f}% "
        f"overhead ({events} events x {per_event_s * 1e9:.0f}ns "
        f"over {untraced_s:.2f}s)"
    )
