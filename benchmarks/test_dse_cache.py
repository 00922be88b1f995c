"""Benchmark: DSE wall time with the memoized evaluation engine.

Runs the Table III suite through ``auto_dse`` twice -- once with every
caching layer disabled, once with the memoized engine -- verifies the
two searches return bit-identical designs, and records the before/after
wall time to ``BENCH_dse.json`` at the repo root.  The acceptance bar
is a >= 2x suite-wide wall-time reduction at the default benchmark
size.
"""

import json
import time
from pathlib import Path

from repro.dse import auto_dse
from repro.util import atomic_write
from repro.workloads import polybench
from repro.dse.options import DseOptions

WORKLOADS = ["gemm", "bicg", "mm2", "mm3", "gesummv"]

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dse.json"


def _run_suite(size, cache):
    per_workload = {}
    results = {}
    for name in WORKLOADS:
        function = getattr(polybench, name)(size)
        start = time.perf_counter()
        results[name] = auto_dse(function, options=DseOptions(cache=cache))
        per_workload[name] = time.perf_counter() - start
    return per_workload, results


def test_dse_cache_speedup(polybench_size, benchmark):
    uncached_times, uncached = _run_suite(polybench_size, cache=False)

    cached_results = {}
    cached_times = {}

    def run_cached():
        times, results = _run_suite(polybench_size, cache=True)
        cached_times.clear()
        cached_times.update(times)
        cached_results.clear()
        cached_results.update(results)

    benchmark(run_cached)

    for name in WORKLOADS:
        assert cached_results[name].report == uncached[name].report, name
        assert cached_results[name].tile_vectors() == uncached[name].tile_vectors(), name
        assert cached_results[name].evaluations == uncached[name].evaluations, name

    uncached_s = sum(uncached_times.values())
    cached_s = sum(cached_times.values())
    ratio = uncached_s / cached_s
    payload = {
        "size": polybench_size,
        "uncached_s": round(uncached_s, 4),
        "cached_s": round(cached_s, 4),
        "speedup": round(ratio, 2),
        "per_workload": {
            name: {
                "uncached_s": round(uncached_times[name], 4),
                "cached_s": round(cached_times[name], 4),
                "evaluations": uncached[name].evaluations,
            }
            for name in WORKLOADS
        },
    }
    atomic_write(RESULT_PATH, json.dumps(payload, indent=2) + "\n")
    benchmark.extra_info.update(payload)
    assert ratio >= 2.0, f"cache speedup {ratio:.2f}x below the 2x bar"
