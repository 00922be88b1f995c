"""Warm-store repeat requests vs. a cold serve-mode sweep.

Boots the compile server in-process, runs one cold ``dse`` job (worker
subprocess spawn + full sweep + store write), then times the
repeat-request path: the same content-addressed request answered
straight from the store, no engine, no subprocess.  The warm hit must
be real -- same design, answered from cache, and at least
``WARM_SPEEDUP_BAR`` times faster than computing the design cold.
"""

import time

import pytest

pytestmark = pytest.mark.serve

WORKLOAD = "gemm"
SIZE = 512
WARM_SPEEDUP_BAR = 5.0


def _timed_run(client, **request):
    start = time.perf_counter()
    record = client.run(kind="dse", workload=WORKLOAD, size=SIZE, **request)
    return record, time.perf_counter() - start


@pytest.mark.perfsmoke
def test_perfsmoke_warm_store_hit_beats_a_cold_sweep(serve_factory):
    _, client = serve_factory(workers=2)
    cold, cold_s = _timed_run(client, timeout_s=300)
    assert cold["status"] == "done"
    assert not cold.get("cached")

    warm, warm_s = _timed_run(client, timeout_s=60)
    assert warm["cached"] is True, "repeat request must hit the store"
    assert warm["result"]["design"] == cold["result"]["design"]
    ratio = cold_s / warm_s
    assert ratio >= WARM_SPEEDUP_BAR, (
        f"warm hit only {ratio:.1f}x faster than cold "
        f"({warm_s:.4f}s vs {cold_s:.4f}s)"
    )
