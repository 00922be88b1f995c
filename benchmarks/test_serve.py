"""Benchmark: warm-store repeat requests vs. a cold serve-mode sweep.

Boots the compile server in-process, runs one cold ``dse`` job (worker
subprocess spawn + full sweep + store write), then measures the
repeat-request path: the same content-addressed request answered
straight from the store, no engine, no subprocess.  Records both wall
times to ``BENCH_serve.json`` at the repo root and asserts the warm hit
is real -- same design fingerprint, answered from cache, and at least
``WARM_SPEEDUP_BAR`` times faster than computing the design cold.
"""

import json
import threading
import time
from pathlib import Path

from repro.serve import ReproServer, ServeClient, ServeConfig
from repro.util import atomic_write

WORKLOAD = "gemm"
WARM_SPEEDUP_BAR = 5.0
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def test_warm_store_repeat_request_latency(tmp_path, polybench_size, benchmark):
    config = ServeConfig(
        port=0, state_dir=str(tmp_path / "state"), workers=2
    )
    server = ReproServer(config)
    port = server.start()
    threading.Thread(target=server._httpd.serve_forever, daemon=True).start()
    client = ServeClient(f"http://127.0.0.1:{port}", timeout_s=120.0)
    try:
        t0 = time.perf_counter()
        cold = client.run(
            kind="dse", workload=WORKLOAD, size=polybench_size, timeout_s=300
        )
        cold_s = time.perf_counter() - t0
        assert cold["status"] == "done"
        assert not cold.get("cached")

        state = {}

        def warm_request():
            t0 = time.perf_counter()
            state["warm"] = client.run(
                kind="dse", workload=WORKLOAD, size=polybench_size,
                timeout_s=60,
            )
            state["warm_s"] = time.perf_counter() - t0

        benchmark(warm_request)
        warm = state["warm"]
        warm_s = state["warm_s"]

        assert warm["cached"] is True, "repeat request must hit the store"
        assert warm["result"]["design"] == cold["result"]["design"]

        stats = client.status()["store"]
        ratio = cold_s / warm_s
        payload = {
            "workload": WORKLOAD,
            "size": polybench_size,
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 6),
            "speedup": round(ratio, 1),
            "store": stats,
        }
        atomic_write(RESULT_PATH, json.dumps(payload, indent=2) + "\n")
        benchmark.extra_info.update(payload)
        assert ratio >= WARM_SPEEDUP_BAR, (
            f"warm hit only {ratio:.1f}x faster than cold "
            f"({warm_s:.4f}s vs {cold_s:.4f}s)"
        )
    finally:
        client.close()
        server.shutdown()
