"""Where the benchmark's files live (everything stays inside the checkout)."""

import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
BENCHMARK_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")
QOR_BASELINE_PATH = os.path.join(BENCH_DIR, "qor_baseline.json")
#: Span traces of the last traced run, and the ledger (tracked).
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
LEDGER_PATH = os.path.join(RESULTS_DIR, "history.jsonl")
#: Serve state directories of a run (git-ignored, removed on close).
STATE_ROOT = os.path.join(BENCH_DIR, ".state")
