"""Self-tests of the benchmark harness: ``python -m pytest bench/tests -q``.

Outside tier-1's ``testpaths`` on purpose: they test the ruler, not the
program.  The harness modules are plain scripts' siblings (``run.py`` is
started as a script), so they are imported from ``bench/`` directly.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)

for path in (BENCH_DIR, os.path.join(REPO_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
