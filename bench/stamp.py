"""The machine stamp every result carries, and the results ledger."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Dict

import calibrate
import oplist
from paths import LEDGER_PATH, REPO_ROOT, RESULTS_DIR


def _git(*args: str) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", REPO_ROOT, *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_stamp(seed: int, seconds: float, smoke: bool) -> Dict[str, object]:
    """Everything needed to tell whether two results are comparable."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    # Not a git checkout (the driver's copy): commit reads "unknown".
    commit = _git("rev-parse", "HEAD")
    return {
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": commit or "unknown",
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if commit else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "pythonhashseed": "0",  # run.py starts every worker with it
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "passes": {
            name: 1 if smoke else oplist.passes_for(name, seconds) for name in oplist.WORKLOADS
        },
        "cal_ref_s": calibrate.CAL_REF_S,
    }


def append_ledger(row: Dict[str, object]) -> None:
    """One JSON line per benchmark set: the trajectory is a file."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(LEDGER_PATH, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
