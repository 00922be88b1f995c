"""Profile pass: ``cProfile`` around each op, summed by package.

``tottime`` and call counts are charged to the top-level package of each
function's file; a built-in has no file, so it is charged to its callers
through the pstats caller edges (a ``dict.get`` called from
``repro/isl`` is isl work).  With ``PYTHONHASHSEED=0`` the call counts of
a fixed op list repeat exactly between runs of one commit, which makes
them the low-noise backbone that wall times are not.

(Named ``profiler`` because a ``profile.py`` here would shadow the
stdlib module ``cProfile`` itself imports.)
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import sysconfig
from collections import defaultdict
from typing import Dict, Tuple

#: The packages reported, in README order; anything else under ``repro``
#: (pipeline, workloads, diagnostics, ...) and the harness land in "other".
PACKAGES = (
    "dsl", "depgraph", "polyir", "isl", "affine", "hls", "hlsgen", "dse",
    "dataflow", "serve", "fuzz", "trace", "util", "numpy", "stdlib", "other",
)

_STDLIB = os.path.realpath(sysconfig.get_paths()["stdlib"]) + os.sep
_SEP = os.sep


def package_of(filename: str) -> str:
    """The reporting bucket for a code object's file ('' for built-ins)."""
    if filename.startswith("~") or not filename:
        return ""
    marker = f"{_SEP}repro{_SEP}"
    if marker in filename:
        head = filename.rsplit(marker, 1)[1].split(_SEP, 1)[0]
        return head if head in PACKAGES else "other"
    if filename.startswith("<repro."):  # code the program compiled: <repro.isl.evalc trip>
        head = filename[len("<repro."):].split(".", 1)[0].split(" ", 1)[0].rstrip(">")
        return head if head in PACKAGES else "other"
    if f"{_SEP}numpy{_SEP}" in filename:
        return "numpy"
    if filename.startswith("<"):  # <string>, <frozen importlib._bootstrap>, ...
        return "stdlib"
    if os.path.realpath(filename).startswith(_STDLIB) and "site-packages" not in filename:
        return "stdlib"
    return "other"


class PackageProfile:
    """A ``cProfile`` switched on around each op only, so the harness's
    own work (calibration above all) is neither counted nor slowed."""

    def __init__(self):
        self._profile = cProfile.Profile()

    def start(self, op_index: int) -> None:
        # Start every op from the same collector state; otherwise when a
        # collection (and the finalizers it calls) lands depends on how
        # many calibration samples the clock happened to allow before it.
        gc.collect()
        self._profile.enable()

    def stop(self) -> None:
        self._profile.disable()

    def by_package(self) -> Tuple[Dict[str, Dict[str, float]], int]:
        """``({package: {"self_s", "calls"}}, total calls)``."""
        return _by_package(pstats.Stats(self._profile).stats)


def _by_package(stats) -> Tuple[Dict[str, Dict[str, float]], int]:
    # stats: func -> (primitive calls, calls, tottime, cumtime, callers)
    shares_memo: Dict[tuple, Dict[str, float]] = {}

    def caller_shares(func, trail=()) -> Dict[str, float]:
        """How a built-in's cost splits over packages, by its callers' calls."""
        if func in shares_memo:
            return shares_memo[func]
        package = package_of(func[0])
        if package:
            return {package: 1.0}
        callers = stats[func][4] if func in stats else {}
        weights: Dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            if caller in trail:
                continue
            calls = edge[0]
            for name, share in caller_shares(caller, trail + (func,)).items():
                weights[name] += calls * share
        total = sum(weights.values())
        shares = (
            {name: weight / total for name, weight in weights.items()}
            if total else {"other": 1.0}
        )
        if not trail:
            shares_memo[func] = shares
        return shares

    table = {name: {"self_s": 0.0, "calls": 0.0} for name in PACKAGES}
    total_calls = 0
    for func, (_, calls, self_s, _, _) in stats.items():
        total_calls += calls
        for name, share in caller_shares(func).items():
            table[name]["self_s"] += self_s * share
            table[name]["calls"] += calls * share
    return table, total_calls
