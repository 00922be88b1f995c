"""Benchmark: vectorized isl kernels vs. the pure-Python reference path.

Times the raw substrate kernels that PR "trace-driven raw-speed push"
vectorized -- Fourier-Motzkin elimination (:func:`repro.isl.matrix.
eliminate`) and ``count_points`` -- against the reference
implementations that ``REPRO_ISL_REFERENCE=1`` pins, then records the
before/after numbers to ``BENCH_isl.json`` at the repo root.

Every section first asserts bit-identity between the two paths (the
reference path is a differential oracle, never a behaviour switch) and
only then asserts the speed bar: >= 5x on the FM elimination
microbenchmark and a never-slower floor on point counting.  A final
end-to-end section re-runs one ``auto_dse`` workload in both modes to
show the kernels compose into a wall-clock win outside
microbenchmarks.
"""

import json
import time
from pathlib import Path

import pytest

from repro.dse import auto_dse
from repro.dse.options import DseOptions
from repro.isl import intern as _intern
from repro.isl import matrix as _matrix
from repro.isl import memo as _isl_memo
from repro.isl import sets as _sets
from repro.isl.affine import AffineExpr
from repro.isl.constraint import Constraint
from repro.isl.sets import BasicSet
from repro.util import atomic_write
from repro.workloads import polybench

FM_BAR = 5.0
#: Point counting must never regress below the reference path; the
#: floor is deliberately lower than the measured ratio for CI slack.
COUNT_FLOOR = 2.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_isl.json"


def _best_time(fn, repeats=5, number=1):
    """Best-of-``repeats`` mean seconds per call over ``number`` calls."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = (time.perf_counter() - start) / number
        if best is None or elapsed < best:
            best = elapsed
    return best


def _structured_system(tiles, extent=4096):
    """A tiled/skewed-style constraint system with no unit-EQ pivot.

    Mimics what repeated ``intersect`` + ``project_onto`` chains over
    tiled schedules produce: box bounds on each dim plus ``tiles``
    bands of skewed inequalities coupling the dims.  Eliminating ``k``
    exercises the positives x negatives pair combination, the dominant
    cost in the profile.
    """
    cons = []
    for d in ("i", "j", "k"):
        cons.append(Constraint.ge(AffineExpr({d: 1})))
        cons.append(Constraint.ge(AffineExpr({d: -1}, extent - 1)))
    for t in range(tiles):
        cons.append(Constraint.ge(AffineExpr({"k": 1, "i": -1}, 32 * t)))
        cons.append(Constraint.ge(AffineExpr({"k": -1, "j": 1}, 32 * t + 31)))
        cons.append(Constraint.ge(AffineExpr({"k": 2, "i": 1, "j": -1}, 7 * t + 3)))
        cons.append(Constraint.ge(AffineExpr({"k": -3, "i": 2, "j": 1}, 96 * t + 5)))
    return cons


def _bench_fm():
    rows = {}
    for tiles in (16, 36, 72):
        cons = _structured_system(tiles)
        # Warm the intern tables and prove bit-identity (order included)
        # before timing anything.
        reference = _sets._eliminate_reference(cons, "k")
        vectorized = _matrix.eliminate(cons, "k")
        assert vectorized == reference
        ref_s = _best_time(lambda: _sets._eliminate_reference(cons, "k"), repeats=3)
        vec_s = _best_time(lambda: _matrix.eliminate(cons, "k"), repeats=3)
        rows[len(cons)] = {
            "constraints": len(cons),
            "reference_s": round(ref_s, 6),
            "vectorized_s": round(vec_s, 6),
            "speedup": round(ref_s / vec_s, 2),
        }
    return rows


def _bench_count_points():
    extent = 224
    cons = []
    for d in ("i", "j"):
        cons.append(Constraint.ge(AffineExpr({d: 1})))
        cons.append(Constraint.ge(AffineExpr({d: -1}, extent - 1)))
    cons.append(Constraint.ge(AffineExpr({"i": 1, "j": -1}, 16)))
    cons.append(Constraint.ge(AffineExpr({"i": -2, "j": 3}, extent)))
    box = BasicSet(["i", "j"], cons)

    _intern.set_reference_mode(True)
    try:
        expected = box.count_points()
        ref_s = _best_time(lambda: box.count_points(), repeats=3)
    finally:
        _intern.set_reference_mode(False)
    assert box.count_points() == expected
    vec_s = _best_time(lambda: box.count_points(), repeats=3)
    return {
        "candidates": extent * extent,
        "points": expected,
        "reference_s": round(ref_s, 6),
        "vectorized_s": round(vec_s, 6),
        "speedup": round(ref_s / vec_s, 2),
    }


def _dse_fingerprint(result):
    return (result.report, result.tile_vectors(), result.evaluations)


def _bench_end_to_end(size):
    # bicg leans hardest on the vectorized substrate (bank-pressure
    # enumeration dominates its estimate), making it the clearest
    # single-workload end-to-end signal; the full-suite picture lives
    # in BENCH_dse.json.
    function = polybench.bicg(size)

    def run():
        best = None
        result = None
        for _ in range(2):
            _isl_memo.clear_all()
            start = time.perf_counter()
            result = auto_dse(function, options=DseOptions(cache=False))
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        return best, result

    _intern.set_reference_mode(True)
    try:
        ref_s, ref_result = run()
    finally:
        _intern.set_reference_mode(False)
    fast_s, fast_result = run()
    assert _dse_fingerprint(fast_result) == _dse_fingerprint(ref_result)
    return {
        "workload": "bicg",
        "size": size,
        "cache": False,
        "reference_s": round(ref_s, 4),
        "optimized_s": round(fast_s, 4),
        "speedup": round(ref_s / fast_s, 2),
    }


@pytest.mark.perfsmoke
def test_isl_kernel_speedups(polybench_size, benchmark):
    state = {}

    def run_all():
        state["fm"] = _bench_fm()
        state["count"] = _bench_count_points()
        state["end_to_end"] = _bench_end_to_end(polybench_size)

    benchmark(run_all)

    fm = state["fm"]
    fm_largest = fm[max(fm)]
    payload = {
        "kernels": {
            "fm_elimination": {
                "asserted_min": FM_BAR,
                "rows": list(fm.values()),
            },
            "count_points": dict(state["count"], asserted_min=COUNT_FLOOR),
        },
        "end_to_end": state["end_to_end"],
    }
    atomic_write(RESULT_PATH, json.dumps(payload, indent=2) + "\n")
    benchmark.extra_info.update(payload)

    assert fm_largest["speedup"] >= FM_BAR, (
        f"vectorized FM elimination {fm_largest['speedup']}x below the "
        f"{FM_BAR}x bar at n={fm_largest['constraints']}"
    )
    assert state["count"]["speedup"] >= COUNT_FLOOR
    assert state["end_to_end"]["speedup"] >= 1.0, (
        "optimized end-to-end DSE slower than the reference path: "
        f"{state['end_to_end']}"
    )
