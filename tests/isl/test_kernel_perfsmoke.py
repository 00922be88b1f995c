"""The vectorized isl kernels pay for themselves, and compose into a win.

Two ratio bounds on the fast substrate against the pure-Python paths
that ``REPRO_ISL_REFERENCE=1`` pins.  Each first checks that both modes
give the same answer, then times them; nothing is written to disk.
"""

import time

import pytest

from repro.dse import auto_dse
from repro.dse.options import DseOptions
from repro.isl import intern as _intern
from repro.isl import memo as _isl_memo
from repro.isl.affine import AffineExpr
from repro.isl.constraint import Constraint
from repro.isl.sets import BasicSet
from repro.workloads import polybench

pytestmark = pytest.mark.perfsmoke

#: Vectorized point counting must be at least this much faster than the
#: reference loop; deliberately far below the measured ratio.
COUNT_FLOOR = 2.0


def _best_time(fn, repeats):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _in_mode(reference, fn):
    previous = _intern.set_reference_mode(reference)
    try:
        return fn()
    finally:
        _intern.set_reference_mode(previous)


def test_count_points_beats_the_reference_loop():
    extent = 224
    cons = []
    for d in ("i", "j"):
        cons.append(Constraint.ge(AffineExpr({d: 1})))
        cons.append(Constraint.ge(AffineExpr({d: -1}, extent - 1)))
    cons.append(Constraint.ge(AffineExpr({"i": 1, "j": -1}, 16)))
    cons.append(Constraint.ge(AffineExpr({"i": -2, "j": 3}, extent)))
    box = BasicSet(["i", "j"], cons)

    assert _in_mode(False, box.count_points) == _in_mode(True, box.count_points)
    ref_s = _in_mode(True, lambda: _best_time(box.count_points, repeats=3))
    vec_s = _in_mode(False, lambda: _best_time(box.count_points, repeats=3))
    assert ref_s / vec_s >= COUNT_FLOOR, (ref_s, vec_s)


def test_uncached_sweep_is_no_slower_than_reference():
    # bicg leans hardest on the vectorized substrate: bank-pressure
    # enumeration dominates its estimate.
    function = polybench.bicg(512)

    def sweep():
        best = result = None
        for _ in range(2):
            _isl_memo.clear_all()
            start = time.perf_counter()
            result = auto_dse(function, options=DseOptions(cache=False))
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        return best, result

    ref_s, ref_result = _in_mode(True, sweep)
    fast_s, fast_result = _in_mode(False, sweep)
    assert (fast_result.report, fast_result.tile_vectors(), fast_result.evaluations) == (
        ref_result.report, ref_result.tile_vectors(), ref_result.evaluations
    )
    assert fast_s <= ref_s, (
        f"optimized uncached sweep {fast_s:.4f}s slower than the reference "
        f"path {ref_s:.4f}s"
    )
