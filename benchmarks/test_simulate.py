"""Benchmark: compiled numpy simulation vs. the tree-walking interpreter.

Times :func:`repro.affine.compile.simulate` against
:func:`repro.affine.interp.interpret` on gemm (the dense workload whose
large sizes motivated the compiler).  Bit-identity is asserted before
any timing -- the compiled path is an accelerated oracle, never an
approximation -- and the large-size speedup carries a hard >= 50x bar
(measured ~600x; the slack absorbs CI machine variance).
"""

import time

import numpy as np
import pytest

from repro.affine import compile_func, interpret, simulate
from repro.workloads import polybench

#: Hard floor for the large-gemm compiled-vs-interpreted speedup.
SPEEDUP_BAR = 50.0


def _best_time(fn, repeats):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _bench_gemm(size, interp_repeats, sim_repeats):
    function = polybench.gemm(size)
    func = function.lower()

    # Bit-identity first: every array equal to the last bit.
    interpreted = function.allocate_arrays(seed=0)
    interpret(func, interpreted)
    simulated = function.allocate_arrays(seed=0)
    simulate(func, simulated)
    for name in interpreted:
        assert np.array_equal(interpreted[name], simulated[name]), name

    kernel = compile_func(func)
    fresh = function.allocate_arrays(seed=0)
    interp_s = _best_time(lambda: interpret(func, fresh), repeats=interp_repeats)
    sim_s = _best_time(lambda: simulate(func, fresh), repeats=sim_repeats)
    return {
        "workload": "gemm",
        "size": size,
        "interpreted_s": round(interp_s, 4),
        "compiled_s": round(sim_s, 6),
        "speedup": round(interp_s / sim_s, 1),
        "kernel": kernel.stats.as_dict(),
    }


@pytest.mark.perfsmoke
def test_compiled_sim_speedup():
    # The interpreter pass dominates; one repeat keeps the large size
    # affordable while the compiled side gets best-of-5.
    large = _bench_gemm(96, interp_repeats=1, sim_repeats=5)
    _bench_gemm(32, interp_repeats=2, sim_repeats=5)  # bit-identity at a second size
    assert large["kernel"]["fallback"] is None
    assert large["kernel"]["vector_nests"] >= 1
    assert large["speedup"] >= SPEEDUP_BAR, (
        f"compiled gemm-96 simulation {large['speedup']}x below the "
        f"{SPEEDUP_BAR}x bar"
    )
