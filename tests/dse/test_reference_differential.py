"""Differential suite: optimized isl substrate vs ``REPRO_ISL_REFERENCE=1``.

The optimized kernels (hash-consed atoms, vectorized point/bank
enumeration, the AST-build and dependence shortcuts) promise
*bit identity* with the pure-Python reference path -- same reports,
same schedules, same tile vectors, same evaluation counts -- across
every sweep mode the DSE engine supports: cached, uncached,
``repro dse --all`` and fault-injected.  This suite runs each mode both
ways and compares.
"""

import re

import pytest

from repro import workloads
from repro.affine.printer import print_func
from repro.cli import ALL_WORKLOADS, main
from repro.dse import auto_dse, engine
from repro.dse.options import DseOptions
from repro.faults import Fault, FaultPlan
from repro.isl import intern as _intern
from repro.isl import memo as _memo
from repro.pipeline import compile_to_hls_c
from repro.workloads import polybench

#: ``jacobi-2d``, ``blur`` and ``seidel`` split by factors that do not
#: divide their extents or skew: where the AST build's shortcuts hand
#: over to Fourier-Motzkin.  ``resnet18`` spends its sweep in dependence
#: analysis, where witness pairs stand in for Fourier-Motzkin.
WORKLOADS = (
    "gemm", "bicg", "mm2", "mm3", "gesummv", "jacobi-2d", "blur", "seidel", "resnet18",
)
SIZE = 16
#: DNN layers keep their channel counts at every size: the smallest one.
SIZES = {"resnet18": 4}
#: An uncached DNN sweep in reference mode takes ~25 s: the perfsmoke job's.
UNCACHED = [
    pytest.param(name, marks=pytest.mark.perfsmoke) if name in SIZES else name
    for name in WORKLOADS
]


def _build(name):
    size = SIZES.get(name, SIZE)
    factory = getattr(polybench, name, None)
    return factory(size) if factory else workloads.get(name, size)


def _fingerprint(result):
    """Taken inside the mode that produced ``result``: the printed
    affine IR and the emitted C are lowered here, under that mode."""
    function = getattr(result, "function", None)
    return (
        print_func(function.lower()) if function is not None else None,
        compile_to_hls_c(function) if function is not None else None,
        result.report,
        result.tile_vectors(),
        result.evaluations,
        [d.fingerprint() for d in result.schedule],
        [
            (q.parallelism, q.bank_cap, q.diagnostic.code)
            for q in result.quarantine
        ],
    )


def _both_modes(run, monkeypatch):
    """``(fast, reference)`` results of ``run()`` under each mode."""
    _memo.clear_all()
    was_reference = _intern.set_reference_mode(False)
    try:
        fast = run()
        monkeypatch.setenv("REPRO_ISL_REFERENCE", "1")
        _intern.set_reference_mode(True)
        _memo.clear_all()  # no cross-mode cache reuse: recompute honestly
        reference = run()
    finally:
        _intern.set_reference_mode(was_reference)
    return fast, reference


class TestSingleRunModes:
    @pytest.mark.parametrize("name", UNCACHED)
    def test_uncached(self, name, monkeypatch):
        fast, reference = _both_modes(
            lambda: _fingerprint(auto_dse(_build(name), options=DseOptions(cache=False))),
            monkeypatch,
        )
        assert fast == reference

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_cached(self, name, monkeypatch):
        fast, reference = _both_modes(
            lambda: _fingerprint(auto_dse(_build(name), options=DseOptions(cache=True))),
            monkeypatch,
        )
        assert fast == reference


class TestAllWorkloadsMode:
    def test_dse_all(self, monkeypatch, capsys):
        real = engine.auto_dse

        def run():
            fingerprints = []

            def recording(function, options=None):
                result = real(function, options=options)
                fingerprints.append(_fingerprint(result))
                return result

            monkeypatch.setattr(engine, "auto_dse", recording)
            assert main(["dse", "--all", "--size", str(SIZE)]) == 0
            monkeypatch.setattr(engine, "auto_dse", real)
            # One line per workload, timing masked, and each design whole.
            out = re.sub(r"in \d+\.\d+s", "in <t>s", capsys.readouterr().out)
            return out, fingerprints

        fast, reference = _both_modes(run, monkeypatch)
        assert len(fast[1]) == len(ALL_WORKLOADS)
        assert fast == reference


class TestFaultInjectedMode:
    @pytest.mark.resilience
    def test_transient_faults(self, monkeypatch):
        def run():
            plan = FaultPlan([Fault("transient", 2, count=2)])
            result = auto_dse(
                polybench.gemm(SIZE), options=DseOptions(fault_plan=plan)
            )
            return _fingerprint(result)

        fast, reference = _both_modes(run, monkeypatch)
        assert fast == reference
