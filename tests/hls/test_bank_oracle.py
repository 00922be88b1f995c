"""Oracles for the estimator's memory-port model: bank pressure and II_mem.

The bank-pressure count has two enumerations -- plain integer columns
for small grids (and always under ``REPRO_ISL_REFERENCE=1``), numpy for
large ones -- that must count the same sets on every input a sweep
produces, under every partition kind.
"""

import pytest

from repro import workloads
from repro.dse import DseOptions, auto_dse
from repro.dse.evaluator import Evaluator
from repro.dsl.placeholder import PartitionScheme
from repro.hls import HlsEstimator
from repro.hls import estimator as estimator_mod
from repro.pipeline import lower_to_affine

KERNELS = [
    name for name in workloads.names(kind="function")
    if name not in workloads.suites()["dnn"]
]
KINDS = ("cyclic", "block", "complete")


@pytest.fixture(scope="module")
def recorded_calls():
    """Every distinct uncached bank-pressure call of a sweep of the
    registry kernels at sizes 16 and 32."""
    calls = {}
    uncached = HlsEstimator._bank_pressure_uncached

    def recording(self, array, index_lists, unrolled_dims, trips, scheme):
        key = (
            array.name, array.shape, tuple(tuple(i) for i in index_lists),
            tuple(unrolled_dims), tuple(sorted(trips.items())),
        )
        calls.setdefault(key, (array, [list(i) for i in index_lists],
                               list(unrolled_dims), dict(trips), scheme))
        return uncached(self, array, index_lists, unrolled_dims, trips, scheme)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HlsEstimator, "_bank_pressure_uncached", recording)
        for name in KERNELS:
            for size in (16, 32):
                auto_dse(workloads.get(name, size), options=DseOptions(resource_fraction=0.5))
    return list(calls.values())


def _schemes(array, recorded):
    """The recorded scheme, none, and each kind at the recorded factors
    (or 4 banks per dimension when the call had none)."""
    factors = recorded.factors if recorded is not None else tuple(
        min(4, extent) for extent in array.shape
    )
    return [recorded, None] + [PartitionScheme(factors, kind) for kind in KINDS]


def test_scalar_and_numpy_enumerations_agree(recorded_calls):
    compared = 0
    for array, index_lists, dims, trips, recorded in recorded_calls:
        copies = 1
        for dim in dims:
            copies *= max(1, trips.get(dim, 1))
        if not dims or copies > estimator_mod._ENUM_CAP:
            continue
        ranges = [range(max(1, trips.get(d, 1))) for d in dims]
        accesses = list(dict.fromkeys(tuple(i) for i in index_lists))
        for scheme in _schemes(array, recorded):
            scalar = estimator_mod._bank_pressure_scalar(array, accesses, dims, ranges, scheme)
            # The raw list too: deduping accesses must not change a count.
            numpy = estimator_mod._bank_pressure_vectorized(
                array, index_lists, dims, ranges, scheme
            )
            assert scalar == numpy, (array.name, index_lists, dims, trips, scheme)
            compared += 1
    assert compared > 1000


def _grid_designs(name, size, degrees=(1, 2, 4, 8, 16)):
    """Each unroll degree of ``name``'s nodes, installed and yielded."""
    function = workloads.get(name, size)
    evaluator = Evaluator(function)
    for degree in degrees:
        evaluator.install(evaluator.configs({node: degree for node in evaluator.nodes}), 128)
        yield function


def _memory_iis(report):
    return [loop.ii_breakdown["memory"] for loop in report.loops if loop.ii_breakdown]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["gemm", "jacobi-2d", "bicg", "seidel"])
def test_more_banks_never_raise_the_memory_ii(name, kind):
    """Doubling every factor refines each bank (power-of-two extents), so
    no bank gains an element and ``II_mem`` cannot rise."""
    for function in _grid_designs(name, 16):
        previous = None
        for banks in (1, 2, 4, 8, 16):
            for array in function.placeholders():
                array.partition([min(banks, extent) for extent in array.shape], kind)
            current = _memory_iis(HlsEstimator().estimate(lower_to_affine(function)))
            if previous is not None:
                assert len(current) == len(previous)
                assert all(now <= before for now, before in zip(current, previous)), (
                    name, kind, banks, previous, current,
                )
            previous = current


@pytest.mark.parametrize("name", ["gemm", "jacobi-2d", "seidel", "2mm"])
def test_the_reported_ii_is_the_max_of_its_breakdown(name):
    pipelined = 0
    for function in _grid_designs(name, 16):
        for loop in HlsEstimator().estimate(lower_to_affine(function)).loops:
            if loop.ii_breakdown:
                pipelined += 1
                assert loop.achieved_ii == max(loop.ii_breakdown.values())
    assert pipelined


def test_reports_are_equal_with_the_memos_on_and_off(monkeypatch):
    """One estimator reused across a grid, twice over (bank, recurrence
    and nest memos warm), against a fresh unmemoized estimator per
    design with the bank memo bypassed."""
    designs = []
    for name in ("gemm", "jacobi-2d", "3mm"):
        for function in _grid_designs(name, 16):
            for banks in (1, 4):
                for array in function.placeholders():
                    array.partition([min(banks, extent) for extent in array.shape])
                designs.append(lower_to_affine(function))
    shared = HlsEstimator()
    memoized = [shared.estimate(design) for design in designs + designs]
    assert shared._bank_memo and shared.nest_hits
    monkeypatch.setattr(HlsEstimator, "_bank_pressure", HlsEstimator._bank_pressure_uncached)
    fresh = [HlsEstimator(memoize_reports=False).estimate(design) for design in designs]
    assert memoized == fresh + fresh
