"""The committed design digests hold on the tree (see ``designs.py``).

Tier-1 checks the cached kernel sweeps, the dataflow designs and the
ScaleHLS baseline at the smallest size (~9 s);
``python tests/golden/designs.py`` checks every row, in CI once per isl
mode.
"""

from tests.golden import designs


def test_the_file_lists_every_input_and_the_fuzz_digest():
    recorded = designs.load()
    assert list(recorded) == sorted(
        [item.key for item in designs.inputs()] + [designs.FUZZ_KEY]
    )
    assert len(recorded) == 2 * 162 + 6 + 63 + 18 + 162 + 18 + 1


def test_kernel_and_dataflow_designs_match_the_record():
    fresh = designs.compute(designs.inputs(["dse", "dataflow"]), fuzz=False)
    assert len(fresh) == 162 + 18
    assert designs.differences(designs.load(), fresh) == []


def test_scalehls_designs_at_the_smallest_size_match_the_record():
    items = [item for item in designs.inputs(["scalehls", "scalehls_dataflow"])
             if item.size == designs.SIZES[0]]
    fresh = designs.compute(items, fuzz=False)
    assert len(fresh) == 54 + 18
    assert designs.differences(designs.load(), fresh) == []


def test_a_changed_row_is_named():
    recorded = {"dse:gemm@256@1": {"total_cycles": 10}}
    fresh = {"dse:gemm@256@1": {"total_cycles": 11}}
    assert designs.differences(recorded, fresh) == [
        'dse:gemm@256@1: {"total_cycles": 10} -> {"total_cycles": 11}'
    ]
