"""Op lists are a pure function of the seed, and stratified as promised."""

from collections import Counter

import pytest

import metrics
import oplist


@pytest.mark.parametrize("workload", oplist.WORKLOADS)
def test_equal_seeds_give_equal_ops_and_different_seeds_differ(workload):
    passes = oplist.PASSES[workload]
    first = oplist.generate(workload, 11, passes)
    assert first == oplist.generate(workload, 11, passes)
    assert first != oplist.generate(workload, 12, passes)
    assert first, "a workload with no ops measures nothing"


def test_uncached_workload_replays_the_cached_ops():
    cached = oplist.generate("kernel_dse", 5, 1)
    uncached = oplist.generate("kernel_dse_nocache", 5, 1)
    assert [op.input_key for op in cached] == [op.input_key for op in uncached]
    assert {op.kind for op in uncached} == {"dse_nocache"}


def test_every_pass_is_a_latin_pairing_and_three_cover_the_square():
    ops = oplist.generate("kernel_dse", 3, 3)
    per_pass = len(oplist.KERNELS) * len(oplist.SIZES)
    for start in range(0, len(ops), per_pass):
        one_pass = ops[start:start + per_pass]
        for kernel in oplist.KERNELS:
            mine = [op for op in one_pass if op.name == kernel]
            assert sorted(op.size for op in mine) == sorted(oplist.SIZES)
            assert sorted(op.fraction for op in mine) == sorted(oplist.FRACTIONS)
    assert len({op.input_key for op in ops}) == len(ops) == 162


def test_the_seed_changes_the_inputs_not_only_their_order():
    first = {op.input_key for op in oplist.generate("kernel_dse", 1, 2)}
    second = {op.input_key for op in oplist.generate("kernel_dse", 2, 2)}
    assert first != second


def test_one_serve_request_in_five_is_novel_and_repeats_follow_their_original():
    ops = oplist.generate("serve_mix", 9, oplist.PASSES["serve_mix"])
    assert sum(op.arg for op in ops) * oplist.SERVE_NOVEL_EVERY == len(ops)
    seen = set()
    for op in ops:
        if op.arg:
            assert op.input_key not in seen, "a novel request must be new"
            seen.add(op.input_key)
        else:
            assert op.input_key in seen, "a repeat must follow its original"


def test_fuzz_trials_come_from_the_closed_corpus_without_repeats():
    passes = oplist.PASSES["fuzz_verify"]
    ops = oplist.generate("fuzz_verify", 4, passes)
    assert set(Counter((op.name, op.size) for op in ops).values()) == {passes}
    assert len({(op.name, op.size, op.arg) for op in ops}) == len(ops)
    assert {op.arg for op in ops} <= set(range(oplist.FUZZ_CORPUS))
    other = oplist.generate("fuzz_verify", 5, passes)
    assert {(op.name, op.size, op.arg) for op in ops} != {(op.name, op.size, op.arg) for op in other}


def test_the_qor_baseline_covers_every_input_a_seed_can_draw():
    baseline = metrics.load_qor_baseline()
    drawable = {metrics.qor_key(op) for op in oplist.all_inputs()}
    assert drawable == set(baseline)
    for workload in oplist.WORKLOADS:
        for seed in (0, 1, 2):
            for op in oplist.generate(workload, seed, 3):
                assert metrics.qor_key(op) in baseline


def test_seconds_scale_the_pass_count():
    assert oplist.passes_for("kernel_dse", oplist.RUN_SECONDS) == oplist.PASSES["kernel_dse"]
    assert oplist.passes_for("kernel_dse", 2 * oplist.RUN_SECONDS) == 2 * oplist.PASSES["kernel_dse"]
    assert oplist.passes_for("dnn_dse", 1) == 1
