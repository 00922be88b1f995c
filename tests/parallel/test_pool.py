"""The process-pool substrate: ordered results, error/crash surfacing."""

import os
import time

import pytest

from repro.util.pool import TaskOutcome, run_ordered

pytestmark = pytest.mark.parallel


def _double(x):
    return x * 2


def _sleep_then_echo(payload):
    index, delay = payload
    time.sleep(delay)
    return index


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _die_on_two(x):
    if x == 2:
        os._exit(3)
    return x


def test_run_ordered_returns_results_in_payload_order():
    # The first task sleeps longest: completion order is the reverse of
    # submission order, but the merge must not care.
    payloads = [(0, 0.15), (1, 0.05), (2, 0.0)]
    outcomes = run_ordered(_sleep_then_echo, payloads, jobs=3)
    assert [o.index for o in outcomes] == [0, 1, 2]
    assert [o.value for o in outcomes] == [0, 1, 2]
    assert all(o.ok for o in outcomes)


def test_run_ordered_bounded_concurrency_completes_everything():
    outcomes = run_ordered(_double, list(range(7)), jobs=2)
    assert [o.value for o in outcomes] == [0, 2, 4, 6, 8, 10, 12]


def test_run_ordered_captures_task_exceptions():
    outcomes = run_ordered(_fail_on_three, [1, 3, 5], jobs=2)
    assert outcomes[0].ok and outcomes[2].ok
    assert not outcomes[1].ok
    assert not outcomes[1].crashed
    assert "ValueError" in outcomes[1].error
    assert "three is right out" in outcomes[1].error


def test_run_ordered_detects_a_dead_worker_as_a_crash():
    outcomes = run_ordered(_die_on_two, [1, 2, 4], jobs=2)
    assert outcomes[0].value == 1
    assert outcomes[2].value == 4
    crashed = outcomes[1]
    assert crashed.crashed and not crashed.ok
    assert "died" in crashed.error
    assert "3" in crashed.error  # the exit code is reported


def test_run_ordered_rejects_bad_jobs():
    with pytest.raises(ValueError):
        run_ordered(_double, [1], jobs=0)


def test_task_outcome_ok_semantics():
    assert TaskOutcome(0, value=1).ok
    assert not TaskOutcome(0, error="boom").ok
    assert not TaskOutcome(0, error="died", crashed=True).ok
