"""Process-per-task execution for the DSE parallel layer.

One shape of parallelism: :func:`run_ordered` runs one process per task
with bounded concurrency.  Results come back *in task order* regardless
of completion order, and a worker that dies without reporting (a real
``SIGKILL``, an injected :class:`~repro.faults.InjectedCrash`) is
detected and surfaced as a ``crashed`` outcome instead of hanging the
driver.  Each task is one full DSE sweep, one evaluation experiment or
one fuzz wave, isolated in its own process so a crash loses exactly one
task (whose checkpoint journal makes the retry cheap).  Nothing finer
grained is parallelised: a single sweep is tens of milliseconds, less
than a process start-up (``docs/performance.md``).

The ``fork`` start method is preferred (cheap, inherits the parent's
loaded workload registry); ``spawn`` is the fallback where ``fork`` is
unavailable.  Like every utility in :mod:`repro.util`, this module
imports nothing from the rest of :mod:`repro`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as _queue
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence


# How long the driver blocks on the result queue before checking for
# workers that died without reporting.
_POLL_S = 0.02


def available_jobs() -> int:
    """The number of CPUs this process may actually run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class TaskOutcome:
    """What happened to one :func:`run_ordered` task.

    Exactly one of the three terminal states holds: ``value`` is set
    (success), ``error`` names an exception the task raised, or
    ``crashed`` is True -- the worker process died without reporting
    (``error`` then carries the exit code).
    """

    index: int
    value: Any = None
    error: Optional[str] = None
    crashed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.crashed


def _task_main(fn, index, payload, result_queue) -> None:
    """Worker entry: report success or a caught exception.

    ``BaseException`` (``KeyboardInterrupt``, an injected crash) is
    deliberately *not* caught -- the process dies with a nonzero exit
    code and the driver records the task as crashed, exactly as it
    would for a real ``SIGKILL``.
    """
    try:
        result_queue.put((index, True, fn(payload)))
    except Exception as exc:
        result_queue.put((index, False, _describe(exc)))


def run_ordered(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: int,
) -> List[TaskOutcome]:
    """Run ``fn`` over ``payloads`` in worker processes, ``jobs`` at a time.

    Returns one :class:`TaskOutcome` per payload *in payload order* --
    the merge is deterministic no matter which worker finished first.
    ``fn`` and every payload must be picklable under the ``spawn`` start
    method; under ``fork`` they only need to be inheritable.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ctx = _context()
    result_queue = ctx.Queue()
    outcomes: List[Optional[TaskOutcome]] = [None] * len(payloads)
    pending = deque(range(len(payloads)))
    running: Dict[int, Any] = {}

    def drain(timeout: float) -> bool:
        try:
            index, ok, payload = result_queue.get(timeout=timeout)
        except _queue.Empty:
            return False
        outcomes[index] = (
            TaskOutcome(index, value=payload)
            if ok
            else TaskOutcome(index, error=payload)
        )
        proc = running.pop(index, None)
        if proc is not None:
            proc.join()
        return True

    try:
        while pending or running:
            while pending and len(running) < jobs:
                index = pending.popleft()
                proc = ctx.Process(
                    target=_task_main,
                    args=(fn, index, payloads[index], result_queue),
                )
                proc.start()
                running[index] = proc
            if drain(_POLL_S):
                continue
            for index, proc in list(running.items()):
                if proc.is_alive() or outcomes[index] is not None:
                    continue
                # The process is dead with no result seen yet; give an
                # in-flight queue item one last chance before declaring
                # a crash (the feeder thread may still be flushing).
                if drain(0.25):
                    break
                proc.join()
                running.pop(index)
                outcomes[index] = TaskOutcome(
                    index,
                    error=f"worker process died (exit code {proc.exitcode})",
                    crashed=True,
                )
    finally:
        for proc in running.values():
            proc.terminate()
        for proc in running.values():
            proc.join()
    return [outcome for outcome in outcomes if outcome is not None]
