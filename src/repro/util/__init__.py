"""Small cross-cutting utilities: atomic writes, deadlines, process pools.

These live below every other layer of the framework (they import nothing
from :mod:`repro`), so the isl kernels, the lowering pipeline, and the
DSE engine can all depend on them without cycles.
"""

from repro.util.atomic import atomic_write
from repro.util.deadline import (
    Deadline,
    DeadlineExceeded,
    checkpoint,
    deadline_scope,
)
from repro.util.pool import TaskOutcome, available_jobs, run_ordered

__all__ = [
    "atomic_write",
    "Deadline",
    "DeadlineExceeded",
    "checkpoint",
    "deadline_scope",
    "TaskOutcome",
    "available_jobs",
    "run_ordered",
]
