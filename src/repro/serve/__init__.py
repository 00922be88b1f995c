"""DSE-as-a-service: a fault-isolated persistent compile server.

``repro serve`` boots a local HTTP+JSON daemon that accepts DSE /
verify / trace / fuzz jobs, executes each in a sandboxed worker
subprocess under its own :class:`~repro.session.SessionContext`,
and answers repeat requests from a crash-safe content-addressed result
store.  See ``docs/serving.md`` for the API and lifecycle contract.

Layering (each module depends only on those above it; a job's
isolation is :class:`repro.session.SessionContext`, re-exported here):

* :mod:`repro.serve.jobs` -- job specs, validation, canonical cache
  keys, and the in-worker execution of each job kind;
* :mod:`repro.serve.store` -- the append-only content-addressed result
  store plus the job ledger that makes restarts resumable;
* :mod:`repro.serve.executor` -- subprocess sandboxing, the bounded
  admission queue, timeouts, retry-with-backoff, drain;
* :mod:`repro.serve.server` -- the HTTP surface and signal lifecycle;
* :mod:`repro.serve.client` -- a stdlib-only client for tests/CLI.
"""

from repro.serve.client import ServeClient, ServerError
from repro.serve.executor import Draining, JobExecutor, QueueFull
from repro.serve.jobs import JOB_KINDS, JobSpec, cache_key, design_fingerprint, execute_job
from repro.serve.server import ReproServer, ServeConfig
from repro.serve.store import ResultStore
from repro.session import SessionContext

__all__ = [
    "Draining",
    "JOB_KINDS",
    "JobExecutor",
    "JobSpec",
    "QueueFull",
    "ReproServer",
    "ResultStore",
    "ServeClient",
    "ServeConfig",
    "ServerError",
    "SessionContext",
    "cache_key",
    "design_fingerprint",
    "execute_job",
]
