"""The crash-safe, content-addressed result store and job ledger.

Two append-only JSON-lines journals under ``--state-dir``, written with
the checkpoint discipline (append one line, flush, fsync):

``store.jsonl``
    One line per completed cacheable result: ``{"key", "request",
    "design", "timing", "fingerprint"}``.  The key is the request's
    content address (:func:`repro.serve.jobs.cache_key`); lookups serve
    repeat requests without touching the engine.  Later lines win on a
    duplicate key (last-writer-wins replay, like journal resume).

``jobs.jsonl``
    The job ledger: an ``accepted`` line when a job is admitted and a
    ``done`` line when it reaches a terminal state.  On startup,
    accepted-without-done jobs are the ones a crash or drain left
    in flight; :meth:`ResultStore.recover` returns them for re-queueing
    (``SRV007``) so a SIGKILL'd server restarts into a consistent store
    and finishes what it accepted.

Corrupt lines (a crash mid-append) are skipped and counted, never
fatal -- the DSE006 discipline (``SRV005`` here).  DSE checkpoint
journals for in-flight jobs live under ``journals/<key>.journal``,
giving restarted and retried jobs engine-level resume on top of
store-level caching; a job's journal is removed once its store line is
on disk, so a crash leaves a finished job with one or both, never
neither.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.serve.jobs import JobSpec, design_fingerprint
from repro.util.atomic import append_line

STORE_FORMAT = 1


def _append_line(path: str, record: dict) -> None:
    """Append one fsynced JSON line (the checkpoint-journal discipline)."""
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "a+b") as handle:
        append_line(handle, line)


def _read_lines(path: str) -> Tuple[List[dict], int]:
    """All parseable records plus the number of corrupt lines skipped."""
    records: List[dict] = []
    corrupt = 0
    if not os.path.exists(path):
        return records, corrupt
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except ValueError:
                corrupt += 1
                continue
            if not isinstance(record, dict):
                corrupt += 1
                continue
            records.append(record)
    return records, corrupt


class ResultStore:
    """Content-addressed results + job ledger rooted at ``state_dir``.

    Thread-safe: the server's HTTP threads and the executor's monitor
    thread share one instance.
    """

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        self.journal_dir = os.path.join(state_dir, "journals")
        os.makedirs(self.journal_dir, exist_ok=True)
        self.store_path = os.path.join(state_dir, "store.jsonl")
        self.jobs_path = os.path.join(state_dir, "jobs.jsonl")
        self._lock = threading.Lock()
        self.corrupt_skipped = 0
        self.hits = 0
        self.misses = 0
        self._index: Dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        records, corrupt = _read_lines(self.store_path)
        self.corrupt_skipped += corrupt
        for record in records:
            key = record.get("key")
            if not isinstance(key, str) or "design" not in record:
                self.corrupt_skipped += 1
                continue
            self._index[key] = record

    # -- results -------------------------------------------------------

    def lookup(self, key: str) -> Optional[dict]:
        """The stored record for a key, or None (counts hit/miss)."""
        with self._lock:
            record = self._index.get(key)
            if record is None:
                self.misses += 1
            else:
                self.hits += 1
            return record

    def record(self, key: str, spec: JobSpec, payload: dict) -> dict:
        """Persist one completed cacheable result; returns the record."""
        entry = {
            "format": STORE_FORMAT,
            "key": key,
            "request": spec.as_request(),
            "design": payload.get("design"),
            "search": payload.get("search"),
            "timing": payload.get("timing"),
            "fingerprint": design_fingerprint(payload.get("design")),
        }
        with self._lock:
            _append_line(self.store_path, entry)
            self._index[key] = entry
        # A dataflow design's journal fans out to one file per stage.
        for name in os.listdir(self.journal_dir):
            if name.startswith(f"{key}.journal"):
                os.remove(os.path.join(self.journal_dir, name))
        return entry

    def journal_path_for(self, key: str) -> str:
        """Where a dse job with this key checkpoints (and resumes from)."""
        return os.path.join(self.journal_dir, f"{key}.journal")

    # -- job ledger ----------------------------------------------------

    def job_accepted(self, job_id: str, spec: JobSpec, key: Optional[str]) -> None:
        with self._lock:
            _append_line(
                self.jobs_path,
                {
                    "event": "accepted",
                    "job_id": job_id,
                    "key": key,
                    "request": spec.as_request(),
                },
            )

    def job_done(self, job_id: str, status: str) -> None:
        with self._lock:
            _append_line(
                self.jobs_path, {"event": "done", "job_id": job_id, "status": status}
            )

    def recover(self) -> List[Tuple[str, JobSpec, Optional[str]]]:
        """Jobs accepted but never finished: ``(job_id, spec, key)``.

        The SRV007 path: the caller re-queues these at startup so a
        killed server finishes everything it admitted.  Specs that no
        longer validate (e.g. a removed workload) are dropped -- the
        ledger stays consistent either way.
        """
        records, corrupt = _read_lines(self.jobs_path)
        with self._lock:
            self.corrupt_skipped += corrupt
        done = {
            r["job_id"]
            for r in records
            if r.get("event") == "done" and "job_id" in r
        }
        pending: List[Tuple[str, JobSpec, Optional[str]]] = []
        for record in records:
            if record.get("event") != "accepted":
                continue
            job_id = record.get("job_id")
            if not isinstance(job_id, str) or job_id in done:
                continue
            try:
                spec = JobSpec.from_request(record.get("request"))
            except ValueError:
                with self._lock:
                    self.corrupt_skipped += 1
                continue
            pending.append((job_id, spec, record.get("key")))
        return pending

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._index),
                "hits": self.hits,
                "misses": self.misses,
                "corrupt_skipped": self.corrupt_skipped,
            }
