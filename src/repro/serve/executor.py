"""Fault-isolated job execution: sandboxing, admission, retry, drain.

Every job runs in a worker **subprocess**, one job at a time per
worker, under a fresh :class:`~repro.session.SessionContext`: a
crashing candidate (:class:`repro.faults.InjectedCrash` is a
``BaseException`` precisely so nothing in-process can swallow it) or a
hard hang kills only that worker, never the server or a sibling job.
Up to ``workers`` workers live at once and outlive their jobs: a
worker that reports an outcome goes back to an idle list and takes the
next job, so a cold request pays for a fork only when no worker is
idle.  A worker that dies, or is killed at its hard deadline or by a
drain, is reaped and replaced by a fork at the next dispatch; a crash
retry always runs on a freshly forked worker.  Sessions need nothing
more than this: one session is active in a worker at a time, and each
job's session, fault plan, tracer and deadline are installed and
restored around it.

Admission control is a bounded queue: when ``queue_limit`` jobs are
already pending, :meth:`JobExecutor.submit` raises :class:`QueueFull`
(surfaced as HTTP 429 + ``Retry-After``, ``SRV002``) instead of
accepting unbounded work.

Failure policy, per attempt:

* **worker death** (nonzero exit without a result) -- retried with
  exponential backoff up to ``max_attempts``, fault spec disarmed and
  the job's checkpoint journal resumed (``SRV004``), matching the
  batch layer's chaos-resume idiom: the retried job converges to the
  fault-free result;
* **cooperative timeout** -- the job's wall budget feeds the engine's
  own :class:`~repro.util.deadline.Deadline` machinery inside the
  worker (DSE sweeps degrade gracefully); a worker that blows through
  the cooperative budget by ``kill_grace_s`` is hard-killed and the job
  fails with ``SRV003``, no retry;
* **drain** (SIGTERM/SIGINT) -- no new admissions, running jobs get
  ``drain_grace_s`` to finish, stragglers are terminated and left
  *accepted-without-done* in the ledger (``SRV006``), so a restarted
  server re-queues them (``SRV007``) and their journals resume.  A
  draining executor starts no job and ends its idle workers: pending
  jobs wait for the restart.

Supervision is event-driven: workers are forked from a warm template
(:func:`repro.serve.jobs.preload`).  Each receives its jobs over its
own request pipe, whose write end only the server holds (a worker
forked later closes its siblings' ends), so an idle worker exits on the
EOF when the server closes it or dies.  Workers report over a one-way
pipe whose ``send`` is synchronous, so a fired ``Process.sentinel``
means everything sent is readable.  One monitor thread owns every pipe
and process; it blocks on all of them (an idle worker's sentinel too)
plus a self-pipe that ``submit`` / ``drain`` / ``close`` write to, with
a timeout only while a real deadline exists (retry backoff, hard-kill
budget, drain grace), and it reads, joins and kills outside the
executor lock.
"""

from __future__ import annotations

import atexit
import itertools
import os
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as _wait_ready
from typing import Deque, Dict, List, Optional

from repro.serve.jobs import JobSpec, cache_key, execute_job, preload
from repro.session import SessionContext
from repro.serve.store import ResultStore
from repro.util.deadline import DeadlineExceeded

#: Terminal job statuses.
TERMINAL = ("done", "failed", "timeout", "interrupted")
#: An exact partition of a job's ``wall_s``, summed over attempts: waiting for
#: a slot or a retry backoff, dispatch (includes a fork only when no worker is
#: idle), worker running the job, outcome known -> stored.
PHASES = ("queued_s", "spawn_s", "run_s", "finalize_s")

_JOB_IDS = itertools.count(1)


class QueueFull(Exception):
    """Admission rejected: the pending queue is at capacity (SRV002)."""

    def __init__(self, limit: int, retry_after_s: float):
        super().__init__(f"job queue full ({limit} pending)")
        self.limit = limit
        self.retry_after_s = retry_after_s


class Draining(Exception):
    """Admission rejected: the server is shutting down (SRV006)."""


class Job:
    """One admitted job's mutable record (guarded by the executor lock)."""

    def __init__(self, job_id: str, spec: JobSpec, key: Optional[str]):
        self.id = job_id
        self.spec = spec
        self.key = key
        self.status = "queued"
        self.attempts = 0
        self.events: List[dict] = []
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        self.code: Optional[str] = None
        self.not_before = 0.0
        self.created = time.monotonic()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.phases = dict.fromkeys(PHASES, 0.0)
        self._phase, self._stamp = "queued_s", self.created

    def enter(self, phase: str) -> float:
        """Charge the time since the last transition to the phase being left."""
        now = time.monotonic()
        self.phases[self._phase] += now - self._stamp
        self._phase, self._stamp = phase, now
        return now

    def timeline(self) -> dict:
        return {name: round(spent, 6) for name, spent in self.phases.items()}

    def add_event(self, event: dict) -> None:
        event = dict(event)
        event["seq"] = len(self.events)
        self.events.append(event)

    def as_dict(self) -> dict:
        record = {
            "job": self.id,
            "kind": self.spec.kind,
            "label": self.spec.label,
            "status": self.status,
            "attempts": self.attempts,
            "events": len(self.events),
            "phases": self.timeline(),
        }
        if self.code:
            record["code"] = self.code
        if self.error:
            record["error"] = self.error
        if self.result is not None:
            record["result"] = self.result
        if self.finished is not None:
            record["wall_s"] = round(self.finished - self.created, 6)
        return record


def _worker_main(request: dict, journal_path, arm_faults, job_timeout_s, channel):
    """One job in a worker, in one fresh session.

    Sends ``("event", ...)`` progress messages, then exactly one
    ``(status, fields)`` outcome in the form ``_finalize_locked`` takes.
    An injected crash propagates (it is a BaseException) and kills the
    process -- the monitor sees the nonzero exit, which is the point.
    """
    spec = JobSpec.from_request(request)

    def emit(event: dict) -> None:
        try:
            channel.send(("event", event))
        except Exception:
            pass

    session = SessionContext()
    try:
        with session.activate():
            payload = execute_job(spec, journal_path, arm_faults, job_timeout_s, emit)
        channel.send(("done", {"result": payload}))
    except DeadlineExceeded as exc:
        error = (
            f"job exceeded its {exc.budget_s:.3g}s budget "
            f"(elapsed {exc.elapsed_s:.3g}s)"
        )
        channel.send(("timeout", {"code": "SRV003", "error": error}))
    except Exception as exc:
        channel.send(("failed", {"error": f"{type(exc).__name__}: {exc}"}))


def _worker_loop(jobs, channel, server_ends, self_pipe) -> None:
    """Worker-process entry point: run the jobs that arrive on ``jobs``,
    one at a time, until the server closes it or dies (EOF), or a
    SIGTERM/SIGINT arrives.

    ``server_ends`` are the server's ends of every worker's pipes, this
    worker's own included, which the fork copied: closing them leaves
    the server the only writer of each request pipe.  ``self_pipe`` are
    the executor's self-pipe descriptors the fork copied, closed too.
    The signal handlers are the worker's own, not the server's drain the
    fork copied: a signal ends an idle worker at once, and one running a
    job after it has sent that job's outcome.
    """
    for end in server_ends:
        end.close()
    for fd in self_pipe:
        os.close(fd)
    signalled, wake = os.pipe()
    os.set_blocking(wake, False)
    signal.set_wakeup_fd(wake)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: None)  # the wakeup fd says it
    while True:
        if signalled in _wait_ready([jobs, signalled]):
            return
        try:
            request, journal_path, arm_faults, job_timeout_s = jobs.recv()
        except EOFError:
            return
        _worker_main(request, journal_path, arm_faults, job_timeout_s, channel)


class _Worker:
    """One worker process and the server's ends of its pipes (monitor
    thread only, and ``close`` once the monitor is gone)."""

    __slots__ = ("process", "jobs", "conn", "job", "started", "inbox", "exited")

    def __init__(self, process, jobs, conn):
        self.process = process
        self.jobs = jobs  # write end of the worker's request pipe
        self.conn = conn  # read end of the worker's one-way result pipe
        self.job: Optional[Job] = None  # the job it runs; None while idle
        self.started = 0.0
        self.inbox: List[tuple] = []  # read by _pump, applied under the lock
        self.exited = False  # sentinel fired, or the pipe hit EOF


class JobExecutor:
    """Runs jobs in long-lived sandboxed subprocesses off a bounded queue."""

    def __init__(
        self,
        store: ResultStore,
        workers: int = 2,
        queue_limit: int = 8,
        job_timeout_s: Optional[float] = None,
        kill_grace_s: float = 10.0,
        max_attempts: int = 3,
        backoff_s: float = 0.05,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.store = store
        self.workers = workers
        self.queue_limit = queue_limit
        self.job_timeout_s = job_timeout_s
        self.kill_grace_s = kill_grace_s
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        from repro.util.pool import _context

        self._ctx = _context()
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._pending: List[Job] = []
        self._running: Dict[str, _Worker] = {}
        self._idle: List[_Worker] = []
        # Every forked worker not yet reaped (running, idle or decided), and
        # the decided ones the monitor reaps next, outside the lock.
        self._pool: List[_Worker] = []
        self._decided: List[_Worker] = []
        self._forks = 0
        # Recent per-job wall times (started -> finished), feeding the
        # 429 Retry-After estimate.  Bounded so one pathological job
        # ages out instead of skewing admission hints forever.
        self._service_times: Deque[float] = deque(maxlen=16)
        self._draining = False
        self._drain_deadline = 0.0
        self._stop = False
        # The self-pipe: a byte written here interrupts the monitor's wait.
        # One byte per admission, so it can never fill and block a writer.
        self._wake_r, self._wake_w = os.pipe()
        preload()  # every worker is a fork of this process: fork it warm
        self._thread = threading.Thread(
            target=self._monitor, name="serve-executor", daemon=True
        )
        self._thread.start()
        # multiprocessing joins every live worker at interpreter exit, and an
        # idle one only exits once its request pipe closes: close it first.
        atexit.register(self.close)

    # -- admission -----------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        job_id: Optional[str] = None,
        ledger: bool = True,
    ) -> Job:
        """Admit one job; raises QueueFull/Draining on rejection.

        ``job_id``/``ledger=False`` are the recovery path: re-queued
        jobs keep their original id and already have a ledger line.
        """
        key = cache_key(spec) if spec.cacheable else None
        with self._lock:
            if self._draining or self._stop:
                raise Draining("server is draining; try another instance")
            # Jobs can reach a terminal status while still listed as
            # pending (finalized out-of-band, e.g. during a drain/retry
            # race).  They represent no queued work, so they must not
            # count against the admission limit or inflate Retry-After.
            self._pending = [
                pending for pending in self._pending
                if pending.status not in TERMINAL
            ]
            if len(self._pending) >= self.queue_limit:
                raise QueueFull(self.queue_limit, self._retry_after_locked())
            job = Job(job_id or f"job-{next(_JOB_IDS)}", spec, key)
            self._jobs[job.id] = job
            self._pending.append(job)
            self._wake_locked()
            self._changed.notify_all()
        if ledger:
            self.store.job_accepted(job.id, spec, key)
        return job

    def _retry_after_locked(self) -> float:
        """Advertised 429 back-off: one queue drain at current depth.

        Extrapolates from the median of recently observed service
        times across the genuinely outstanding backlog (pending +
        running) and the worker count.  Before any job has completed
        there is nothing to extrapolate from, so fall back to a fixed
        per-slot heuristic; either way the hint stays in [1, 30]
        seconds so clients neither busy-spin nor give up.
        """
        backlog = len(self._pending) + len(self._running)
        if not self._service_times:
            return max(1.0, len(self._pending) * 0.5)
        ordered = sorted(self._service_times)
        median = ordered[len(ordered) // 2]
        estimate = median * backlog / max(1, self.workers)
        return min(30.0, max(1.0, estimate))

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout_s: Optional[float] = None) -> Optional[Job]:
        """Block until the job reaches a terminal status (or timeout)."""
        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        with self._lock:
            while True:
                job = self._jobs.get(job_id)
                if job is None or job.status in TERMINAL:
                    return job
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return job
                self._changed.wait(remaining)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "pending": len(self._pending),
                "running": len(self._running),
                "idle": len(self._idle),
                "forks": self._forks,
                "jobs": len(self._jobs),
                "queue_limit": self.queue_limit,
                "workers": self.workers,
                "draining": self._draining,
            }

    # -- lifecycle -----------------------------------------------------

    def drain(self, grace_s: float = 5.0) -> dict:
        """Stop admitting, give running jobs ``grace_s``, checkpoint rest.

        Returns counts of finished vs interrupted jobs once every worker
        has been reaped.  Interrupted and still-pending jobs keep their
        accepted-without-done ledger state, so a restart re-queues them
        (SRV007) and their journals resume.
        """
        with self._lock:
            self._draining = True
            self._drain_deadline = time.monotonic() + grace_s
            for job in self._pending:
                job.status = "interrupted"
                job.code = "SRV006"
                job.error = "server draining: job re-queued at next start"
            interrupted = len(self._pending)
            self._pending.clear()
            stragglers = [worker.job for worker in self._running.values()]
            self._wake_locked()
            self._changed.notify_all()
            # The monitor interrupts whatever outlives the deadline and
            # ends every worker, idle or freed.
            while self._pool:
                self._changed.wait()
            interrupted += sum(job.status == "interrupted" for job in stragglers)
            finished = sum(job.status == "done" for job in self._jobs.values())
        return {"finished": finished, "interrupted": interrupted}

    def close(self) -> None:
        with self._lock:
            if self._stop:
                return
            self._wake_locked()
            self._stop = True
            self._changed.notify_all()
        self._thread.join()
        atexit.unregister(self.close)
        with self._lock:
            # The monitor is gone, so its workers are ours to end and collect.
            pool, self._pool = self._pool, []
            self._running.clear()
            self._idle.clear()
            self._changed.notify_all()
        for worker in pool:
            if worker.job is not None:
                worker.process.kill()
            self._reap(worker)
        os.close(self._wake_r)
        os.close(self._wake_w)

    def _wake_locked(self) -> None:
        if not self._stop:  # close() has closed the pipe
            os.write(self._wake_w, b"\0")

    # -- monitor thread ------------------------------------------------

    def _monitor(self) -> None:
        """Sleep until a worker speaks or dies, another thread writes
        the self-pipe, or the earliest real deadline passes."""
        while True:
            with self._lock:
                self._poll_running_locked()
                stop = self._stop
                if not stop:
                    self._start_ready_locked()
                decided, self._decided = self._decided, []
                watched = list(self._running.values())
                idle = list(self._idle)
                timeout = self._timeout_locked()
            if decided:
                for worker in decided:
                    self._reap(worker)
                with self._lock:
                    for worker in decided:
                        self._pool.remove(worker)
                    self._changed.notify_all()  # drain() waits for the pool
            if stop:
                return
            waitables = [self._wake_r]
            for worker in watched:
                waitables += (worker.conn, worker.process.sentinel)
            waitables += [worker.process.sentinel for worker in idle]
            ready = set(_wait_ready(waitables, timeout))
            if self._wake_r in ready:
                os.read(self._wake_r, 4096)
            for worker in watched + idle:
                exited = worker.process.sentinel in ready
                if exited or worker.conn in ready:
                    self._pump(worker, exited)

    def _timeout_locked(self) -> Optional[float]:
        """Seconds to the earliest real deadline; None when there is none."""
        now = time.monotonic()
        deadlines = [job.not_before for job in self._pending if job.not_before > now]
        if self._running and self._draining:
            deadlines.append(self._drain_deadline)
        if self._running and self.job_timeout_s is not None:
            oldest = min(worker.started for worker in self._running.values())
            deadlines.append(oldest + self.job_timeout_s + self.kill_grace_s)
        return max(0.0, min(deadlines) - now) if deadlines else None

    def _start_ready_locked(self) -> None:
        now = time.monotonic()
        for job in [job for job in self._pending if job.not_before <= now]:
            if len(self._running) >= self.workers:
                break
            self._pending.remove(job)
            self._dispatch_locked(job)

    def _dispatch_locked(self, job: Job) -> None:
        job.enter("spawn_s")
        job.attempts += 1
        arm_faults = job.attempts == 1
        journal_path = (
            self.store.journal_path_for(job.key)
            if job.key is not None and job.spec.kind == "dse"
            else None
        )
        worker = self._idle_worker_locked(fresh=not arm_faults)
        forked = worker is None
        if forked:
            worker = self._fork_locked()
        try:
            worker.jobs.send(
                (job.spec.as_request(), journal_path, arm_faults, self.job_timeout_s)
            )
        except OSError:
            pass  # it died after the check: its sentinel makes this a crash
        started = job.enter("run_s")
        job.status = "running"
        if job.started is None:
            job.started = started
        job.add_event(
            {
                "stage": "spawn",
                "attempt": job.attempts,
                "faults_armed": arm_faults,
                "forked": forked,
            }
        )
        worker.job, worker.started = job, started
        self._running[job.id] = worker
        self._changed.notify_all()

    def _idle_worker_locked(self, fresh: bool) -> Optional[_Worker]:
        """A live idle worker for the next job, or None when one must be
        forked.  An idle worker found dead is replaced.  A crash retry
        (``fresh``) always gets a fork, like the attempt that died; when
        the pool is full, the longest-idle worker is retired for it."""
        if fresh:
            if self._idle and len(self._running) + len(self._idle) >= self.workers:
                self._decided.append(self._idle.pop(0))
            return None
        while self._idle:
            worker = self._idle.pop()
            if worker.process.is_alive():
                return worker
            self._decided.append(worker)
        return None

    def _fork_locked(self) -> _Worker:
        jobs_r, jobs = self._ctx.Pipe(duplex=False)
        conn, channel = self._ctx.Pipe(duplex=False)
        server_ends = [end for other in self._pool for end in (other.jobs, other.conn)]
        # Raw descriptors are inherited by a fork only, not by a spawn.
        fork = self._ctx.get_start_method() == "fork"
        process = self._ctx.Process(
            target=_worker_loop,
            args=(jobs_r, channel, server_ends + [jobs, conn],
                  (self._wake_r, self._wake_w) if fork else ()),
            daemon=False,
        )
        process.start()
        # The worker holds the only other ends: an EOF on ``conn`` is its
        # death, and one on its request pipe is ours.
        jobs_r.close()
        channel.close()
        worker = _Worker(process, jobs, conn)
        self._pool.append(worker)
        self._forks += 1
        return worker

    @staticmethod
    def _pump(worker: _Worker, exited: bool) -> None:
        """Read what the worker has sent (monitor thread, lock not held):
        once the sentinel has fired, ``poll(0)`` finds all of it.  EOF or
        a message cut short means the only writer is gone -- a death."""
        try:
            while worker.conn.poll(0):
                worker.inbox.append(worker.conn.recv())
        except (EOFError, OSError):
            exited = True
        if exited:
            worker.process.join(timeout=1.0)  # collects the exit code
            worker.exited = True

    @staticmethod
    def _reap(worker: _Worker) -> None:
        """Collect a worker the pool let go of (lock not held): close its
        request pipe so an idle one exits, let a clean exit finish, kill
        what lingers, close our handles."""
        worker.jobs.close()
        process = worker.process
        process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join()
        process.close()
        worker.conn.close()

    def _poll_running_locked(self) -> None:
        """Apply what :meth:`_pump` read and expire deadlines.  A worker
        that reported its job's outcome goes back to the idle list; one
        that died or was killed, and an idle one that died or is no
        longer needed (a drain), is decided: the monitor reaps it."""
        now = time.monotonic()
        budget = None
        if self.job_timeout_s is not None:
            budget = self.job_timeout_s + self.kill_grace_s
        for worker in list(self._running.values()):
            job = worker.job
            outcome = None
            for kind, payload in worker.inbox:
                if kind == "event":
                    job.add_event(payload)
                else:
                    outcome = (kind, payload)
            worker.inbox.clear()
            if outcome is not None:
                self._finalize_locked(job, outcome[0], **outcome[1])
            elif worker.exited:
                self._handle_crash_locked(job, worker.process.exitcode)
            elif self._draining and now >= self._drain_deadline:
                worker.process.kill()
                error = "server draining: job checkpointed for restart"
                self._finalize_locked(job, "interrupted", "SRV006", error, ledger=False)
            elif budget is not None and now - worker.started >= budget:
                # Blew past the cooperative deadline: a genuine hang.
                worker.process.kill()
                error = (
                    f"worker unresponsive {budget:.3g}s after its "
                    f"{self.job_timeout_s:.3g}s budget; killed"
                )
                self._finalize_locked(job, "timeout", "SRV003", error)
            else:
                continue
            del self._running[job.id]
            worker.job = None
            if outcome is not None and not worker.exited:
                self._idle.append(worker)
            else:
                self._decided.append(worker)
        for worker in [w for w in self._idle if w.exited or self._draining]:
            self._idle.remove(worker)
            self._decided.append(worker)

    def _handle_crash_locked(self, job: Job, exitcode) -> None:
        if job.attempts < self.max_attempts and not self._draining:
            backoff = self.backoff_s * (2 ** (job.attempts - 1))
            job.not_before = job.enter("queued_s") + backoff
            job.status = "queued"
            job.add_event(
                {
                    "stage": "retry",
                    "code": "SRV004",
                    "exitcode": exitcode,
                    "backoff_s": round(backoff, 4),
                }
            )
            self._pending.append(job)
            self._changed.notify_all()
            return
        error = (
            f"worker died (exit {exitcode}) on attempt {job.attempts}"
            f"/{self.max_attempts}"
        )
        self._finalize_locked(job, "failed", "SRV004", error)

    def _finalize_locked(
        self,
        job: Job,
        status: str,
        code: Optional[str] = None,
        error: Optional[str] = None,
        result: Optional[dict] = None,
        ledger: bool = True,
    ) -> None:
        job.enter("finalize_s")
        job.status = status
        job.result = result
        job.code = code
        job.error = error
        if status == "done" and job.key is not None and result is not None:
            self.store.record(job.key, job.spec, result)
        if ledger:
            self.store.job_done(job.id, status)
        job.finished = job.enter("finalize_s")
        if job.started is not None:
            self._service_times.append(job.finished - job.started)
        job.add_event({"stage": "finished", "status": status, "phases": job.timeline()})
        self._changed.notify_all()
