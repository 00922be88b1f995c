"""The executor's event-driven supervision, driven without the HTTP layer.

The monitor thread blocks on every worker's pipe and sentinel plus a
self-pipe -- no tick, no sleep.  These tests pin what that buys and what
it must not lose: every outcome (done, SRV004 retry, SRV003 kill) is
reached with ``time.sleep`` forbidden; a worker that dies mid-message or
silently is a retry, never a hang; results larger than the pipe buffer
arrive whole; concurrent jobs keep their own events; a worker forked
from the warm template imports nothing; and the per-job overhead the
``phases`` field accounts for stays in the low milliseconds.
"""

import json
import os
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.serve import executor as executor_module
from repro.serve.executor import PHASES, JobExecutor
from repro.serve.jobs import JobSpec
from repro.serve.store import ResultStore

pytestmark = pytest.mark.serve


@pytest.fixture
def make_executor(tmp_path):
    made = []

    def make(**options):
        executor = JobExecutor(ResultStore(str(tmp_path / f"s{len(made)}")), **options)
        made.append(executor)
        return executor

    yield make
    for executor in made:
        executor.close()


def _run(executor, timeout_s=60.0, **request):
    job = executor.submit(JobSpec.from_request(request))
    finished = executor.wait(job.id, timeout_s=timeout_s)
    assert finished.status != "running", f"{request} hung: {finished.as_dict()}"
    return finished


class TestNoSleepAnywhere:
    """Every supervision outcome with ``time.sleep`` turned into an error."""

    @pytest.fixture(autouse=True)
    def forbid_sleep(self, monkeypatch):
        def forbidden(seconds):
            raise AssertionError(f"time.sleep({seconds}) in the serve executor")

        monkeypatch.setattr("repro.serve.executor.time.sleep", forbidden)

    def test_dse_verify_and_crash_retry_complete(self, make_executor):
        executor = make_executor(workers=1)
        dse = _run(executor, kind="dse", workload="gemm", size=32)
        assert dse.status == "done", dse.as_dict()
        assert dse.result["design"]["total_cycles"] > 0

        verify = _run(executor, kind="verify", workload="gemm", size=32)
        assert verify.status == "done", verify.as_dict()
        assert verify.result["design"]["ok"] is True

        crashed = _run(
            executor, kind="dse", workload="bicg", size=32,
            fault={"faults": [{"kind": "crash", "candidate": 2}]},
        )
        assert crashed.status == "done", crashed.as_dict()
        assert crashed.attempts == 2
        retry = next(e for e in crashed.events if e["stage"] == "retry")
        assert retry["code"] == "SRV004"
        assert retry["backoff_s"] == executor.backoff_s
        # The backoff was waited out on a deadline, and is accounted for.
        assert crashed.phases["queued_s"] >= executor.backoff_s

    def test_unresponsive_worker_is_killed_at_its_deadline(
        self, make_executor, monkeypatch
    ):
        def hang(spec, journal_path, arm_faults, job_timeout_s, emit):
            threading.Event().wait(60.0)

        monkeypatch.setattr(executor_module, "execute_job", hang)
        executor = make_executor(workers=1, job_timeout_s=0.05, kill_grace_s=0.05)
        started = time.monotonic()
        job = _run(executor, kind="verify", workload="gemm", size=32)
        assert time.monotonic() - started < 10.0
        assert (job.status, job.code) == ("timeout", "SRV003")
        assert "unresponsive" in job.error
        assert job.attempts == 1, "a hard timeout is not retried"


class TestWorkerDeath:
    """A worker that dies without a whole outcome is SRV004, never a hang."""

    @pytest.fixture
    def first_attempt(self, monkeypatch):
        """Replace attempt 1 of every job (``arm_faults`` marks it)."""
        real = executor_module._worker_main

        def install(misbehave):
            def worker(request, journal_path, arm_faults, job_timeout_s, channel):
                if arm_faults:
                    misbehave(channel)
                real(request, journal_path, arm_faults, job_timeout_s, channel)

            monkeypatch.setattr(executor_module, "_worker_main", worker)

        return install

    def _assert_retried(self, job, exitcode):
        assert job.status == "done", job.as_dict()
        assert job.attempts == 2
        retry = next(e for e in job.events if e["stage"] == "retry")
        assert (retry["code"], retry["exitcode"]) == ("SRV004", exitcode)
        assert job.result["design"]["ok"] is True

    def test_killed_mid_send(self, make_executor, first_attempt):
        def die_mid_message(channel):
            # A header promising 1 MiB, a hundred bytes of it, then SIGKILL.
            os.write(channel.fileno(), struct.pack("!i", 1 << 20) + b"x" * 100)
            os.kill(os.getpid(), signal.SIGKILL)

        first_attempt(die_mid_message)
        job = _run(make_executor(workers=1), kind="verify", workload="gemm", size=32)
        self._assert_retried(job, -signal.SIGKILL)

    def test_exit_without_a_message(self, make_executor, first_attempt):
        first_attempt(lambda channel: os._exit(0))
        job = _run(make_executor(workers=1), kind="verify", workload="gemm", size=32)
        self._assert_retried(job, 0)

    def test_result_larger_than_the_pipe_buffer(self, make_executor, monkeypatch):
        blob = "x" * (1 << 20)

        def big(spec, journal_path, arm_faults, job_timeout_s, emit):
            return {"kind": "trace", "design": {"blob": blob}, "timing": {"wall_s": 0.0}}

        monkeypatch.setattr(executor_module, "execute_job", big)
        job = _run(make_executor(workers=1), kind="trace", workload="gemm", size=32)
        assert job.status == "done", job.as_dict()
        assert job.result["design"]["blob"] == blob


def test_concurrent_jobs_keep_their_own_events(make_executor):
    """Two workers, four jobs at once, a status poller hammering the lock
    under a shortened switch interval: every job finishes with exactly
    its own events, and never more than ``workers`` run at a time."""
    executor = make_executor(workers=2, queue_limit=4)
    requests = [
        {"kind": "dse", "workload": "gemm", "size": 32},
        {"kind": "verify", "workload": "bicg", "size": 32},
        {"kind": "dse", "workload": "2mm", "size": 24},
        {"kind": "verify", "workload": "atax", "size": 32},
    ]
    polling = threading.Event()
    most_running = [0]

    def poll_status(jobs):
        while not polling.is_set():
            most_running[0] = max(most_running[0], executor.snapshot()["running"])
            for job in jobs:
                executor.get(job.id).as_dict()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        jobs = [executor.submit(JobSpec.from_request(r)) for r in requests]
        poller = threading.Thread(target=poll_status, args=(jobs,), daemon=True)
        poller.start()
        for job in jobs:
            executor.wait(job.id, timeout_s=120.0)
        polling.set()
        poller.join(timeout=10.0)
        assert not poller.is_alive()
    finally:
        polling.set()
        sys.setswitchinterval(interval)

    assert 1 <= most_running[0] <= 2
    for job, request in zip(jobs, requests):
        assert job.status == "done", job.as_dict()
        stages = [event["stage"] for event in job.events]
        assert stages[0] == "spawn" and stages[-1] == "finished"
        assert [event["seq"] for event in job.events] == list(range(len(job.events)))
        built = [e["workload"] for e in job.events if e["stage"] == "build"]
        assert built == [request["workload"]]
        assert job.result["design"]["workload"] == request["workload"]
    assert executor.snapshot()["running"] == 0


def _children_of(pid):
    """Live child pids of ``pid``, from ``/proc/<pid>/stat`` field 4."""
    children = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = handle.read().rsplit(")", 1)[1].split()[1]
        except OSError:
            continue  # exited between listdir and open
        if int(ppid) == pid:
            children.append(int(entry))
    return children


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs Linux /proc")
@pytest.mark.parametrize(
    "workload, size", [("2mm", 24), ("image-pipeline", 16)]
)
def test_dse_worker_has_no_child_processes_while_it_runs(
    make_executor, monkeypatch, workload, size
):
    """A sweep is one process.  A worker's death is seen through its pipe
    and sentinel, which any child it forked would inherit and hold open;
    with none, a worker SIGKILLed from outside is noticed at once."""
    real = executor_module.execute_job

    def spying(spec, journal_path, arm_faults, job_timeout_s, emit):
        import repro.dse.engine as engine

        pick, seen = engine._pick_bottleneck, []

        def sampling(graph, latencies, active):
            seen.append(_children_of(os.getpid()))
            return pick(graph, latencies, active)

        engine._pick_bottleneck = sampling  # in this worker only; it exits after the job
        payload = real(spec, journal_path, arm_faults, job_timeout_s, emit)
        emit({"stage": "children", "seen": seen})
        return payload

    monkeypatch.setattr(executor_module, "execute_job", spying)
    job = _run(make_executor(workers=1), kind="dse", workload=workload, size=size)
    assert job.status == "done", job.as_dict()
    (event,) = [e for e in job.events if e["stage"] == "children"]
    assert len(event["seen"]) >= 4, "sampled once per ladder step"
    assert not any(event["seen"]), event["seen"]


_WARM_TEMPLATE_SCRIPT = """
import json, sys, tempfile
import repro.serve
from repro.serve import executor
from repro.serve.jobs import JobSpec
from repro.serve.store import ResultStore

real = executor.execute_job

def spying(spec, journal_path, arm_faults, job_timeout_s, emit):
    before = set(sys.modules)
    payload = real(spec, journal_path, arm_faults, job_timeout_s, emit)
    emit({"stage": "imports", "new": sorted(set(sys.modules) - before)})
    return payload

executor.execute_job = spying  # forked workers inherit the patch
report = {}
with tempfile.TemporaryDirectory() as state:
    runner = executor.JobExecutor(ResultStore(state), workers=1)
    try:
        for request in json.loads(sys.argv[1]):
            job = runner.submit(JobSpec.from_request(request))
            runner.wait(job.id, timeout_s=120.0)
            new = [e["new"] for e in job.events if e["stage"] == "imports"]
            report[job.spec.label] = {"status": job.status, "new": new}
    finally:
        runner.close()
print(json.dumps(report))
"""


def test_forked_worker_imports_nothing():
    """In a fresh interpreter that imported only ``repro.serve``, a worker
    running one job of each kind adds nothing to ``sys.modules``:
    :func:`repro.serve.jobs.preload` covers every lazy import."""
    requests = [
        {"kind": "dse", "workload": "gemm", "size": 32},
        {"kind": "dse", "workload": "image-pipeline", "size": 16,
         "options": {"resource_fraction": 0.25}},
        {"kind": "verify", "workload": "gemm", "size": 32},
        {"kind": "trace", "workload": "gemm", "size": 32, "options": {"dse": True}},
        {"kind": "fuzz", "options": {"seed": 1, "trials": 3}},
    ]
    done = subprocess.run(
        [sys.executable, "-c", _WARM_TEMPLATE_SCRIPT, json.dumps(requests)],
        capture_output=True, text=True, timeout=300, env=os.environ.copy(),
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(report) == len(requests)
    for label, outcome in report.items():
        assert outcome == {"status": "done", "new": [[]]}, (label, outcome)


@pytest.mark.perfsmoke
def test_perfsmoke_cold_job_overhead_and_phases(make_executor):
    """What a cold job costs beyond its sweep: fork, child start-up, the
    result's trip back and the store write.  The polling executor could
    not get under 60 ms (a tick to notice the result, then a blind 50 ms
    drain); event-driven it is ~10 ms."""
    executor = make_executor(workers=1)
    overheads = []
    for fraction in (0.3, 0.4, 0.5, 0.6, 0.7):
        job = _run(
            executor, kind="dse", workload="gemm", size=32,
            options={"resource_fraction": fraction},
        )
        assert job.status == "done", job.as_dict()
        record = job.as_dict()
        assert set(record["phases"]) == set(PHASES)
        assert sum(record["phases"].values()) == pytest.approx(
            record["wall_s"], abs=1e-5
        )
        assert job.events[-1]["phases"] == record["phases"]
        overheads.append(record["wall_s"] - record["result"]["timing"]["wall_s"])
    assert statistics.median(overheads) < 0.030, overheads
